"""The library's input contract: every refusal of a malformed argument.

Each public entry point checks what it is given and raises
ValidationError (or, for a degenerate cone, RejectionError) with a stable
message.  The cases below are the refusals that no other test reaches:
one row each, the call, the exception and the message it must carry.
"""

from __future__ import annotations

import pytest

from bott_towers import (
    CharacterBundle,
    GeneralFan,
    IntegralSequence,
    LaurentMonomial,
    Poset,
    RejectionError,
    SupportFunctionData,
    ValidationError,
    build_fan,
    cli,
    cohomology_ring,
    extend_sequence,
    fans_isomorphic,
    integrate,
    is_complete,
    lift_with_support_function,
    multiply,
)

ZERO_2 = IntegralSequence.zero(2)
SQUARE = GeneralFan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                    [(0, 2), (0, 3), (1, 2), (1, 3)])
SEGMENT = GeneralFan(1, [(1,), (-1,)], [(0,), (1,)])
CONELESS = GeneralFan(2, [(1, 0), (0, 1)], [])
FLAT = GeneralFan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1)])  # det 0
H1 = SupportFunctionData(IntegralSequence.zero(1), 1, {(1, 0): 0, (1, 1): 0})
X1 = cohomology_ring(ZERO_2, 2).gen(1)

REFUSALS = {  # name: (call, exception, message)
    "sequence is not a sequence": (
        lambda: build_fan(None, 1), ValidationError,
        "expected an IntegralSequence"),
    "sequence key is not a pair": (
        lambda: IntegralSequence(3, {1: 2}), ValidationError,
        "bad entry key 1"),
    "extension column of the wrong length": (
        lambda: ZERO_2.extend([1]), ValidationError,
        "extension column must have length 2, got 1"),
    "poset pair is not a pair": (
        lambda: Poset(3, [(1, 2, 3)]), ValidationError,
        "bad relation pair (1, 2, 3)"),
    "fan is not a fan": (
        lambda: is_complete("fan"), ValidationError,
        "expected a fan, got str"),
    "lift of a general fan": (
        lambda: lift_with_support_function(SQUARE, H1), ValidationError,
        "lift expects a tower fan"),
    "isomorphism of coneless fans": (
        lambda: fans_isomorphic(CONELESS, CONELESS), ValidationError,
        "isomorphism search needs maximal cones"),
    "isomorphism anchored on a flat cone": (
        lambda: fans_isomorphic(FLAT, FLAT), RejectionError,
        "degenerate cone: {'cone': [0, 1]}"),
    "character times an int": (
        lambda: CharacterBundle((1,)) * 3, ValidationError,
        "expected a CharacterBundle"),
    "support value of no generator given": (
        lambda: SupportFunctionData(IntegralSequence.zero(1), 1,
                                    {(1, 0): 0, (1, 1): 0, (2, 0): 0}),
        ValidationError, "expected 2 support values, got 3"),
    "support value of no generator asked": (
        lambda: H1.value(2, 0), ValidationError, "no generator (2,0)"),
    "extension from a value table": (
        lambda: extend_sequence(ZERO_2, 2, {}), ValidationError,
        "expected SupportFunctionData"),
    "extension from another fan's data": (
        lambda: extend_sequence(ZERO_2, 1, H1), ValidationError,
        "support data belongs to a different fan"),
    "monomial with no exponent": (
        lambda: LaurentMonomial(()), ValidationError,
        "monomial needs at least one exponent"),
    "class plus an int": (
        lambda: X1 + 1, ValidationError, "expected a CohomologyClass"),
    "product of an int": (
        lambda: multiply(2, X1), ValidationError,
        "expected a CohomologyClass"),
    "integral of an int": (
        lambda: integrate(2), ValidationError, "expected a CohomologyClass"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_a_reflexive_poset_pair_adds_nothing():
    assert Poset(3, [(2, 2), (1, 3), (3, 3)]) == Poset(3, [(1, 3)])
    assert Poset(3, [(2, 2)]).strict_pairs() == ()


def test_isomorphism_of_fans_of_other_shapes_is_none():
    assert fans_isomorphic(SQUARE, SEGMENT) is None  # dimensions differ
    assert fans_isomorphic(SQUARE, CONELESS) is None  # ray counts differ
    assert fans_isomorphic(SQUARE, GeneralFan(
        2, SQUARE.rays, SQUARE.cones[:3])) is None  # cone counts differ


@pytest.mark.parametrize("command", ["numbers", "classify"])
def test_a_document_that_is_not_an_object(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr() == (
        "", "error: sequence document: expected a JSON object\n")
