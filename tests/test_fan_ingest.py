"""Fan-document ingest in one validating pass.

`fan_from_doc` checks only that the rays, the cones and their rows are
lists, and hands them to `GeneralFan.__init__`, whose whole-list sweeps
(of the rays, then of the cones) are the only ones of their elements.  A
refusal of a document whose elements are all plain ints stands, with no
second pass.  Only after a `ValidationError` on any other document, or for
rays or cones of another shape (a tuple among them), does the per-element
`parse_int` loop run, to read quoted ints or name the first fault in the
former order; the constructor's `_check_int` loop likewise runs only when
a sweep fails.  The former ingest, which ran both loops on every element,
is kept as `helpers.reference_fan_ingest`: on well-formed, mutated and
library input both raise the same exception type and message, or build
the same fan.  The mutations include the edges of the sweeps: an index of
-len(rays), valid from the end of a list, one of 2^64, and a repeated ray
in a cone of three or more.

The CLI bytes (exit code, stdout and stderr) of the `recognize` bench
documents, the known rejects and the mutated documents are pinned by one
digest, computed before the single pass and the one-solve witness landed.
Those of the `ring` and `tables` decks are pinned by one digest per deck,
computed before the list writers and the per-size item streams.
"""

from __future__ import annotations

import copy
import json
import random
from enum import IntEnum
from itertools import chain

import pytest

from bott_towers import GeneralFan, ValidationError, cli, fan_to_doc
from bott_towers import fans as FANS
from bott_towers import serialize as SERIALIZE
from bott_towers.serialize import fan_from_doc
from helpers import (cli_digest, deck_argvs, reference_fan_ingest,
                     reference_general_fan, reject_fans, scrambled_tower)


def _lists(doc, key):
    """The positions of the non-empty lists in doc[key]."""
    return [at for at, row in enumerate(doc[key])
            if isinstance(row, list) and row]


def _retype(key, make):
    def mutate(rng, doc):
        row = doc[key][rng.choice(_lists(doc, key))]
        at = rng.randrange(len(row))
        if type(row[at]) is int:  # a second fault may have been put there
            row[at] = make(row[at])
    return mutate


def _row(key, change):
    def mutate(rng, doc):
        at = rng.choice(_lists(doc, key))
        doc[key][at] = change(doc[key][at])
    return mutate


def _copy_row(key, change):
    def mutate(rng, doc):
        a, b = rng.sample(_lists(doc, key), 2)
        doc[key][b] = change(doc[key][a])
    return mutate


def _set_index(value):
    def mutate(rng, doc):
        cone = doc["cones"][rng.choice(_lists(doc, "cones"))]
        cone[rng.randrange(len(cone))] = value(doc)
    return mutate


def _set(key, value):
    def mutate(rng, doc):
        doc[key] = value
    return mutate


# Faults at one ray, cone or entry, which two at a time can combine.
PLACED = {
    "quoted coordinate": _retype("rays", str),
    "quoted index": _retype("cones", str),
    "quoted big coordinate": _retype("rays", lambda v: str(v + 2 ** 60)),
    "non-decimal coordinate": _retype("rays", lambda v: f" {v}"),
    "non-decimal index": _retype("cones", lambda v: f"{v}.0"),
    "bool coordinate": _retype("rays", lambda v: v == 1),
    "bool index": _retype("cones", lambda v: v == 0),
    "float coordinate": _retype("rays", float),
    "float index": _retype("cones", float),
    "null index": _retype("cones", lambda v: None),
    "short ray": _row("rays", lambda ray: ray[:-1]),
    "long ray": _row("rays", lambda ray: ray + [0]),
    "zero ray": _row("rays", lambda ray: [0] * len(ray)),
    "imprimitive ray": _row("rays", lambda ray: [2 * x for x in ray]),
    "ray not a list": _row("rays", lambda ray: {"ray": ray}),
    "duplicate rays": _copy_row("rays", list),
    "short cone": _row("cones", lambda cone: cone[:-1]),
    "long cone": _row("cones", lambda cone: cone + [cone[0]]),
    "cone not a list": _row("cones", len),
    "repeated index": _row("cones", lambda cone: [cone[1]] + cone[1:]),
    "negative index": _set_index(lambda doc: -1),
    "out-of-range index": _set_index(lambda doc: len(doc["rays"])),
    "duplicate cone": _copy_row("cones", lambda cone: cone[::-1]),
}
# The faults whose mutants the pinned CLI digest below was computed on.
PINNED_FAULTS = sorted(PLACED)
PLACED.update({
    # a valid index from the end of a list of bits
    "index -len(rays)": _set_index(lambda doc: -len(doc["rays"])),
    "index 2^64": _set_index(lambda doc: 2 ** 64),
    "repeat at dim >= 3": _row("cones", lambda cone: (
        cone[:-1] + cone[-2:-1] if len(cone) >= 3 else cone)),
})
MUTATIONS = {
    **PLACED,
    "no rays": _set("rays", []),
    "no cones": _set("cones", []),
    "rays not a list": _set("rays", {}),
    "cones not a list": _set("cones", None),
    "quoted dimension": _set("dim", "2"),
}
# A phrase of each fault's message, all of which the mutants must reach.
FAULT_WORDS = (
    "ray coordinate: not a decimal integer", "cone ray index: not a decimal",
    "got a boolean", "got float", "got NoneType", "has length",
    "zero vector", "is not primitive", "ray: expected a JSON array",
    "duplicate rays", "rays, expected", "repeats a ray",
    "indexes a missing ray", "cone: expected a JSON array",
    "duplicate maximal cones", "fan needs at least one ray",
    "fan rays: expected", "fan cones: expected")


def base_documents():
    """Every eighth distinct fan document of the seed-1 `recognize` deck."""
    return [json.loads(argv[1])
            for argv in deck_argvs("recognize", (1,))[::8]]


def mutated_documents(placed=None):
    """Each base document under each mutation, then four times under two
    placed faults at random: which error wins is decided by their order.
    `placed`, a list of names of placed faults, keeps only those and the
    mutations that are not placed faults."""
    placed = sorted(PLACED) if placed is None else placed
    alone = [name for name in MUTATIONS
             if name not in PLACED or name in placed]
    rng = random.Random(6034)
    out = []
    for doc in base_documents():
        for names in ([[name] for name in alone]
                      + [rng.sample(placed, 2) for _ in range(4)]):
            mutant = copy.deepcopy(doc)
            for name in names:
                MUTATIONS[name](rng, mutant)
            out.append(mutant)
    return out


def outcome(build, *args):
    """The repr of what an ingest gives: (dim, rays, cones, masks), or the
    exception's type and message."""
    try:
        fan = build(*args)
    except Exception as err:  # the type and the words are what is compared
        return repr((type(err), str(err)))
    if isinstance(fan, GeneralFan):
        fan = (fan.dim, fan.rays, fan.cones, fan._masks)
    return repr(fan)


class TestIngestEquivalence:
    def test_bench_documents(self):
        docs = [json.loads(argv[1]) for argv in deck_argvs("recognize")]
        assert len(docs) > 2000
        for doc in docs:
            assert outcome(fan_from_doc, doc) == outcome(reference_fan_ingest,
                                                         doc)

    def test_mutated_documents(self):
        docs = mutated_documents()
        assert len(docs) == len(base_documents()) * (len(MUTATIONS) + 4)
        outcomes = []
        for doc in docs:
            outcomes.append(outcome(fan_from_doc, doc))
            assert outcomes[-1] == outcome(reference_fan_ingest, doc), doc
        text = "\n".join(outcomes)
        assert [words for words in FAULT_WORDS if words not in text] == []
        assert sum("ValidationError" not in got for got in outcomes) > 100

    @pytest.mark.parametrize("name, words", [
        ("index -len(rays)", "indexes a missing ray"),
        ("index 2^64", "indexes a missing ray"),
        ("repeat at dim >= 3", "repeats a ray")])
    def test_sweep_boundaries_are_named(self, name, words):
        rng = random.Random(6035)
        docs = [doc for doc in base_documents() if doc["dim"] >= 3]
        assert len(docs) > 50
        for doc in docs:
            MUTATIONS[name](rng, doc)
            got = outcome(fan_from_doc, doc)
            assert got == outcome(reference_fan_ingest, doc)
            assert words in got, doc

    def test_library_input(self):
        for doc in base_documents():
            dim, rays, cones = doc["dim"], doc["rays"], doc["cones"]
            values = {dim, *range(len(rays)), *chain.from_iterable(rays)}
            enum = IntEnum("Coordinate", {f"v{i}": v
                                          for i, v in enumerate(values)})
            shapes = [
                lambda: (dim, tuple(map(tuple, rays)),
                         tuple(map(tuple, cones))),
                lambda: (dim, (iter(ray) for ray in rays),
                         (iter(cone) for cone in cones)),
                lambda: (enum(dim), [list(map(enum, ray)) for ray in rays],
                         [tuple(map(enum, cone)) for cone in cones]),
                lambda: (dim, [tuple(ray) + (True,) for ray in rays], cones),
                lambda: (dim, rays, [cone + [0.5] for cone in cones[::-1]]),
                lambda: (dim, rays, [map(str, cone) for cone in cones]),
                lambda: (dim, rays, cones + [cones[-1][::-1]]),
            ]
            for shape in shapes:
                assert (outcome(GeneralFan, *shape())
                        == outcome(reference_general_fan, *shape()))


# Faults that only the constructor names, each put in a scrambled tower's
# document of height k.
REFUSALS = {
    "duplicate cone": lambda doc: doc["cones"].__setitem__(
        -1, doc["cones"][0][::-1]),
    "short ray": lambda doc: doc["rays"][-1].pop(),
    "out-of-range index": lambda doc: doc["cones"][0].__setitem__(
        0, len(doc["rays"])),
}


def refused_document(k, fault):
    doc = fan_to_doc(scrambled_tower(random.Random(k), k, -3, 3))
    REFUSALS[fault](doc)
    return doc


class TestOnePass:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_well_typed_document_runs_no_element_check(self, k, monkeypatch,
                                                       capsys):
        fan = scrambled_tower(random.Random(k), k, -3, 3)
        doc = json.dumps(fan_to_doc(fan))
        reads = []

        def dimension_only(value, what):
            assert what == "fan dimension", what
            reads.append(value)
            return value

        def refuse(x, what):
            raise AssertionError(f"{what} was checked one by one")

        monkeypatch.setattr(SERIALIZE, "parse_int", dimension_only)
        monkeypatch.setattr(FANS, "_check_int", refuse)
        for command in ("classify", "check"):
            assert cli.main([command, doc]) == 0
        assert reads == [k, k]
        assert '"sequence"' in capsys.readouterr().out

    @pytest.mark.parametrize("k", range(2, 9))
    def test_well_typed_document_builds_one_fan(self, k, monkeypatch):
        doc = fan_to_doc(scrambled_tower(random.Random(k), k, -3, 3))
        expected = outcome(reference_fan_ingest, doc)
        reads, built = [], []
        parse, init = SERIALIZE.parse_int, GeneralFan.__init__

        def counted_parse(value, what):
            reads.append(what)
            return parse(value, what)

        def counted_init(self, *args):
            built.append(len(args[1]))
            init(self, *args)

        def refuse(*args):
            raise AssertionError("rays or cones swept outside the constructor")

        monkeypatch.setattr(SERIALIZE, "_int_lists", refuse)
        monkeypatch.setattr(SERIALIZE, "parse_int", counted_parse)
        monkeypatch.setattr(GeneralFan, "__init__", counted_init)
        assert outcome(fan_from_doc, doc) == expected
        # no element is parsed one by one, and the constructor runs once
        assert reads == ["fan dimension"]
        assert built == [2 * k]

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("fault", sorted(REFUSALS))
    def test_refused_plain_int_document_builds_one_fan(self, k, fault,
                                                       monkeypatch):
        doc = refused_document(k, fault)
        expected = outcome(reference_fan_ingest, doc)
        assert "ValidationError" in expected
        reads, built = [], []
        parse, init = SERIALIZE.parse_int, GeneralFan.__init__

        def counted_parse(value, what):
            reads.append(what)
            return parse(value, what)

        def counted_init(self, *args):
            built.append(len(args[1]))
            init(self, *args)

        monkeypatch.setattr(SERIALIZE, "parse_int", counted_parse)
        monkeypatch.setattr(GeneralFan, "__init__", counted_init)
        assert outcome(fan_from_doc, doc) == expected
        # the refusal stands: no element is parsed, no second construction
        assert reads == ["fan dimension"]
        assert built == [2 * k]

    @pytest.mark.parametrize("fault", sorted(REFUSALS))
    def test_quoted_int_keeps_the_refusal(self, fault, capsys):
        plain = refused_document(5, fault)
        quoted = copy.deepcopy(plain)
        quoted["rays"][0][0] = str(quoted["rays"][0][0])
        expected = outcome(reference_fan_ingest, quoted)
        assert expected == outcome(reference_fan_ingest, plain)
        with pytest.raises(ValidationError) as refusal:
            reference_fan_ingest(plain)
        for doc in (plain, quoted):
            assert outcome(fan_from_doc, doc) == expected
            for command in ("check", "classify"):
                assert cli.main([command, json.dumps(doc)]) == 3
                assert capsys.readouterr().err == f"error: {refusal.value}\n"

    def test_masks_build_bits_of_used_rays_alone(self):
        """A table of 1 << r for every ray would hold 25 MB here."""
        import tracemalloc

        rays = [[1, t] for t in range(20000)]
        tracemalloc.start()
        try:
            fan = GeneralFan(2, rays, [[0, 19999]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fan._masks == (1 | 1 << 19999,)
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("key", ["rays", "cones"])
    def test_tuples_are_refused(self, key):
        doc = fan_to_doc(scrambled_tower(random.Random(3), 3, -3, 3))
        for value in (tuple(doc[key]), [tuple(row) for row in doc[key]]):
            bad = {**doc, key: value}
            word = "fan " + key if type(value) is tuple else key[:-1]
            with pytest.raises(ValidationError,
                               match=f"^{word}: expected a JSON array, "
                                     "got tuple$"):
                fan_from_doc(bad)
            assert outcome(fan_from_doc, bad) == outcome(
                reference_fan_ingest, bad)


# sha256 of cli_bytes over pinned_argvs(), computed before the single pass and
# the one-solve witness; the decks are read from bench/jobs.py.
PINNED_DIGEST = ("94d99c67d7c24ee0d00f13b2aba10588"
                 "dac22168275604edc5849b6a7f3c788a")


def pinned_argvs():
    fans = [json.dumps(fan_to_doc(fan)) for fan in
            reject_fans(random.Random(6013))]
    mutants = [json.dumps(doc) for doc in mutated_documents(PINNED_FAULTS)]
    return (deck_argvs("recognize")
            + [(command, doc) for doc in fans + mutants
               for command in ("classify", "check")])


def test_cli_bytes_are_pinned():
    assert cli_digest(pinned_argvs()) == PINNED_DIGEST


# sha256 of cli_bytes over every distinct argv of the workload's deck at
# seeds 1 and 20030601, computed before the list writers and the per-size
# item streams; the decks are read from bench/jobs.py.
DECK_DIGESTS = {
    "ring": ("ed9251eea19fdbe908510ea7b052fe8f"
             "cd5b1f2d54372979722c1e14aba65a7e"),
    "tables": ("c555c4f7ee66d12ae0eb51aa4024fef7"
               "13a5a0576b8dfc473d13fdddfb83f244"),
}


@pytest.mark.parametrize("workload", sorted(DECK_DIGESTS))
def test_deck_bytes_are_pinned(workload):
    assert cli_digest(deck_argvs(workload)) == DECK_DIGESTS[workload]
