"""The Bott-number evaluators, and the chain-sum oracle of `numbers`.

1. Property test on random towers of height n <= 7 with twists in [-5, 5]:
   the flat table `sequences._bott_table` (one multiply-add per set, by
   mask), `bott_matrix` (the row kernel) and
   `bott_number_moebius` (the alternating chain sum) agree on every index
   set, and the Bott matrix of the full set inverts its coefficient matrix:
   C(I)·(-B(I)) = Id.
2. The chain-sum table `sequences._chain_table` (chain products built by
   prefix, one subset-sum transform per pair of endpoints) and
   `bott_number_moebius` equal `helpers.reference_chain_sum`, the former
   per-chain loop, on every index set of seeded towers of height n <= 8:
   dense, sparse and zero twists, and 2,200-digit ones.  The block-halves
   update `sequences._add_halves` behind its subset-sum transform (and
   the total Chern table) equals a per-entry loop on every block size.
3. `numbers --oracle` compares `_chain_table` with `_bott_table` and never
   calls `bott_number_moebius`; a wrong table entry stops it on the first
   wrong set in the order of the `numbers` list.  At n = 16 it takes a
   fraction of the 3 s pin (one call of `bott_number_moebius` per index set
   took about 12 s there), and n = 20 still runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import pytest

from bott_towers import (IntegralSequence, bott_matrix, bott_number_moebius,
                         c_matrix, cli, sequence_to_doc, sequences)
from bott_towers.sequences import _add_halves, _bott_table, _chain_table
from helpers import mat_id, mat_mul, random_sequence, reference_chain_sum


# ===================================================================
# 1. Table, matrix and chain sum on random towers
# ===================================================================

def test_table_matrix_and_chain_sum_agree():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def sequences(draw):
        n = draw(st.integers(1, 7))
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        twists = draw(st.lists(st.integers(-5, 5), min_size=len(pairs),
                               max_size=len(pairs)))
        return IntegralSequence(n, dict(zip(pairs, twists)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(sequences())
    def agree(c):
        n = c.n
        table = _bott_table(c, n)
        full = tuple(range(1, n + 1))
        for mask in range(1, 2 ** n):
            ids = tuple(i for i in full if mask >> (i - 1) & 1)
            matrix = bott_matrix(c, ids)
            # entry (r, s) of B(I) is the Bott number of the run i_r..i_s
            for r in range(len(ids)):
                for s in range(r, len(ids)):
                    run = sum(1 << (i - 1) for i in ids[r:s + 1])
                    assert matrix[r][s] == table[run]
            if len(ids) >= 2:
                assert table[mask] == bott_number_moebius(c, ids)
        negated = [[-x for x in row] for row in bott_matrix(c, full)]
        assert mat_mul(c_matrix(c, full), negated) == mat_id(n)

    agree()


# ===================================================================
# 2. The chain-sum table against the per-chain loop
# ===================================================================

def _huge_twists(seed: int, n: int) -> IntegralSequence:
    rng = random.Random(seed)
    return IntegralSequence(n, {
        (i, j): rng.choice((-1, 1)) * rng.randrange(10 ** 2199, 10 ** 2200)
        for j in range(2, n + 1) for i in range(1, j) if rng.random() < 0.8})


CHAIN_TOWERS = (
    [pytest.param(random_sequence(random.Random(7100 + n), n, -3, 3),
                  id=f"dense-n{n}") for n in range(1, 9)]
    + [pytest.param(random_sequence(random.Random(7200 + n), n, -5, 5,
                                    density=0.3), id=f"sparse-n{n}")
       for n in range(2, 9)]
    + [pytest.param(IntegralSequence.zero(n), id=f"zero-n{n}")
       for n in (1, 2, 5, 8)]
    + [pytest.param(_huge_twists(7300, 7), id="2200-digit-n7")])


@pytest.mark.parametrize("c", CHAIN_TOWERS)
def test_chain_table_equals_the_per_chain_loop(c):
    n = c.n
    chains = _chain_table(c, n)
    assert len(chains) == 2 ** n
    full = tuple(range(1, n + 1))
    for mask in range(2 ** n):
        ids = tuple(i for i in full if mask >> (i - 1) & 1)
        if len(ids) < 2:
            assert chains[mask] == 0
            continue
        expected = reference_chain_sum(c, ids)
        assert chains[mask] == expected
        assert bott_number_moebius(c, ids) == expected


def test_chain_table_is_refused_above_the_cap():
    from bott_towers import ValidationError

    with pytest.raises(ValidationError, match="stages above 20"):
        _chain_table(IntegralSequence(21), 21)


def _scales(kind: str, rng: random.Random, blocks: int) -> list:
    if kind == "unit":
        return [1] * blocks
    if kind == "zero":
        return [0] * blocks
    if kind == "mixed":
        return [rng.choice((0, 1, 1, -1, 7)) for _ in range(blocks)]
    return [rng.randint(-9, 9) for _ in range(blocks)]


@pytest.mark.parametrize("bits", range(1, 11))
@pytest.mark.parametrize("kind", ["random", "unit", "mixed", "zero"])
def test_add_halves_equals_a_per_entry_loop(bits, kind):
    rng = random.Random(f"{kind}-{bits}")
    size = 1 << bits
    for half in (1 << t for t in range(bits)):
        step = 2 * half
        scales = _scales(kind, rng, size // step)
        src = [rng.randint(-99, 99) for _ in range(size)]
        out = [rng.randint(-99, 99) for _ in range(size)]
        for target in (out, src):  # apart, and in place
            expected = list(target)
            for lo, scale in zip(range(0, size, step), scales):
                for r in range(half):
                    expected[lo + half + r] += scale * src[lo + r]
            kept = list(src)
            _add_halves(target, src, half, scales)
            assert target == expected
            assert target is src or src == kept


# ===================================================================
# 3. numbers --oracle
# ===================================================================

def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _seeded_doc(n: int, seed: int = 1) -> str:
    return json.dumps(sequence_to_doc(
        random_sequence(random.Random(seed), n, -3, 3)))


def test_oracle_never_calls_the_point_chain_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("bott_number_moebius called")

    monkeypatch.setattr(sequences, "bott_number_moebius", refuse)
    for n in (1, 2, 6, 9):
        code, out, _ = _run(["numbers", _seeded_doc(n), "--sets",
                             "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle"] == {"checked": 2 ** n - 1 - n,
                                             "match": True}


@pytest.mark.parametrize("wrong, first", [
    ([(1, 2, 3)], (1, 2, 3)),
    ([(1, 2, 3), (3, 4)], (3, 4)),  # by size first, though 7 < 12
    ([(2, 3), (1, 4)], (1, 4)),  # then lex, though 6 < 9
    ([(1, 2, 3, 4, 5), (2, 5)], (2, 5)),
])
def test_a_wrong_table_entry_names_the_first_wrong_set(monkeypatch, capsys,
                                                        wrong, first):
    build = sequences._bott_table

    def corrupted(c, n):
        table = build(c, n)
        for ids in wrong:
            table[sum(1 << (i - 1) for i in ids)] += 1
        return table

    monkeypatch.setattr(sequences, "_bott_table", corrupted)
    with pytest.raises(RuntimeError) as raised:
        cli.main(["numbers", _seeded_doc(5), "--sets", "--oracle"])
    assert str(raised.value) == f"oracle mismatch on index set {first}"
    assert capsys.readouterr().out == ""


def test_oracle_at_n16_is_cheap():
    doc = _seeded_doc(16)
    start = time.perf_counter()
    code, out, _ = _run(["numbers", doc, "--oracle"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["oracle"] == {"checked": 2 ** 16 - 17,
                                         "match": True}
    assert elapsed < 3.0


def test_oracle_runs_at_the_cap_and_is_refused_above_it():
    code, out, _ = _run(["numbers", _seeded_doc(20), "--oracle"])
    assert code == 0
    assert json.loads(out)["oracle"] == {"checked": 2 ** 20 - 21,
                                         "match": True}
    code, out, err = _run(["numbers", '{"n": 21}', "--oracle"])
    assert (code, out) == (3, "")
    assert err == ("error: the Bott number table at stage k=21 has 2^21 "
                   "entries; stages above 20 are refused\n")
