"""Property test of the three Bott-number evaluators on random towers.

For sequences of height n <= 7 with twists in [-5, 5], the flat table
`sequences._bott_table` (one multiply-add per set, by mask),
`bott_matrix` (one suffix pass per column) and `bott_number_moebius`
(the alternating chain sum) agree on every index set, and the Bott matrix
of the full set inverts its coefficient matrix: C(I)·(-B(I)) = Id.
"""

from __future__ import annotations

import pytest

from bott_towers import (IntegralSequence, bott_matrix, bott_number_moebius,
                         c_matrix)
from bott_towers.sequences import _bott_table
from helpers import mat_id, mat_mul

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
def test_table_matrix_and_chain_sum_agree(c):
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
