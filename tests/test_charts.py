"""Affine charts: dual generators, chart monomials, transition matrices.

Core claims:

1. index_sets splits an open integer interval by a binary code; prefix_set
   collects the ones strictly before a position.
2. The dual generators pair to the identity against the fan generators of
   the same code (checked exactly for every code), and their matrix is
   unimodular; explicit small tables are frozen.
3. Chart monomials carry the same exponent vectors; the all-zeros code gives
   the standard coordinate chart.  `dual_chart` wraps its checked exponents
   without checking them again; the public constructors still check.
4. Transition matrices glue charts: identity on equal codes, inverse in the
   reversed direction, cocycle under composition, and they transport the
   dual-generator rows.  Read as U(w2) A(w), with no general inverse, they
   equal the former inverse-based product (kept in helpers).
5. The prefix walk behind `bott charts` yields one unsigned row per prefix
   node, 2^k - 1 in all, and the rows of every code, signed per child and
   read in binary order, are its dual generators.
"""

from __future__ import annotations

import random

import pytest

from bott_towers import (
    DualChart,
    IntegralSequence,
    LaurentMonomial,
    ValidationError,
    binary_codes,
    build_fan,
    chart_ring,
    dual_chart,
    dual_generators,
    index_sets,
    linalg,
    prefix_set,
    transition,
)
from bott_towers.charts import _prefix_rows
from bott_towers.sequences import _bott_table
from helpers import (mat_id, mat_mul, minor_det, random_sequence,
                     reference_transition)


# ===================================================================
# 1. Index sets
# ===================================================================

class TestIndexSets:
    def test_all_zero_code(self):
        w = (0, 0, 0, 0)
        assert index_sets(w, 1, 4) == ((), (2, 3))
        assert index_sets(w, 2, 3) == ((), ())
        assert index_sets(w, 1, 2) == ((), ())

    def test_mixed_code(self):
        w = (1, 0, 1, 1)
        assert index_sets(w, 1, 4) == ((3,), (2,))
        assert index_sets(w, 2, 4) == ((3,), ())
        assert index_sets(w, 3, 4) == ((), ())

    def test_prefix_set(self):
        w = (1, 0, 1, 1)
        assert prefix_set(w, 1) == ()
        assert prefix_set(w, 2) == (1,)
        assert prefix_set(w, 4) == (1, 3)
        assert prefix_set((0, 0), 2) == ()

    def test_range_errors(self):
        w = (0, 1, 0)
        with pytest.raises(ValidationError):
            index_sets(w, 2, 2)
        with pytest.raises(ValidationError):
            index_sets(w, 0, 2)
        with pytest.raises(ValidationError):
            index_sets(w, 1, 4)
        with pytest.raises(ValidationError):
            prefix_set(w, 0)
        with pytest.raises(ValidationError):
            prefix_set(w, 4)

    def test_code_validation(self):
        with pytest.raises(ValidationError):
            index_sets((0, 2), 1, 2)
        with pytest.raises(ValidationError):
            prefix_set((True, 0), 1)


# ===================================================================
# 2. Dual generators
# ===================================================================

class TestDualGenerators:
    def test_all_zero_code_gives_standard_basis(self):
        c = IntegralSequence(3, {(1, 2): 4, (1, 3): -2, (2, 3): 6})
        assert dual_generators(c, 3, (0, 0, 0)) == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_all_one_code_trivial_sequence(self):
        c = IntegralSequence(4)
        assert dual_generators(c, 4, (1, 1, 1, 1)) == [
            (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]

    def test_frozen_k2(self):
        c = IntegralSequence(2, {(1, 2): 5})
        assert dual_generators(c, 2, (1, 0)) == [(-1, 0), (5, 1)]

    def test_frozen_k3(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): -3, (2, 3): 5})
        assert dual_generators(c, 3, (1, 1, 0)) == [
            (-1, 0, 0), (-2, -1, 0), (-3, 5, 1)]

    def test_duality_all_codes(self):
        rng = random.Random(4001)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            fan = build_fan(c, k)
            for w in binary_codes(k):
                ups = dual_generators(c, k, w)
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        ray = fan.generator(j, w[j - 1])
                        pairing = sum(a * b for a, b in zip(ups[i - 1], ray))
                        assert pairing == (1 if i == j else 0)

    def test_exponent_matrix_unimodular(self):
        rng = random.Random(4002)
        for _ in range(500):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            w = tuple(rng.randint(0, 1) for _ in range(k))
            matrix = [list(v) for v in dual_generators(c, k, w)]
            assert abs(minor_det(matrix)) == 1

    def test_code_length_must_match_k(self):
        c = IntegralSequence(3)
        with pytest.raises(ValidationError):
            dual_generators(c, 3, (0, 1))
        with pytest.raises(ValidationError):
            dual_generators(c, 4, (0, 1, 0, 1))


# ===================================================================
# 3. Chart monomials
# ===================================================================

class TestChartRing:
    def test_standard_chart(self):
        c = IntegralSequence(3, {(1, 2): 9})
        phi = chart_ring(c, 3, (0, 0, 0))
        assert [m.exps for m in phi] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert all(isinstance(m, LaurentMonomial) for m in phi)

    def test_frozen_k2(self):
        c = IntegralSequence(2, {(1, 2): 5})
        phi = chart_ring(c, 2, (1, 0))
        assert [m.exps for m in phi] == [(-1, 0), (5, 1)]

    def test_monomial_type(self):
        m = LaurentMonomial((2, -1))
        assert m.exps == (2, -1)
        assert m == LaurentMonomial((2, -1))
        assert m != LaurentMonomial((2, 1))
        with pytest.raises(ValidationError):
            LaurentMonomial((1, 0.5))

    def test_dual_chart_bundles_everything(self):
        c = IntegralSequence(2, {(1, 2): 5})
        chart = dual_chart(c, 2, (1, 0))
        assert chart.code == (1, 0)
        assert chart.upsilon == ((-1, 0), (5, 1))
        assert tuple(m.exps for m in chart.phi) == ((-1, 0), (5, 1))
        assert DualChart((1, 0), [[-1, 0], [5, 1]]).upsilon == chart.upsilon

    def test_dual_chart_monomials_follow_generators(self):
        chart = dual_chart(random_sequence(random.Random(4003), 5), 5,
                           (1, 0, 1, 1, 0))
        assert [m.exps for m in chart.phi] == list(chart.upsilon)
        with pytest.raises(ValidationError):
            DualChart((0,), [[0.5]])


class TestPrefixRows:
    """The prefix walk behind `bott charts` against `dual_generators`."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_rows_of_each_code(self, k):
        # each event is one prefix node; its children wait on a stack in
        # the walk's order, w_j = 0 popped first, as chart_texts keeps them
        c = random_sequence(random.Random(4100 + k), k + 1, -3, 3)
        codes, rows, stack = [], [], [((), [])]
        for j, row in _prefix_rows(_bott_table(c, k), k):
            code, prefix = stack.pop()
            children = [(code + (1,), prefix + [tuple(-x for x in row)]),
                        (code + (0,), prefix + [tuple(row)])]
            if j < k:
                stack += children
            else:
                for code, prefix in children[::-1]:
                    codes.append(code)
                    rows.append(prefix)
        assert codes == list(binary_codes(k))
        assert rows == [dual_generators(c, k, w) for w in codes]

    def test_one_row_per_prefix(self):
        c = random_sequence(random.Random(4200), 9, -3, 3)
        rows = _prefix_rows(_bott_table(c, 9), 9)
        assert sum(1 for _ in rows) == 2 ** 9 - 1


# ===================================================================
# 4. Transition matrices
# ===================================================================

class TestTransition:
    def test_same_code_is_identity(self):
        rng = random.Random(4003)
        for _ in range(5):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            w = tuple(rng.randint(0, 1) for _ in range(k))
            assert transition(c, k, w, w) == mat_id(k)

    def test_frozen_k2(self):
        c = IntegralSequence(2, {(1, 2): 5})
        assert transition(c, 2, (0, 0), (1, 0)) == [[-1, 0], [5, 1]]

    def test_reverse_direction_is_inverse(self):
        rng = random.Random(4004)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            w1 = tuple(rng.randint(0, 1) for _ in range(k))
            w2 = tuple(rng.randint(0, 1) for _ in range(k))
            forward = transition(c, k, w1, w2)
            backward = transition(c, k, w2, w1)
            assert mat_mul(forward, backward) == mat_id(k)
            assert mat_mul(backward, forward) == mat_id(k)

    def test_cocycle(self):
        rng = random.Random(4005)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            w1, w2, w3 = (tuple(rng.randint(0, 1) for _ in range(k))
                          for _ in range(3))
            assert transition(c, k, w1, w3) == mat_mul(
                transition(c, k, w2, w3), transition(c, k, w1, w2))

    def test_transports_dual_generators(self):
        rng = random.Random(4006)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            w1 = tuple(rng.randint(0, 1) for _ in range(k))
            w2 = tuple(rng.randint(0, 1) for _ in range(k))
            t = transition(c, k, w1, w2)
            u1 = [list(v) for v in dual_generators(c, k, w1)]
            u2 = [list(v) for v in dual_generators(c, k, w2)]
            assert mat_mul(t, u1) == u2

    def test_matches_the_former_inverse(self, monkeypatch):
        # every code pair up to k = 4, then seeded pairs up to k = 8, on
        # sequences up to two stages taller than the chart
        rng = random.Random(4007)
        cases = []
        for k in range(1, 5):
            c = random_sequence(rng, k + rng.randint(0, 2))
            cases += [(c, k, w1, w2) for w1 in binary_codes(k)
                      for w2 in binary_codes(k)]
        for _ in range(300):
            k = rng.randint(5, 8)
            c = random_sequence(rng, k + rng.randint(0, 2))
            cases.append((c, k, *(tuple(rng.randint(0, 1) for _ in range(k))
                                  for _ in range(2))))
        expected = [reference_transition(*case) for case in cases]

        def refuse(matrix):
            raise AssertionError("a general inverse was built")

        monkeypatch.setattr(linalg, "invert_unimodular", refuse)
        assert [transition(*case) for case in cases] == expected

    def test_code_validation(self):
        c = IntegralSequence(2, {(1, 2): 1})
        with pytest.raises(ValidationError):
            transition(c, 2, (0, 0), (0, 1, 0))
        with pytest.raises(ValidationError):
            transition(c, 2, (0, 3), (0, 1))
