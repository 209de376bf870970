"""Cohomology ring: presentation, normal form, Betti ranks, Chern classes.

Core claims:

1. The presentation lists one linear form per generator, x_j plus the lower
   twist entries, and the relation ideal is generated by x_j times that form.
2. Normal form rewrites any integer polynomial onto the squarefree monomial
   basis: x_1 squared dies, higher squares rewrite downward, reduction is
   confluent, and multiplication is exact ring arithmetic on that basis.
3. Betti ranks are binomial coefficients and integration reads off the
   coefficient of the full top monomial.
4. The total Chern class is the product of (1 + 2x_j + lower twist terms);
   its top integral equals 2^k, the number of maximal fan cones.
5. Ray classes and character classes translate divisor and line-bundle data
   into the ring consistently with the tangent splitting.
6. The bitmask arithmetic agrees term by term, in order, with the former
   exponent-tuple arithmetic kept in helpers as reference oracles, and the
   public class constructor and coefficient lookup keep their contracts.
7. The total Chern class is one flat table of 2^k coefficients, refused
   above stage 20 before it is built, and listing the terms of a sparse
   class costs its terms, not 2^k; total_chern_class reads each column
   once, its ring taking the twists from the presentation rows.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from bott_towers import (
    CohomologyClass,
    IntegralSequence,
    ValidationError,
    betti,
    build_fan,
    canonical_lambda,
    character_class,
    cohomology_ring,
    euler_characteristic,
    integrate,
    lambda_perp,
    multiply,
    normal_form,
    presentation,
    ray_class,
    tangent_splitting,
    top_chern_class,
    total_chern_class,
)
from bott_towers.cohomology import _chern_presentation, _total_chern_table
from bott_towers.sequences import _MAX_TABLE_STAGE
from helpers import (
    random_sequence,
    reference_multiply,
    reference_reduce,
    reference_terms,
    reference_total_chern_class,
)


def x(ring, *indices):
    """The squarefree monomial with the given 1-based indices."""
    exps = tuple(1 if j in indices else 0 for j in range(1, ring.k + 1))
    return ring.from_polynomial({exps: 1})


# ===================================================================
# 1. Presentation
# ===================================================================

class TestPresentation:
    def test_k1(self):
        c = IntegralSequence(1)
        assert presentation(c, 1).relations == ((1,),)

    def test_k2_frozen(self):
        c = IntegralSequence(2, {(1, 2): 7})
        p = presentation(c, 2)
        assert p.k == 2
        assert p.relations == ((1,), (7, 1))

    def test_bounded_flag_k2(self):
        c = IntegralSequence.bounded_flag(2)
        assert presentation(c, 2).relations == ((1,), (-1, 1))

    def test_shape_invariants(self):
        rng = random.Random(5001)
        for _ in range(10):
            k = rng.randint(1, 7)
            c = random_sequence(rng, k)
            p = presentation(c, k)
            assert len(p.relations) == k
            for j in range(1, k + 1):
                rel = p.relations[j - 1]
                assert len(rel) == j
                assert rel[-1] == 1
                assert rel[:-1] == tuple(c.value(i, j) for i in range(1, j))


# ===================================================================
# 2. Normal form and ring arithmetic
# ===================================================================

class TestNormalForm:
    def test_x1_squared_dies(self):
        c = IntegralSequence(2, {(1, 2): 3})
        assert normal_form(c, 2, {(2, 0): 1}).terms() == ()

    def test_x2_squared_rewrites(self):
        c = IntegralSequence(2, {(1, 2): 3})
        cls = normal_form(c, 2, {(0, 2): 1})
        assert cls.terms() == (((1, 2), -3),)

    def test_x2_cubed_dies(self):
        c = IntegralSequence(2, {(1, 2): 3})
        assert normal_form(c, 2, {(0, 3): 1}).terms() == ()

    def test_squarefree_input_passes_through(self):
        c = IntegralSequence(3, {(1, 2): 2, (2, 3): -5})
        cls = normal_form(c, 3, {(1, 0, 1): 4, (0, 0, 0): -2})
        assert cls.terms() == (((), -2), ((1, 3), 4))
        assert cls.coefficient((1, 3)) == 4
        assert cls.coefficient((2,)) == 0

    def test_association_order_agrees(self):
        rng = random.Random(5002)
        for _ in range(30):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            monos = []
            for _ in range(3):
                exps = tuple(rng.randint(0, 2) for _ in range(k))
                monos.append(ring.from_polynomial({exps: rng.randint(-4, 4)}))
            a, b, d = monos
            assert (a * b) * d == a * (b * d)

    def test_distributivity(self):
        rng = random.Random(5003)
        for _ in range(20):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            classes = []
            for _ in range(3):
                poly = {tuple(rng.randint(0, 2) for _ in range(k)):
                        rng.randint(-4, 4) for _ in range(3)}
                classes.append(ring.from_polynomial(poly))
            a, b, d = classes
            assert (a + b) * d == a * d + b * d

    def test_multiply_by_one(self):
        c = IntegralSequence(3, {(1, 3): 4})
        ring = cohomology_ring(c, 3)
        cls = ring.from_polynomial({(1, 1, 0): 2, (0, 0, 1): -7})
        assert multiply(ring.one(), cls) == cls
        assert cls * ring.one() == cls

    def test_defining_relations_vanish(self):
        rng = random.Random(5004)
        for _ in range(10):
            k = rng.randint(1, 7)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            for j in range(1, k + 1):
                product = ring.ray_class(j, 0) * ring.ray_class(j, 1)
                assert product == ring.zero()

    def test_degree_additivity(self):
        rng = random.Random(5005)
        for _ in range(10):
            k = rng.randint(2, 6)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            i = rng.randint(0, k)
            j = rng.randint(0, k)
            a = sum((rng.randint(-3, 3) * x(ring, *s)
                     for s in _subsets(k, i, rng)), ring.zero())
            b = sum((rng.randint(-3, 3) * x(ring, *s)
                     for s in _subsets(k, j, rng)), ring.zero())
            product = a * b
            assert product.graded_part(i + j) == product

    def test_mismatched_rings_rejected(self):
        c1 = IntegralSequence(2, {(1, 2): 1})
        c2 = IntegralSequence(2, {(1, 2): 2})
        a = cohomology_ring(c1, 2).one()
        b = cohomology_ring(c2, 2).one()
        with pytest.raises(ValidationError):
            multiply(a, b)

    def test_polynomial_validation(self):
        c = IntegralSequence(2, {(1, 2): 1})
        with pytest.raises(ValidationError):
            normal_form(c, 2, {(1,): 1})
        with pytest.raises(ValidationError):
            normal_form(c, 2, {(0, -1): 1})
        with pytest.raises(ValidationError):
            normal_form(c, 2, {(0, 1): 0.5})


def _subsets(k, size, rng):
    """A few random index subsets of the given size."""
    out = []
    for _ in range(3):
        out.append(tuple(sorted(rng.sample(range(1, k + 1), size))))
    return out


# ===================================================================
# 3. Betti numbers and integration
# ===================================================================

class TestBettiIntegrate:
    def test_betti_k3(self):
        c = IntegralSequence(3, {(1, 2): 9, (1, 3): -2})
        assert betti(c, 3) == [1, 3, 3, 1]

    def test_betti_binomials_and_symmetry(self):
        rng = random.Random(5006)
        for _ in range(10):
            k = rng.randint(1, 8)
            c = random_sequence(rng, k)
            ranks = betti(c, k)
            assert ranks == [math.comb(k, i) for i in range(k + 1)]
            assert ranks == ranks[::-1]
            assert sum(ranks) == 2 ** k

    def test_integrate_top_monomial(self):
        c = IntegralSequence(3, {(2, 3): 5})
        ring = cohomology_ring(c, 3)
        assert integrate(x(ring, 1, 2, 3)) == 1
        assert integrate(x(ring, 1, 2)) == 0
        assert integrate(ring.one()) == 0

    def test_integrate_linear(self):
        c = IntegralSequence(2, {(1, 2): 4})
        ring = cohomology_ring(c, 2)
        a = ring.from_polynomial({(1, 1): 3, (1, 0): 2})
        b = ring.from_polynomial({(1, 1): -5, (0, 0): 1})
        assert integrate(a) == 3
        assert integrate(b) == -5
        assert integrate(a + b) == -2


# ===================================================================
# 4. Chern classes and Euler characteristic
# ===================================================================

class TestChern:
    def test_k1(self):
        c = IntegralSequence(1)
        cls = total_chern_class(c, 1)
        assert cls.terms() == (((), 1), ((1,), 2))
        assert euler_characteristic(c, 1) == 2

    def test_k2_frozen(self):
        cval = 6
        c = IntegralSequence(2, {(1, 2): cval})
        cls = total_chern_class(c, 2)
        assert cls.terms() == (
            ((), 1), ((1,), 2 + cval), ((2,), 2), ((1, 2), 4))
        assert top_chern_class(c, 2).terms() == (((1, 2), 4),)
        assert euler_characteristic(c, 2) == 4

    def test_top_part_is_top_chern(self):
        rng = random.Random(5007)
        for _ in range(10):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            assert top_chern_class(c, k) == total_chern_class(c, k).graded_part(k)

    def test_euler_matches_cone_count(self):
        rng = random.Random(5008)
        for _ in range(10):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            cones = len(build_fan(c, k).as_general_fan().cones)
            assert euler_characteristic(c, k) == 2 ** k == cones


# ===================================================================
# 5. Ray and character classes
# ===================================================================

class TestDivisorDictionary:
    def test_ray_classes_frozen(self):
        c = IntegralSequence(2, {(1, 2): 7})
        assert ray_class(c, 2, 1, 0).terms() == (((1,), 1),)
        assert ray_class(c, 2, 2, 0).terms() == (((2,), 1),)
        assert ray_class(c, 2, 2, 1).terms() == (((1,), 7), ((2,), 1))

    def test_character_class_of_taut_bundles(self):
        rng = random.Random(5009)
        for _ in range(10):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            taut = character_class(c, k, canonical_lambda(k).exps)
            assert taut == -x(ring, k)
            perp = character_class(c, k, lambda_perp(c, k).exps)
            assert perp == ring.ray_class(k, 1)

    def test_tangent_sum_is_anticanonical(self):
        rng = random.Random(5010)
        for _ in range(10):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            ring = cohomology_ring(c, k)
            total = [0] * k
            for bundle in tangent_splitting(c, k):
                total = [a + b for a, b in zip(total, bundle.exps)]
            lhs = character_class(c, k, total)
            rhs = ring.zero()
            for j in range(1, k + 1):
                rhs = rhs + ring.ray_class(j, 0) + ring.ray_class(j, 1)
            assert lhs == rhs

    def test_validation(self):
        c = IntegralSequence(2, {(1, 2): 1})
        with pytest.raises(ValidationError):
            ray_class(c, 2, 3, 0)
        with pytest.raises(ValidationError):
            ray_class(c, 2, 1, 2)
        with pytest.raises(ValidationError):
            character_class(c, 2, (1,))


# ===================================================================
# 6. Bitmask arithmetic against the reference oracles
# ===================================================================

# The reference rewrites degrees above k term by term before they vanish,
# which takes seconds from about degree k + 4 on at k = 9; inputs stop at
# degree k + 2.

def _random_class(rng, k, max_size):
    """A {frozenset: coefficient} class on a few random squarefree monomials."""
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(0, min(k, max_size))
        coeffs[frozenset(rng.sample(range(1, k + 1), size))] = rng.randint(-4, 4)
    return {key: value for key, value in coeffs.items() if value}


def _random_exponents(rng, k):
    """Exponents in 0..3 of total degree at most k + 2."""
    vec = [0] * k
    for _ in range(rng.randint(0, k + 2)):
        j = rng.randrange(k)
        vec[j] = min(3, vec[j] + 1)
    return tuple(vec)


class TestAgainstReference:
    def test_total_chern_class(self):
        rng = random.Random(5011)
        for _ in range(12):
            k = rng.randint(1, 9)
            c = random_sequence(rng, k, -3, 3)
            expected = reference_terms(reference_total_chern_class(c, k))
            assert total_chern_class(c, k).terms() == expected

    def test_products(self):
        rng = random.Random(5012)
        for _ in range(40):
            k = rng.randint(1, 9)
            c = random_sequence(rng, k, -3, 3)
            ring = cohomology_ring(c, k)
            size = rng.randint(0, k)
            left = _random_class(rng, k, size)
            right = _random_class(rng, k, k + 2 - size)
            product = CohomologyClass(ring, left) * CohomologyClass(ring, right)
            assert product.terms() == reference_terms(
                reference_multiply(c, k, left, right))

    def test_from_polynomial(self):
        rng = random.Random(5013)
        for _ in range(40):
            k = rng.randint(1, 9)
            c = random_sequence(rng, k, -3, 3)
            poly = {_random_exponents(rng, k): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 5))}
            assert normal_form(c, k, poly).terms() == reference_terms(
                reference_reduce(c, k, poly))

    def test_huge_powers_vanish_at_once(self):
        c = IntegralSequence(3, {(1, 2): 2, (2, 3): -1})
        for poly in ({(0, 0, 10 ** 9): 5}, {(10 ** 9, 1, 0): 1},
                     {(2, 2, 0): 1}):
            assert normal_form(c, 3, poly).is_zero()

    def test_constructor_takes_any_iterable_of_indices(self):
        c = IntegralSequence(3, {(1, 2): 2})
        ring = cohomology_ring(c, 3)
        cls = CohomologyClass(ring, {(1, 3): 4, frozenset({2}): 1, (): 1})
        assert cls.terms() == (((), 1), ((2,), 1), ((1, 3), 4))
        assert cls.coefficient([3, 1]) == 4
        assert cls.coefficient(frozenset({2})) == 1
        with pytest.raises(ValidationError):
            CohomologyClass(ring, {(0, 1): 1})
        with pytest.raises(ValidationError):
            CohomologyClass(ring, {(4,): 1})

    def test_coefficient_outside_range_is_zero(self):
        c = IntegralSequence(3, {(1, 2): 2})
        cls = total_chern_class(c, 3)
        for indices in [(0,), (4,), (1, 4), (-1, 2), (1, 2, 3, 4)]:
            assert cls.coefficient(indices) == 0
        assert cls.coefficient((1, 2, 3)) == 8

    def test_bool_indices_are_not_indices(self):
        ring = cohomology_ring(IntegralSequence(3, {(1, 2): 2}), 3)
        with pytest.raises(ValidationError):
            CohomologyClass(ring, {(True,): 3})
        with pytest.raises(ValidationError):
            CohomologyClass(ring, {(1, True): 3})
        assert ring.gen(1).coefficient((True,)) == 0
        assert ring.gen(1).coefficient((1,)) == 1

    def test_height_13(self):
        rng = random.Random(5014)
        k = 13
        c = random_sequence(rng, k, -3, 3)
        cls = total_chern_class(c, k)
        assert integrate(cls) == 2 ** k
        for i in range(1, k + 1):
            assert cls.coefficient((i,)) == 2 + sum(
                c.value(i, j) for j in range(i + 1, k + 1))
        assert top_chern_class(c, k).terms() == ((tuple(range(1, k + 1)),
                                                  2 ** k),)


# ===================================================================
# 7. The flat Chern table and sparse listings
# ===================================================================

def _best_time(call, repeat=3):
    """(result, least wall seconds) over a few calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, min(times)


class TestFlatTable:
    def test_table_holds_the_class_by_mask(self):
        rng = random.Random(5015)
        for _ in range(12):
            k = rng.randint(1, 10)
            c = random_sequence(rng, k, -3, 3)
            table = _total_chern_table(_chern_presentation(c, k))
            assert len(table) == 2 ** k
            assert table[-1] == 2 ** k
            expected = reference_total_chern_class(c, k)
            assert table == [
                expected.get(frozenset(j + 1 for j in range(k)
                                       if mask >> j & 1), 0)
                for mask in range(2 ** k)]

    def test_twist_free_tower(self):
        # the product of the 1 + 2 x_j: every monomial of size s has 2^s
        table = _total_chern_table(
            _chern_presentation(IntegralSequence(6), 6))
        assert table == [2 ** mask.bit_count() for mask in range(2 ** 6)]

    def test_each_column_is_read_once(self, monkeypatch):
        """The presentation rows are filled by one pass over the stored
        twists, and the ring takes its twists from them:
        `IntegralSequence.column` is never called."""
        c = random_sequence(random.Random(5018), 8, -3, 3)
        ring = cohomology_ring(c, 6)

        def refused(self, j):
            raise AssertionError(f"column {j} read")

        monkeypatch.setattr(IntegralSequence, "column", refused)
        total = total_chern_class(c, 6)
        assert total.ring._twists == ring._twists
        assert (total.ring.sequence, total.ring.k) == (c, 6)
        assert total.terms() == CohomologyClass(ring, {
            frozenset(key): value for key, value in
            reference_total_chern_class(c, 6).items()}).terms()

    def test_stage_cap(self):
        assert _MAX_TABLE_STAGE == 20
        c = IntegralSequence(3000)
        for k in (21, 40, 3000):  # refused before the twist rows are read
            _, seconds = _best_time(lambda: pytest.raises(
                ValidationError, total_chern_class, c, k))
            assert seconds < 0.01
        with pytest.raises(ValidationError, match="stages above 20"):
            _chern_presentation(c, 21)
        assert euler_characteristic(c, 40) == 2 ** 40  # needs no table


class TestSparseTerms:
    def test_generator_at_k40(self):
        ring = cohomology_ring(IntegralSequence(40), 40)
        terms, seconds = _best_time(ring.gen(3).terms)
        assert terms == (((3,), 1),)
        assert seconds < 0.01

    def test_ray_class_at_k40(self):
        c = random_sequence(random.Random(5016), 40, -3, 3)
        terms, seconds = _best_time(ray_class(c, 40, 40, 1).terms)
        assert terms == tuple(((i,), c.value(i, 40)) for i in range(1, 40)
                              if c.value(i, 40)) + (((40,), 1),)
        assert seconds < 0.01

    def test_sparse_product_at_k40(self):
        c = random_sequence(random.Random(5017), 40, -3, 3)
        ring = cohomology_ring(c, 40)
        left = {frozenset((40,)): 1, frozenset((2, 7)): -3}
        right = {frozenset((40,)): 2, frozenset((39,)): 1}
        product = CohomologyClass(ring, left) * CohomologyClass(ring, right)
        terms, seconds = _best_time(product.terms)
        assert terms == reference_terms(reference_multiply(c, 40, left, right))
        assert seconds < 0.01
