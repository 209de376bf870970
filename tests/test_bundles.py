"""Quotient presentation, character bundles, support functions, extension.

Core claims:

1. The quotient presentation's kernel generators really span the kernel of
   the ray projection (x_r -> e_r, y_r -> a_{r,1}), and the action weights
   are the transpose of the kernel generator matrix.  Those weights are the
   tangent splitting's 2k characters, and the generators equal the ones a
   separate loop over the stages writes out.
2. Character exponent arithmetic: conjugation negates, the rank-2 splitting
   lambda(k) + lambda(k)-perp matches trivial + lifted xi_{k-1}, and xi_k
   decomposes over the stage bundles lambda(i).  The library's own bundle
   producers do not check their exponents again; the public constructor
   does.
3. The tangent splitting assigns e_j to ray (j,0) and the perp vector to
   ray (j,1); for the bounded-flag tower the perp vector is (0,..,0,-1,1).
4. Support values on the 2k generators determine one exact integer vector
   r(w) per cone, whose code is checked once; the canonical values (0 and
   b(i,k+1), the last column of the Bott matrix of 1..k+1) lift the fan to
   the next tower fan on the nose, and the
   extension rule X_i - r(1..1)_i recovers the stored column.
5. Lifting along values shifted by a global linear functional changes the
   result by the block unimodular matrix with that functional as bottom row.
"""

from __future__ import annotations

import random

import pytest

from bott_towers import (
    CharacterBundle,
    IntegralSequence,
    ValidationError,
    apply_unimodular,
    binary_codes,
    build_fan,
    canonical_lambda,
    extend_sequence,
    hk_support,
    lambda_bundle,
    lambda_perp,
    lift_with_support_function,
    quotient_presentation,
    support_function,
    tangent_splitting,
    xi_bundle,
)
from helpers import (random_sequence, reference_bott_matrix,
                     reference_kernel_generators)


# ===================================================================
# 1. Quotient presentation
# ===================================================================

class TestQuotient:
    def test_frozen_k2(self):
        c = IntegralSequence(2, {(1, 2): 5})
        q = quotient_presentation(c, 2)
        assert q.kernel_generators == ((1, 1, 0, 5), (0, 0, 1, 1))
        assert q.action_weights == ((1, 0), (1, 0), (0, 1), (5, 1))

    def test_kernel_generators_annihilated(self):
        rng = random.Random(3001)
        for _ in range(12):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            fan = build_fan(c, k)
            q = quotient_presentation(c, k)
            # projection columns: x_r -> a_{r,0}, y_r -> a_{r,1}
            columns = []
            for r in range(1, k + 1):
                columns.append(fan.generator(r, 0))
                columns.append(fan.generator(r, 1))
            for gen in q.kernel_generators:
                image = [sum(gen[m] * columns[m][t] for m in range(2 * k))
                         for t in range(k)]
                assert image == [0] * k

    def test_weights_are_generator_transpose(self):
        rng = random.Random(3002)
        for _ in range(8):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            q = quotient_presentation(c, k)
            for m in range(2 * k):
                assert q.action_weights[m] == tuple(
                    q.kernel_generators[r][m] for r in range(k))

    def test_weights_are_the_tangent_splitting(self):
        # zero tower, bounded flag, small twists and twists near +-2^60
        rng = random.Random(3007)
        for n in range(1, 13):
            towers = [IntegralSequence.zero(n), IntegralSequence.bounded_flag(n),
                      random_sequence(rng, n),
                      random_sequence(rng, n, 2 ** 60 - 9, 2 ** 60 + 9),
                      random_sequence(rng, n, -2 ** 60 - 9, -2 ** 60 + 9)]
            for c in towers:
                for k in range(1, n + 1):
                    q = quotient_presentation(c, k)
                    gens = q.kernel_generators
                    assert gens == reference_kernel_generators(c, k)
                    assert q.action_weights == tuple(zip(*gens))
                    assert tuple(b.exps for b in tangent_splitting(c, k)) == (
                        q.action_weights)
                    # the exact sequence behind the quotient: each generator
                    # is a linear relation among the fan's 2k rays
                    rays = build_fan(c, k).rays()
                    for g in gens:
                        assert [sum(x * ray[t] for x, ray in zip(g, rays))
                                for t in range(k)] == [0] * k


# ===================================================================
# 2. Character bundles
# ===================================================================

class TestCharacters:
    def test_xi_and_lambda_frozen(self):
        c = IntegralSequence(2, {(1, 2): 4})
        assert xi_bundle(c, 1).exps == (4,)
        assert canonical_lambda(2).exps == (0, -1)
        assert lambda_perp(c, 2).exps == (4, 1)
        assert lambda_bundle(1, 3).exps == (-1, 0, 0)

    def test_xi_needs_next_stage(self):
        c = IntegralSequence(2, {(1, 2): 4})
        with pytest.raises(ValidationError):
            xi_bundle(c, 2)

    def test_conjugate_negates(self):
        b = CharacterBundle((2, -3, 5))
        assert b.conjugate().exps == (-2, 3, -5)
        assert (b * b.conjugate()).exps == (0, 0, 0)

    def test_tensor_and_power(self):
        a = CharacterBundle((1, 0))
        b = CharacterBundle((2, -1))
        assert (a * b).exps == (3, -1)
        assert (b ** 3).exps == (6, -3)
        assert (b ** 0).exps == (0, 0)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CharacterBundle((1,)) * CharacterBundle((1, 2))

    def test_whitney_splitting(self):
        rng = random.Random(3003)
        for _ in range(20):
            n = rng.randint(2, 8)
            c = random_sequence(rng, n)
            k = rng.randint(2, n)
            left = canonical_lambda(k) * lambda_perp(c, k)
            lifted_xi = tuple(c.value(i, k) for i in range(1, k)) + (0,)
            assert left.exps == lifted_xi

    def test_xi_decomposes_over_stages(self):
        rng = random.Random(3004)
        for _ in range(20):
            n = rng.randint(2, 8)
            c = random_sequence(rng, n)
            k = rng.randint(1, n - 1)
            product = CharacterBundle((0,) * k)
            for i in range(1, k + 1):
                product = product * lambda_bundle(i, k) ** (-c.value(i, k + 1))
            assert product == xi_bundle(c, k)

    def test_tangent_splitting_frozen_k2(self):
        c = IntegralSequence(2, {(1, 2): 7})
        exps = [b.exps for b in tangent_splitting(c, 2)]
        assert exps == [(1, 0), (1, 0), (0, 1), (7, 1)]

    def test_tangent_splitting_layout(self):
        rng = random.Random(3005)
        for _ in range(10):
            k = rng.randint(1, 7)
            c = random_sequence(rng, k)
            bundles = tangent_splitting(c, k)
            assert len(bundles) == 2 * k
            for j in range(1, k + 1):
                assert bundles[2 * (j - 1)] == lambda_bundle(j, k).conjugate()
                expected = tuple(c.value(i, j) if i < j else (1 if i == j else 0)
                                 for i in range(1, k + 1))
                assert bundles[2 * j - 1].exps == expected

    def test_internal_producers_skip_exponent_checks(self, monkeypatch):
        from bott_towers import bundles

        seen = []
        check = bundles._check_int
        monkeypatch.setattr(bundles, "_check_int",
                            lambda x, what: seen.append(what) or check(x, what))
        c = random_sequence(random.Random(3006), 6)
        made = [*tangent_splitting(c, 5), lambda_perp(c, 5), xi_bundle(c, 5),
                canonical_lambda(5), lambda_bundle(2, 5)]
        made += [made[0] * made[1], made[2] ** 3, made[3].conjugate()]
        assert all(isinstance(x, int) for b in made for x in b.exps)
        assert "character exponent" not in seen
        with pytest.raises(ValidationError):
            CharacterBundle((1, 0.5))
        with pytest.raises(ValidationError):
            CharacterBundle(())

    def test_bounded_flag_perp_vector(self):
        for k in range(2, 7):
            c = IntegralSequence.bounded_flag(k)
            assert lambda_perp(c, k).exps == (0,) * (k - 2) + (-1, 1)
            # stage bundle recursion: the twist entering stage k+1 is the
            # dual of the stage-k canonical bundle.
            grown = IntegralSequence.bounded_flag(k + 1)
            assert xi_bundle(grown, k) == canonical_lambda(k)


# ===================================================================
# 3. Support functions
# ===================================================================

def zero_values(k):
    return {(i, g): 0 for i in range(1, k + 1) for g in (0, 1)}


class TestSupportFunction:
    def test_all_zero(self):
        c = IntegralSequence(3, {(1, 2): 2, (2, 3): -1})
        h = support_function(c, 3, zero_values(3))
        for w in binary_codes(3):
            assert h.r(w) == (0, 0, 0)

    def test_hk_frozen_k1(self):
        for cval in (-4, 0, 3):
            c = IntegralSequence(2, {(1, 2): cval})
            h = hk_support(c, 1)
            assert h.value(1, 0) == 0
            assert h.value(1, 1) == cval
            assert h.r((0,)) == (0,)
            assert h.r((1,)) == (-cval,)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_hk_reads_the_bott_matrix_column(self, k):
        rng = random.Random(8100 + k)
        for _ in range(4):
            c = random_sequence(rng, k + 1, -3, 3)
            column = [row[k] for row in reference_bott_matrix(
                c, range(1, k + 2))]
            h = hk_support(c, k)
            assert [h.value(i, 1) for i in range(1, k + 1)] == column[:-1]
            assert [h.value(i, 0) for i in range(1, k + 1)] == [0] * k

    def test_hk_needs_next_column(self):
        c = IntegralSequence(2)
        with pytest.raises(ValidationError):
            hk_support(c, 2)

    def test_values_validation(self):
        c = IntegralSequence(2, {(1, 2): 1})
        values = zero_values(2)
        del values[(2, 1)]
        with pytest.raises(ValidationError):
            support_function(c, 2, values)
        bad = zero_values(2)
        bad[(1, 0)] = 0.5
        with pytest.raises(ValidationError):
            support_function(c, 2, bad)

    def test_solutions_satisfy_defining_equations(self):
        rng = random.Random(3006)
        for _ in range(15):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            values = {(i, g): rng.randint(-9, 9)
                      for i in range(1, k + 1) for g in (0, 1)}
            h = support_function(c, k, values)
            fan = build_fan(c, k)
            for w in binary_codes(k):
                r = h.r(w)
                for i in range(1, k + 1):
                    ray = fan.generator(i, w[i - 1])
                    assert sum(a * b for a, b in zip(r, ray)) == values[(i, w[i - 1])]

    def test_code_validated_before_it_is_read(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): -1, (2, 3): 3})
        values = {(i, g): 3 * i - g for i in range(1, 4) for g in (0, 1)}
        h = support_function(c, 3, values)
        assert h.r(bit for bit in (1, 0, 1)) == h.r((1, 0, 1))
        for bad in [(1, 0), (1, 0, 1, 1), (1, 2, 0), (True, 0, 1)]:
            with pytest.raises(ValidationError):
                h.r(iter(bad))
        with pytest.raises(ValidationError, match=r"^code length 2 != k=3$"):
            h.r([1, 0])

    def test_code_checked_once(self, monkeypatch):
        from bott_towers import bundles, charts

        c = random_sequence(random.Random(3007), 5, -3, 3)
        h = hk_support(c, 4)
        expected = {w: h.r(w) for w in binary_codes(4)}
        seen = []
        check = bundles._check_code
        monkeypatch.setattr(bundles, "_check_code",
                            lambda w, k: seen.append(w) or check(w, k))
        for name in ("_check_code", "_check_sequence"):
            monkeypatch.setattr(charts, name, None)  # not called again
        assert {w: h.r(w) for w in expected} == expected
        assert seen == list(expected)

    def test_pointwise_perturbation_stays_piecewise_linear(self):
        # Values that agree with a global linear functional except at one
        # generator are still valid piecewise data on a simplicial fan; the
        # solver localizes the bump to the cones using that generator.
        c = IntegralSequence(2, {(1, 2): 2})
        values = zero_values(2)
        values[(1, 1)] = 1
        h = support_function(c, 2, values)
        assert h.r((0, 0)) == (0, 0)
        assert h.r((0, 1)) == (0, 0)
        assert h.r((1, 0)) == (-1, 0)
        assert h.r((1, 1)) == (-1, 0)


# ===================================================================
# 4. Lifts and sequence extension
# ===================================================================

class TestLiftAndExtend:
    def test_hk_lift_is_next_tower_fan(self):
        rng = random.Random(3007)
        for _ in range(20):
            n = rng.randint(2, 6)
            c = random_sequence(rng, n)
            k = rng.randint(1, n - 1)
            lifted = lift_with_support_function(
                build_fan(c, k), hk_support(c, k))
            assert lifted == build_fan(c, k + 1).as_general_fan()

    def test_extension_recovers_stored_column(self):
        rng = random.Random(3008)
        for _ in range(20):
            n = rng.randint(2, 7)
            c = random_sequence(rng, n)
            k = rng.randint(1, n - 1)
            column = extend_sequence(c, k, hk_support(c, k))
            assert column == tuple(c.value(i, k + 1) for i in range(1, k + 1))

    def test_extension_frozen_k1(self):
        c = IntegralSequence(2, {(1, 2): -7})
        assert extend_sequence(c, 1, hk_support(c, 1)) == (-7,)

    def test_zero_values_extend_by_zero_column(self):
        # trivial support data grows the tower by a product-with-P1 stage
        rng = random.Random(3011)
        for _ in range(5):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            h = support_function(c, k, zero_values(k))
            assert extend_sequence(c, k, h) == (0,) * k

    def test_extension_invariant_under_global_shift(self):
        # adding <m, .> to all values shifts every r(w) by m and every X_i by
        # m_i, so the extracted column is unchanged
        rng = random.Random(3012)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            fan = build_fan(c, k)
            values = {(i, g): rng.randint(-6, 6)
                      for i in range(1, k + 1) for g in (0, 1)}
            base = support_function(c, k, values)
            shift = [rng.randint(-5, 5) for _ in range(k)]
            shifted_values = {}
            for i in range(1, k + 1):
                for gamma in (0, 1):
                    ray = fan.generator(i, gamma)
                    pairing = sum(s * y for s, y in zip(shift, ray))
                    shifted_values[(i, gamma)] = values[(i, gamma)] + pairing
            shifted = support_function(c, k, shifted_values)
            assert extend_sequence(c, k, shifted) == extend_sequence(c, k, base)

    def test_arbitrary_values_extend_consistently(self):
        # Whatever the support values, the extracted column rebuilds a tower
        # fan that matches the lift after the block shear with bottom row
        # (X_1, ..., X_k, 1).
        rng = random.Random(3009)
        for _ in range(15):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            values = {(i, g): rng.randint(-6, 6)
                      for i in range(1, k + 1) for g in (0, 1)}
            h = support_function(c, k, values)
            column = extend_sequence(c, k, h)
            grown = c.extend(column)
            shear = [[1 if i == j else 0 for j in range(k + 1)]
                     for i in range(k + 1)]
            shear[k] = [values[(i, 0)] for i in range(1, k + 1)] + [1]
            transported = apply_unimodular(
                build_fan(grown, k + 1).as_general_fan(), shear)
            assert transported == lift_with_support_function(build_fan(c, k), h)

    def test_shifted_values_differ_by_shear(self):
        rng = random.Random(3010)
        for _ in range(10):
            n = rng.randint(2, 5)
            c = random_sequence(rng, n)
            k = rng.randint(1, n - 1)
            fan = build_fan(c, k)
            base = hk_support(c, k)
            shift = [rng.randint(-5, 5) for _ in range(k)]
            shifted_values = {}
            for i in range(1, k + 1):
                for gamma in (0, 1):
                    ray = fan.generator(i, gamma)
                    pairing = sum(s * y for s, y in zip(shift, ray))
                    shifted_values[(i, gamma)] = base.value(i, gamma) + pairing
            shifted = support_function(c, k, shifted_values)
            shear = [[1 if i == j else 0 for j in range(k + 1)]
                     for i in range(k + 1)]
            shear[k] = shift + [1]
            assert lift_with_support_function(fan, shifted) == apply_unimodular(
                lift_with_support_function(fan, base), shear)

    def test_mismatched_support_data_rejected(self):
        c1 = IntegralSequence(2, {(1, 2): 1})
        c2 = IntegralSequence(2, {(1, 2): 2})
        h = hk_support(c1, 1)
        with pytest.raises(ValidationError):
            lift_with_support_function(build_fan(c2, 1), h)
