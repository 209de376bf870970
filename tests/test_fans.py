"""Crosspolytope fans of Bott towers and the generic fan checks.

Core claims:

1. build_fan generator tables: a_{i,0} = e_i and a_{i,1} carries row i of the
   Bott matrix from coordinate i on (so -1 at coordinate i, zeros before).
2. Tower fans are smooth (triangular determinant +-1), complete, have 2^k
   maximal cones, and their minimal non-faces are the k opposite pairs.
   On a tower fan, is_smooth, is_complete and crosspolytope_check answer
   from the construction, without expanding the cones, and agree with the
   expanded GeneralFan.
3. is_smooth / is_complete / is_fano behave correctly on hand-built
   non-tower inputs, including the degenerate-cone error path.
4. Hirzebruch-type Fano boundary: c in {-1, 0, 1} exactly.  On a tower
   fan, is_fano decides by the primitive relations (Batyrev), without
   expanding the cones, and agrees with the cone-by-cone Fano test.
5. apply_unimodular and fans_isomorphic: scrambling by GL_n(Z) and ray
   relabeling is undone by the search; non-isomorphic fans return None.
6. is_complete is exact: cone complexes that pass wall pairing, orientation
   and connectivity but cover space twice are rejected, and on scrambled
   tower fans and known rejects it agrees with the known answer and is
   consistent with the former probe check.
7. The ray matching behind the crosspolytope pairing returns the same
   lexicographically first matching as the former recursive search, and
   its depth is not bounded by the recursion limit; pairing costs memory
   linear in the fan, so a 13-dimensional tower fan is paired too.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest

from bott_towers import (
    BottFan,
    GeneralFan,
    IntegralSequence,
    RejectionError,
    ValidationError,
    apply_unimodular,
    binary_codes,
    build_fan,
    crosspolytope_check,
    fans_isomorphic,
    is_complete,
    is_fano,
    is_smooth,
    primitive_collections,
)
from helpers import (
    DOUBLE_WRAP,
    known_answer_fan,
    mat_mul,
    minor_det,
    permute_rays,
    probe_complete,
    product_fan,
    random_sequence,
    random_unimodular,
    reference_bott_matrix,
    reference_match_rays,
)
from bott_towers.classify import crosspolytope_check
from bott_towers import fans as FANS
from bott_towers.fans import _fano_condition, _match_rays, _tower_fano


def masks(partners, count):
    """The bitmask of each ray's partners, as `_match_rays` takes them."""
    return [sum(1 << b for b in partners[r]) for r in range(count)]


def seeded_sequences(seed: int, count: int, height: int, lo: int, hi: int):
    """count random sequences of heights 1..height, entries in [lo, hi]."""
    rng = random.Random(seed)
    return [random_sequence(rng, rng.randint(1, height), lo, hi)
            for _ in range(count)]


def hirzebruch_fan(c: int) -> GeneralFan:
    """The 2-dimensional tower fan with c(1,2) = c, as a generic fan."""
    return build_fan(IntegralSequence(2, {(1, 2): c}), 2).as_general_fan()


# ===================================================================
# 1. Generator tables
# ===================================================================

class TestBuildFan:
    def test_binary_codes_order(self):
        assert list(binary_codes(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_product_of_lines(self):
        fan = build_fan(IntegralSequence.zero(3), 3)
        assert fan.generator(1, 0) == (1, 0, 0)
        assert fan.generator(2, 0) == (0, 1, 0)
        assert fan.generator(3, 0) == (0, 0, 1)
        assert fan.generator(1, 1) == (-1, 0, 0)
        assert fan.generator(2, 1) == (0, -1, 0)
        assert fan.generator(3, 1) == (0, 0, -1)

    def test_hirzebruch_table(self):
        fan = build_fan(IntegralSequence(2, {(1, 2): 3}), 2)
        assert fan.as_general_fan().rays == (
            (1, 0), (-1, 3), (0, 1), (0, -1))

    def test_bounded_flag_table(self):
        fan = build_fan(IntegralSequence.bounded_flag(3), 3)
        assert fan.generator(1, 1) == (-1, -1, -1)
        assert fan.generator(2, 1) == (0, -1, -1)
        assert fan.generator(3, 1) == (0, 0, -1)

    def test_bounded_flag_matches_reversed_convention(self):
        # Reversing coordinates turns a_{i,1} = -e_i-...-e_k into the
        # -e_1-...-e_j staircase; the two presentations are isomorphic fans.
        k = 4
        fan = build_fan(IntegralSequence.bounded_flag(k), k).as_general_fan()
        reversal = [[1 if i + j == k - 1 else 0 for j in range(k)]
                    for i in range(k)]
        reversed_fan = apply_unimodular(fan, reversal)
        staircase = set()
        for j in range(1, k + 1):
            staircase.add(tuple(-1 if t < j else 0 for t in range(k)))
            staircase.add(tuple(1 if t == j - 1 else 0 for t in range(k)))
        assert set(reversed_fan.rays) == staircase
        assert fans_isomorphic(fan, reversed_fan) is not None

    def test_generator_shape_invariant(self):
        rng = random.Random(2001)
        for _ in range(15):
            k = rng.randint(1, 6)
            c = random_sequence(rng, k)
            fan = build_fan(c, k)
            for i in range(1, k + 1):
                g = fan.generator(i, 1)
                assert g[i - 1] == -1
                assert all(x == 0 for x in g[:i - 1])

    def test_cone_count_virtual(self):
        fan = build_fan(IntegralSequence.zero(4), 4)
        gf = fan.as_general_fan()
        assert len(gf.cones) == 16
        assert len(gf.rays) == 8

    def test_cone_code_validated(self):
        fan = build_fan(IntegralSequence.zero(2), 2)
        assert fan.cone((1, 0)) == (1, 2)
        for w in ((0, 5), (2, 0), (-1, 0), (True, 0), (0,), (0, 1, 0)):
            with pytest.raises(ValidationError):
                fan.cone(w)

    def test_k_bounds(self):
        c = IntegralSequence(2)
        with pytest.raises(ValidationError):
            build_fan(c, 3)
        with pytest.raises(ValidationError):
            build_fan(c, 0)


# ===================================================================
# 2. GeneralFan validation
# ===================================================================

class TestGeneralFan:
    def test_non_primitive_ray_rejected(self):
        with pytest.raises(ValidationError):
            GeneralFan(2, [(2, 4), (0, 1)], [(0, 1)])

    def test_zero_ray_rejected(self):
        with pytest.raises(ValidationError):
            GeneralFan(2, [(0, 0), (0, 1)], [(0, 1)])

    def test_duplicate_ray_rejected(self):
        with pytest.raises(ValidationError):
            GeneralFan(2, [(1, 0), (1, 0)], [(0, 1)])

    def test_cone_size_must_match_dim(self):
        with pytest.raises(ValidationError):
            GeneralFan(2, [(1, 0), (0, 1)], [(0,)])

    def test_cone_index_range(self):
        with pytest.raises(ValidationError):
            GeneralFan(2, [(1, 0), (0, 1)], [(0, 2)])

    def test_cones_canonicalized(self):
        a = GeneralFan(2, [(1, 0), (0, 1)], [(1, 0)])
        b = GeneralFan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert a == b


# ===================================================================
# 3. Smoothness, completeness, primitive collections
# ===================================================================

class TestChecks:
    def test_tower_fans_smooth_complete(self):
        rng = random.Random(2002)
        for _ in range(8):
            k = rng.randint(1, 5)
            fan = build_fan(random_sequence(rng, k), k)
            assert is_smooth(fan)
            assert is_complete(fan)

    def test_tower_predicates_against_expanded_fan(self, monkeypatch):
        towers = [build_fan(c, c.n)
                  for c in seeded_sequences(2003, 40, 6, -3, 3)]
        expected = [(is_smooth(gf), is_complete(gf), crosspolytope_check(gf))
                    for gf in (fan.as_general_fan() for fan in towers)]
        built = []
        init = GeneralFan.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneralFan, "__init__", counted)
        for fan, (smooth, complete, pairs) in zip(towers, expected):
            assert (smooth, complete) == (True, True)
            assert pairs == [(2 * i, 2 * i + 1) for i in range(fan.k)]
            assert is_smooth(fan) is smooth
            assert is_complete(fan) is complete
            assert crosspolytope_check(fan) == pairs
        assert built == []

    def test_non_smooth_example(self):
        fan = GeneralFan(2, [(1, 0), (1, 2), (-1, 0), (0, -1)],
                         [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_smooth(fan)

    def test_degenerate_cone_reported(self):
        fan = GeneralFan(2, [(1, 0), (-1, 0), (0, 1)],
                         [(0, 1), (0, 2)])
        with pytest.raises(RejectionError) as err:
            is_smooth(fan)
        assert err.value.code == "degenerate cone"

    def test_half_plane_not_complete(self):
        fan = GeneralFan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert not is_complete(fan)

    def test_punctured_fan_not_complete(self):
        full = hirzebruch_fan(1)
        punctured = GeneralFan(2, full.rays, full.cones[:-1])
        assert not is_complete(punctured)

    def test_overlapping_cover_caught_by_probe(self):
        # Facet counts pair up, but the four cones only cover the first
        # quadrant; at the wall through (1, 0) both cones lie on the same
        # side, which the orientation check catches.
        fan = GeneralFan(2, [(1, 0), (0, 1), (1, 1), (2, 1)],
                         [(0, 1), (0, 3), (2, 1), (2, 3)])
        assert not is_complete(fan)

    def test_dimension_one_complete(self):
        fan = GeneralFan(1, [(1,), (-1,)], [(0,), (1,)])
        assert is_complete(fan) and is_smooth(fan)

    def test_primitive_collections_tower(self):
        fan = build_fan(IntegralSequence(2, {(1, 2): 2}), 2)
        assert primitive_collections(fan) == [(0, 1), (2, 3)]
        fan3 = build_fan(IntegralSequence.zero(3), 3)
        assert primitive_collections(fan3) == [(0, 1), (2, 3), (4, 5)]

    def test_primitive_collections_general_fan(self):
        gf = hirzebruch_fan(2)
        assert primitive_collections(gf) == [(0, 1), (2, 3)]

    def test_primitive_collections_rejects_projective_plane(self):
        plane = GeneralFan(2, [(1, 0), (0, 1), (-1, -1)],
                           [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(RejectionError) as err:
            primitive_collections(plane)
        assert err.value.code == "not crosspolytope combinatorics"


class TestExactCompleteness:
    def test_double_wrap_not_complete(self):
        assert is_smooth(DOUBLE_WRAP)
        assert not is_complete(DOUBLE_WRAP)

    def test_double_wrap_times_line_not_complete(self):
        line = GeneralFan(1, [(1,), (-1,)], [(0,), (1,)])
        fan = product_fan(DOUBLE_WRAP.rays, DOUBLE_WRAP.cones, line)
        assert fan.dim == 3 and len(fan.cones) == 14
        assert not is_complete(fan)

    def test_degenerate_cone_rejected_in_cone_order(self):
        # walls pair up and the wall graph is connected, but the cones
        # (0, 2) and (1, 3) are flat
        fan = GeneralFan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(RejectionError) as err:
            is_complete(fan)
        assert err.value.code == "degenerate cone"
        assert err.value.witness == {"cone": [0, 2]}

    def test_disconnected_complex_rejected_before_degenerate_cone(self):
        # a complete fan plus a separate cycle whose cone (4, 5) is flat
        fan = GeneralFan(2, [(1, 0), (0, 1), (-1, 0), (0, -1),
                             (1, 1), (-1, -1), (1, 2)],
                         [(0, 1), (1, 2), (2, 3), (0, 3),
                          (4, 5), (5, 6), (4, 6)])
        assert is_complete(fan) is False

    def test_agrees_with_known_answers_and_probe_oracle(self):
        rng = random.Random(2003)
        kinds = ("tower", "odd", "missing", "nonsmooth", "incomplete")
        for trial in range(40):
            k = rng.randint(2, 6)
            kind = kinds[trial % len(kinds)]
            fan, expected = known_answer_fan(rng, k, kind)
            exact = is_complete(fan)
            probe = probe_complete(fan, seed=trial)
            assert exact is expected, (kind, k)
            # exact True implies probe True, i.e. probe False implies
            # exact False; sampling allows nothing more
            assert probe or not exact, (kind, k)


# ===================================================================
# 4. Fano boundary
# ===================================================================

class TestFano:
    def test_projective_line_fano(self):
        assert is_fano(build_fan(IntegralSequence(1), 1))

    def test_hirzebruch_sweep(self):
        for c in range(-5, 6):
            expected = c in (-1, 0, 1)
            assert is_fano(hirzebruch_fan(c)) is expected

    def test_product_of_lines_fano(self):
        assert is_fano(build_fan(IntegralSequence.zero(3), 3))

    def test_incomplete_input_rejected(self):
        half = GeneralFan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        with pytest.raises(RejectionError) as err:
            is_fano(half)
        assert err.value.code == "not complete"

    @pytest.mark.parametrize("towers", [
        lambda: [IntegralSequence(2, {(1, 2): v}) for v in range(-5, 6)],
        lambda: [IntegralSequence(3, dict(zip(((1, 2), (1, 3), (2, 3)), v)))
                 for v in product(range(-2, 3), repeat=3)],
        lambda: seeded_sequences(4010, 100, 7, -1, 1),
    ], ids=["height_2", "height_3", "seeded"])
    def test_tower_fano_against_expanded_fan(self, towers):
        for c in towers():
            expected = _fano_condition(build_fan(c, c.n).as_general_fan())
            assert _tower_fano(reference_bott_matrix(c, range(1, c.n + 1))) \
                is expected
            assert is_fano(build_fan(c, c.n)) is expected
            if c.n == 2:
                assert expected is (abs(c.value(1, 2)) <= 1)

    def test_tower_fano_builds_no_general_fan(self, monkeypatch):
        towers = [build_fan(random_sequence(random.Random(4011), k, -1, 1),
                            k) for k in range(1, 11)]
        built = []
        init = GeneralFan.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneralFan, "__init__", counted)
        for fan in towers:
            is_fano(fan)
        assert built == []

    def test_tower_fano_reads_the_fans_bott_matrix(self, monkeypatch):
        # the BottFan holds its Bott matrix: is_fano rebuilds none
        rng = random.Random(4012)
        towers = [build_fan(random_sequence(rng, k, -1, 1), k)
                  for k in range(1, 11)]
        expected = [_fano_condition(fan.as_general_fan()) for fan in towers]

        def refused(*args):
            raise AssertionError("bott_matrix called")

        monkeypatch.setattr(FANS, "bott_matrix", refused)
        monkeypatch.setattr("bott_towers.sequences.bott_matrix", refused)
        assert [is_fano(fan) for fan in towers] == expected


class TestLazyBottMatrix:
    """A BottFan builds its Bott matrix on the first ray read, once."""

    def test_construction_builds_none(self, monkeypatch):
        def refused(*args):
            raise AssertionError("bott_matrix called")

        monkeypatch.setattr(FANS, "bott_matrix", refused)
        fan = build_fan(IntegralSequence(1000), 1000)
        assert (fan.dim, is_smooth(fan), is_complete(fan)) == (1000, True,
                                                               True)

    def test_one_matrix_per_fan(self, monkeypatch):
        calls = []
        build = FANS.bott_matrix

        def counted(c, ids):
            calls.append(c)
            return build(c, ids)

        monkeypatch.setattr(FANS, "bott_matrix", counted)
        c = random_sequence(random.Random(4013), 5, -2, 2)
        fan = build_fan(c, 5)
        assert calls == []
        first = fan.rays()
        assert fan.rays() == first
        assert [fan.generator(i, g) for i in range(1, 6)
                for g in (0, 1)] == list(first)
        is_fano(fan)
        assert calls == [c]
        assert first[1::2] == tuple(map(tuple, reference_bott_matrix(
            c, range(1, 6))))


# ===================================================================
# 5. Unimodular maps and fan isomorphism
# ===================================================================

class TestIsomorphism:
    def test_apply_unimodular_validates(self):
        fan = hirzebruch_fan(1)
        with pytest.raises(ValidationError):
            apply_unimodular(fan, [[2, 0], [0, 1]])
        with pytest.raises(ValidationError):
            apply_unimodular(fan, [[1, 0]])

    def test_apply_unimodular_composes(self):
        rng = random.Random(2003)
        fan = build_fan(random_sequence(rng, 3), 3).as_general_fan()
        m1 = random_unimodular(rng, 3)
        m2 = random_unimodular(rng, 3)
        once = apply_unimodular(apply_unimodular(fan, m1), m2)
        combined = apply_unimodular(fan, mat_mul(m2, m1))
        assert once == combined

    def test_identity_isomorphism(self):
        fan = hirzebruch_fan(3)
        result = fans_isomorphic(fan, fan)
        assert result is not None
        perm, matrix = result
        assert sorted(perm) == list(range(4))

    def test_scrambled_fan_recovered(self):
        rng = random.Random(2004)
        for _ in range(10):
            k = rng.randint(1, 4)
            fan = build_fan(random_sequence(rng, k, -3, 3), k).as_general_fan()
            scrambled = permute_rays(
                rng, apply_unimodular(fan, random_unimodular(rng, k)))
            result = fans_isomorphic(fan, scrambled)
            assert result is not None
            perm, matrix = result
            assert abs(minor_det(matrix)) == 1
            for idx, ray in enumerate(fan.rays):
                image = tuple(sum(matrix[r][t] * ray[t] for t in range(k))
                              for r in range(k))
                assert scrambled.rays[perm[idx]] == image

    def test_opposite_twists_isomorphic(self):
        assert fans_isomorphic(hirzebruch_fan(3), hirzebruch_fan(-3)) is not None

    def test_distinct_twists_not_isomorphic(self):
        assert fans_isomorphic(hirzebruch_fan(0), hirzebruch_fan(1)) is None
        assert fans_isomorphic(hirzebruch_fan(1), hirzebruch_fan(3)) is None

    def test_dimension_cap(self):
        assert FANS.ISOMORPHISM_MAX_DIM == 6
        fan = build_fan(IntegralSequence.zero(7), 7).as_general_fan()
        with pytest.raises(ValidationError) as err:
            fans_isomorphic(fan, fan)
        assert str(err.value) == \
            "isomorphism search capped at dimension 6, got 7"
        # the cap is a module constant, no longer a keyword
        with pytest.raises(TypeError):
            fans_isomorphic(fan, fan, max_dim=7)


# ===================================================================
# 7. Ray matching
# ===================================================================

class TestMatchRays:
    def test_agrees_with_recursive_search(self):
        rng = random.Random(6101)
        outcomes = set()
        for _ in range(400):
            count = rng.randint(1, 10)
            p = rng.choice([0.2, 0.4, 0.7])
            partners = {r: [] for r in range(count)}
            for a in range(count):
                for b in range(a + 1, count):
                    if rng.random() < p:
                        partners[a].append(b)
                        partners[b].append(a)
            for others in partners.values():
                others.sort()
            expected = reference_match_rays(partners, count)
            assert _match_rays(masks(partners, count), count) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_depth_beyond_recursion_limit(self):
        # rays pair with their neighbours up to distance two: the search
        # holds one frame per pair, 2,000 of them
        count = 4000
        partners = {r: [s for s in (r - 2, r - 1, r + 1, r + 2)
                        if 0 <= s < count] for r in range(count)}
        assert _match_rays(masks(partners, count), count) == [
            (r, r + 1) for r in range(0, count, 2)]

    def test_cone_less_fan_memory(self):
        # the 2,100-ray fan with no cones: every two rays may pair, so a
        # pairwise graph would hold 2.2 million edges
        fan = GeneralFan(2, [(1, t) for t in range(2100)], [])
        tracemalloc.start()
        try:
            with pytest.raises(RejectionError) as err:
                crosspolytope_check(fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.witness == {"pairs": 1050, "dim": 2}
        assert peak < 5_000_000

    def test_thirteen_dimensional_tower(self):
        fan = build_fan(IntegralSequence.zero(13), 13).as_general_fan()
        assert primitive_collections(fan) == [(2 * i, 2 * i + 1)
                                              for i in range(13)]
