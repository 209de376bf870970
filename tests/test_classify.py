"""Classification of crosspolytope fans back into tower data.

Core claims:

1. crosspolytope_check recovers the opposite-ray pairing of any fan built
   from a tower and rejects non-crosspolytope combinatorics with a specific
   reason: odd ray count, no perfect pairing of never-cofaced rays, or a
   cone set that is not the full binary cube over the pairs.
2. find_opposite_pair returns the smallest 1-based pair index whose two rays
   sum to zero, and rejects when no pair does.
3. project quotients out a zero-sum pair: dimension drops by one, the ray
   count by two, and projecting the last pair of a tower fan returns the
   truncated tower fan on the nose.  A 1-dimensional fan has no quotient.
4. classify runs the full pipeline and returns either a sequence with an
   exact witness (unimodular matrix + ray relabeling reproducing the input
   rays and cones), or the reason code of the first failing stage.  The
   witness is self-verified, deterministic, and survives random unimodular
   maps and ray relabelings of tower fans.
5. classify searches for the crosspolytope pairing once per call; chained
   projections along the recovered stage order keep the remaining pairs as
   each quotient's own pairing.
6. classify reads the witness off the stage order without building a fan,
   and agrees field by field with the former recursive peel, kept as an
   oracle in helpers.
"""

from __future__ import annotations

import importlib
import random

import pytest

from bott_towers import (
    ClassificationResult,
    GeneralFan,
    IntegralSequence,
    RejectionError,
    ValidationError,
    build_fan,
    classify,
    crosspolytope_check,
    fans_isomorphic,
    find_opposite_pair,
    project,
)
from helpers import (
    minor_det,
    permute_rays,
    random_sequence,
    random_unimodular,
    reference_classify,
)
from bott_towers.linalg import matvec


def product_fan(k: int) -> GeneralFan:
    return build_fan(IntegralSequence.zero(k), k).as_general_fan()


def hirzebruch_input() -> GeneralFan:
    return GeneralFan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
                      [(0, 1), (1, 2), (2, 3), (0, 3)])


def punctured_square() -> GeneralFan:
    return GeneralFan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                      [(0, 2), (0, 3), (1, 2)])


def projective_plane() -> GeneralFan:
    return GeneralFan(2, [(1, 0), (0, 1), (-1, -1)],
                      [(0, 1), (1, 2), (0, 2)])


# ===================================================================
# 1. Crosspolytope recognition
# ===================================================================

class TestCrosspolytopeCheck:
    def test_tower_fans(self):
        rng = random.Random(6001)
        for k in range(1, 5):
            c = random_sequence(rng, k)
            gf = build_fan(c, k).as_general_fan()
            assert crosspolytope_check(gf) == [(2 * i, 2 * i + 1)
                                               for i in range(k)]

    def test_projective_plane_odd_rays(self):
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(projective_plane())
        assert err.value.code == "ray count odd"
        assert err.value.witness == {"ray_count": 3}

    def test_punctured_square_missing_cone(self):
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(punctured_square())
        assert err.value.code == "cone set not full binary cube"
        assert err.value.witness == {"missing_cone": [1, 3]}

    def test_fully_cofaced_rays_have_no_pairing(self):
        # product of two triangle fans: every ray shares a cone with every
        # other, so the never-cofaced graph has no edges at all
        rays = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
                (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)]
        cones = [(a, b, c, d)
                 for (a, b) in ((0, 1), (1, 2), (0, 2))
                 for (c, d) in ((3, 4), (4, 5), (3, 5))]
        fan = GeneralFan(4, rays, cones)
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(fan)
        assert err.value.code == "no valid pairing"
        assert err.value.witness == {"ray": 0, "non_cofaced_with": []}

    def test_too_many_pairs(self):
        fan = GeneralFan(2,
                         [(1, 0), (-1, 0), (0, 1), (0, -1),
                          (1, 1), (-1, -1), (1, -1), (-1, 1)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(fan)
        assert err.value.code == "cone set not full binary cube"
        assert err.value.witness == {"pairs": 4, "dim": 2}


# ===================================================================
# 2. Opposite pairs
# ===================================================================

class TestFindOppositePair:
    def test_product_fan_picks_first(self):
        assert find_opposite_pair(product_fan(2)) == 1
        assert find_opposite_pair(product_fan(3)) == 1

    def test_tower_fan_skips_nonzero_pairs(self):
        c = IntegralSequence(2, {(1, 2): 2})
        gf = build_fan(c, 2).as_general_fan()
        # pair 1 sums to (1,0) + (-1,2) != 0; pair 2 is +-e_2
        assert find_opposite_pair(gf) == 2

    def test_tower_fans_always_have_one(self):
        rng = random.Random(6002)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            gf = build_fan(c, k).as_general_fan()
            index = find_opposite_pair(gf)
            pairs = crosspolytope_check(gf)
            p, q = pairs[index - 1]
            assert all(a + b == 0 for a, b in zip(gf.rays[p], gf.rays[q]))

    def test_no_zero_sum_pair_rejected(self):
        # smooth but not complete; both pairs sum to nonzero vectors
        fan = GeneralFan(2, [(1, 0), (1, 2), (0, 1), (1, 1)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(RejectionError) as err:
            find_opposite_pair(fan)
        assert err.value.code == "no zero-sum pair"


# ===================================================================
# 3. Projection
# ===================================================================

class TestProject:
    def test_last_pair_of_tower_is_truncation(self):
        rng = random.Random(6003)
        for _ in range(10):
            k = rng.randint(2, 5)
            c = random_sequence(rng, k)
            gf = build_fan(c, k).as_general_fan()
            quotient = project(gf, k)
            assert quotient == build_fan(c.restrict(k - 1), k - 1).as_general_fan()

    def test_other_pairs_give_isomorphic_truncation(self):
        c = IntegralSequence(3, {(1, 2): 1, (1, 3): -2, (2, 3): 2})
        gf = build_fan(IntegralSequence.zero(3), 3).as_general_fan()
        quotient = project(gf, 1)
        assert quotient.dim == 2
        assert len(quotient.rays) == 4
        assert len(quotient.cones) == 4
        assert fans_isomorphic(quotient, product_fan(2)) is not None

    def test_bookkeeping(self):
        gf = product_fan(4)
        quotient = project(gf, 2)
        assert quotient.dim == 3
        assert len(quotient.rays) == len(gf.rays) - 2
        assert len(quotient.cones) == len(gf.cones) // 2

    def test_pair_must_be_zero_sum(self):
        c = IntegralSequence(2, {(1, 2): 2})
        gf = build_fan(c, 2).as_general_fan()
        with pytest.raises(ValidationError):
            project(gf, 1)
        with pytest.raises(ValidationError):
            project(gf, 3)

    def test_colliding_images_rejected(self):
        # both kept rays project onto (1,): the quotient is not a fan
        fan = GeneralFan(2, [(0, 1), (0, -1), (1, 0), (1, 5)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(RejectionError) as err:
            project(fan, 1)
        assert err.value.code == "projection degenerate"

    def test_one_dimensional_fan_has_no_quotient(self):
        line = GeneralFan(1, [(1,), (-1,)], [(0,), (1,)])
        assert crosspolytope_check(line) == [(0, 1)]
        # raised before the pairing is looked at: a lone ray has none
        for fan in (line, GeneralFan(1, [(1,)], [(0,)])):
            with pytest.raises(ValidationError,
                               match="no quotient below dimension 1"):
                project(fan, 1)


# ===================================================================
# 4. Full classification
# ===================================================================

def check_witness(result: ClassificationResult, gf: GeneralFan):
    """Independently verify the success invariant of a classification."""
    assert result.ok
    n = result.sequence.n
    tower = build_fan(result.sequence, n)
    assert sorted(result.ray_map) == list(range(2 * n))
    assert abs(minor_det(result.matrix)) == 1
    for i in range(1, n + 1):
        for gamma in (0, 1):
            image = matvec(result.matrix, tower.generator(i, gamma))
            assert image == gf.rays[result.ray_map[2 * (i - 1) + gamma]]
    mapped = {tuple(sorted(result.ray_map[r] for r in cone))
              for cone in tower.as_general_fan().cones}
    assert mapped == set(gf.cones)


class TestClassify:
    def test_hirzebruch_frozen(self):
        result = classify(hirzebruch_input())
        assert result.ok
        assert result.sequence == IntegralSequence(2, {(1, 2): 2})
        assert result.order == (1, 2)
        assert result.matrix == ((1, 0), (0, 1))
        assert result.ray_map == (0, 2, 1, 3)
        check_witness(result, hirzebruch_input())

    def test_product_fan_frozen(self):
        gf = product_fan(2)
        result = classify(gf)
        assert result.ok
        assert result.sequence == IntegralSequence.zero(2)
        assert result.order == (2, 1)
        assert result.matrix == ((0, 1), (1, 0))
        assert result.ray_map == (2, 3, 0, 1)
        check_witness(result, gf)

    def test_product_fans_recover_zero(self):
        for k in range(1, 5):
            result = classify(product_fan(k))
            assert result.ok
            assert result.sequence == IntegralSequence.zero(k)
            check_witness(result, product_fan(k))

    def test_sheared_product_recovers_zero(self):
        fan = GeneralFan(2, [(1, 0), (-1, 0), (1, 1), (-1, -1)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        result = classify(fan)
        assert result.ok
        assert result.sequence == IntegralSequence.zero(2)
        check_witness(result, fan)

    def test_tower_round_trips(self):
        rng = random.Random(6004)
        for _ in range(25):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            gf = build_fan(c, k).as_general_fan()
            change = random_unimodular(rng, k)
            scrambled = permute_rays(
                rng, GeneralFan(k, [matvec(change, ray) for ray in gf.rays],
                                gf.cones))
            result = classify(scrambled)
            assert result.ok
            check_witness(result, scrambled)

    def test_recovered_fan_isomorphic_to_input(self):
        rng = random.Random(6005)
        for _ in range(5):
            k = rng.randint(1, 4)
            c = random_sequence(rng, k)
            gf = permute_rays(rng, build_fan(c, k).as_general_fan())
            result = classify(gf)
            assert result.ok
            recovered = build_fan(result.sequence, k)
            assert fans_isomorphic(recovered, gf) is not None

    def test_order_matches_pairing(self):
        rng = random.Random(6006)
        for _ in range(10):
            k = rng.randint(1, 5)
            c = random_sequence(rng, k)
            gf = permute_rays(rng, build_fan(c, k).as_general_fan())
            result = classify(gf)
            assert result.ok
            pairs = crosspolytope_check(gf)
            assert sorted(result.order) == list(range(1, k + 1))
            for stage in range(1, k + 1):
                mapped = {result.ray_map[2 * (stage - 1)],
                          result.ray_map[2 * stage - 1]}
                assert mapped == set(pairs[result.order[stage - 1] - 1])

    def test_deterministic(self):
        rng = random.Random(6007)
        c = random_sequence(rng, 4)
        gf = permute_rays(rng, build_fan(c, 4).as_general_fan())
        first = classify(gf)
        second = classify(gf)
        assert first.ok and second.ok
        assert first.sequence == second.sequence
        assert first.order == second.order
        assert first.matrix == second.matrix
        assert first.ray_map == second.ray_map

    def test_rejects_projective_plane(self):
        result = classify(projective_plane())
        assert not result.ok
        assert result.reject == "ray count odd"
        assert result.sequence is None

    def test_rejects_punctured_square(self):
        result = classify(punctured_square())
        assert not result.ok
        assert result.reject == "cone set not full binary cube"

    def test_rejects_non_smooth(self):
        fan = GeneralFan(2, [(1, 0), (-1, 0), (1, 2), (-1, -2)],
                         [(0, 2), (0, 3), (1, 2), (1, 3)])
        result = classify(fan)
        assert not result.ok
        assert result.reject == "not smooth"
        assert result.witness == {"cone": [0, 2], "det": 2}

    def test_rejects_degenerate_cone(self):
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                (1, 1, 0), (-1, -1, 0)]
        cones = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        result = classify(GeneralFan(3, rays, cones))
        assert not result.ok
        assert result.reject == "degenerate cone"

    def test_rejects_incomplete(self):
        fan = GeneralFan(2, [(1, 0), (0, 1), (1, 1), (2, 1)],
                         [(0, 1), (0, 3), (1, 2), (2, 3)])
        result = classify(fan)
        assert not result.ok
        assert result.reject == "not complete"


# ===================================================================
# 5. One pairing per classification
# ===================================================================

CLASSIFY = importlib.import_module("bott_towers.classify")


def scrambled_towers(rng: random.Random, count: int):
    for _ in range(count):
        k = rng.randint(1, 6)
        c = random_sequence(rng, k, -3, 3)
        gf = build_fan(c, k).as_general_fan()
        change = random_unimodular(rng, k)
        yield k, permute_rays(
            rng, GeneralFan(k, [matvec(change, ray) for ray in gf.rays],
                            gf.cones))


class TestPairingPassedDown:
    def test_one_pairing_search_per_classify(self, monkeypatch):
        search = CLASSIFY._crosspolytope_pairing
        calls = []

        def counted(gf):
            calls.append(gf)
            return search(gf)

        monkeypatch.setattr(CLASSIFY, "_crosspolytope_pairing", counted)
        for _, gf in scrambled_towers(random.Random(6008), 15):
            calls.clear()
            assert classify(gf).ok
            assert calls == [gf]

    def test_quotients_along_the_order_keep_the_live_pairs(self):
        # Chained public projections along the recovered stage order, top
        # stage first: each quotient's own pairing is the live pairs,
        # renumbered, which is why the stage order never re-pairs.
        for k, gf in scrambled_towers(random.Random(6009), 15):
            result = classify(gf)
            assert result.ok
            pairs = crosspolytope_check(gf)
            live = list(range(len(pairs)))
            label = list(range(len(gf.rays)))  # quotient ray -> input ray
            fan = gf
            for stage in reversed(result.order[1:]):  # down to dimension 1
                p, q = pairs[stage - 1]
                fan = project(fan, live.index(stage - 1) + 1)
                live.remove(stage - 1)
                label = [r for r in label if r not in (p, q)]
                assert crosspolytope_check(fan) == [
                    (label.index(a), label.index(b))
                    for a, b in (pairs[t] for t in live)]
            assert fan.dim == 1


class TestDirectWitness:
    def test_no_fan_is_built(self, monkeypatch):
        towers = [gf for _, gf in scrambled_towers(random.Random(6010), 10)]
        init = GeneralFan.__init__
        built = []

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneralFan, "__init__", counted)
        for gf in towers:
            assert classify(gf).ok
        assert built == []

    def test_agrees_with_recursive_peel(self):
        rng = random.Random(6011)
        for _ in range(200):
            k = rng.randint(1, 8)
            c = random_sequence(rng, k, -3, 3)
            gf = build_fan(c, k).as_general_fan()
            change = random_unimodular(rng, k)
            scrambled = permute_rays(
                rng, GeneralFan(k, [matvec(change, ray) for ray in gf.rays],
                                gf.cones))
            assert_same_result(classify(scrambled),
                               reference_classify(scrambled))

    @pytest.mark.parametrize("fan", [
        hirzebruch_input(), product_fan(1), product_fan(3),
        projective_plane(), punctured_square(),
        GeneralFan(2, [(1, 0), (-1, 0), (1, 1), (-1, -1)],
                   [(0, 2), (0, 3), (1, 2), (1, 3)]),
        GeneralFan(2, [(1, 0), (-1, 0), (1, 2), (-1, -2)],
                   [(0, 2), (0, 3), (1, 2), (1, 3)]),
        GeneralFan(2, [(1, 0), (0, 1), (1, 1), (2, 1)],
                   [(0, 1), (0, 3), (1, 2), (2, 3)]),
        GeneralFan(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (1, 1, 0), (-1, -1, 0)],
                   [(a, b, c) for a in (0, 1) for b in (2, 3)
                    for c in (4, 5)]),
    ], ids=repr)
    def test_agrees_with_recursive_peel_on_fixed_fans(self, fan):
        assert_same_result(classify(fan), reference_classify(fan))


def assert_same_result(result, reference):
    for field in ClassificationResult.__slots__:
        assert getattr(result, field) == getattr(reference, field), field
