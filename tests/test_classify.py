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
5. classify searches for the crosspolytope pairing once per call, and
   crosspolytope_check, primitive_collections and project pair a tower fan
   by construction, with no search; chained projections along the
   recovered stage order keep the remaining pairs as each quotient's own
   pairing.
6. classify reads the witness off the stage order without building a fan,
   and agrees field by field with the former recursive peel, kept as an
   oracle in helpers.
7. classify is witness first: on scrambled towers, acceptance test 08's
   fans and rejects of every kind it equals the ordered checks followed by
   the peel, and it accepts towers up to k = 10 without a cone
   determinant.
8. The witness is read in one basis, the pairs' first rays: it equals the
   witness built on the former quotient peel (kept in helpers) on towers
   with scrambled pair order and sides, one-coordinate perturbations and
   random ray sets, and on scrambled towers of height 8 to 24 given by
   their rays alone; a tower fan is classified, checked and paired from
   its 2k rays alone, up to k = 24.  Every witness's sequence has the
   stage matrix B as its Bott matrix, the identity that needs no run-time
   check, and `check` and `classify` build no Bott matrix on an accepted
   fan document and one, its BottFan's, on a sequence document.  A
   sequence document runs no elimination (its first rays are e_1 ... e_k)
   and writes pinned bytes; the zero tower of height 3 keeps the stage
   order [3, 2, 1]; `numbers` at n = 600 and `check` and `classify` at
   n = 1000 finish as subprocesses within seconds.
9. The pairing decides the transversals by count: it gives the same pairs,
   or the same rejection and witness, as the former 2^k walk (kept in
   helpers) on the recognition fan sets and on mutated scrambled towers, the
   former's cone-count rejection is never reached, and an accepted tower
   fan runs no walk.
10. Every rejection shape in src/ (code and constant witness keys) has an
   input that produces it through a public call.
"""

from __future__ import annotations

import ast
import importlib
import json
import random
from pathlib import Path

import pytest

from bott_towers import (
    BottFan,
    ClassificationResult,
    GeneralFan,
    IntegralSequence,
    RejectionError,
    ValidationError,
    bott_matrix,
    build_fan,
    classify,
    classification_to_doc,
    crosspolytope_check,
    fan_to_doc,
    fans_isomorphic,
    find_opposite_pair,
    is_fano,
    is_smooth,
    primitive_collections,
    project,
    sequence_to_doc,
)
from helpers import (
    DEGENERATE_3D,
    INCOMPLETE_2D,
    RECOGNITION_FAN_SETS,
    acceptance_08_fans,
    minor_det,
    permute_rays,
    random_sequence,
    random_unimodular,
    reference_check_doc,
    reference_classify,
    reference_crosspolytope_pairing,
    reference_tower_witness,
    scrambled_tower,
    tower_ladder,
)
from bott_towers.linalg import matvec


FULL_CUBE = "cone set not full binary cube"


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


def colliding_projection() -> GeneralFan:
    # both kept rays project onto (1,): the quotient is not a fan
    return GeneralFan(2, [(0, 1), (0, -1), (1, 0), (1, 5)],
                      [(0, 2), (0, 3), (1, 2), (1, 3)])


def imprimitive_projection() -> GeneralFan:
    # the kept ray (2, 1) projects onto (2,), which is not primitive
    return GeneralFan(2, [(0, 1), (0, -1), (1, 0), (2, 1)],
                      [(0, 2), (0, 3), (1, 2), (1, 3)])


def star_pairing() -> GeneralFan:
    # ray 0 is in no cone and rays 1-3 are the projective plane: only ray 0
    # may pair, with each of the others, so no perfect pairing exists
    return GeneralFan(2, [(1, 1), (1, 0), (0, 1), (-1, -1)],
                      [(1, 2), (2, 3), (1, 3)])


def fully_cofaced() -> GeneralFan:
    # product of two triangle fans: every ray shares a cone with every
    # other, so the never-cofaced graph has no edges at all
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)]
    return GeneralFan(4, rays, [(a, b, c, d)
                                for (a, b) in ((0, 1), (1, 2), (0, 2))
                                for (c, d) in ((3, 4), (4, 5), (3, 5))])


def no_zero_sum_pair() -> GeneralFan:
    # smooth but not complete; both pairs sum to nonzero vectors
    return GeneralFan(2, [(1, 0), (1, 2), (0, 1), (1, 1)],
                      [(0, 2), (0, 3), (1, 2), (1, 3)])


def too_many_pairs() -> GeneralFan:
    return GeneralFan(2, [(1, 0), (-1, 0), (0, 1), (0, -1),
                          (1, 1), (-1, -1), (1, -1), (-1, 1)],
                      [(0, 2), (0, 3), (1, 2), (1, 3)])


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
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(fully_cofaced())
        assert err.value.code == "no valid pairing"
        assert err.value.witness == {"ray": 0, "non_cofaced_with": []}

    def test_too_many_pairs(self):
        with pytest.raises(RejectionError) as err:
            crosspolytope_check(too_many_pairs())
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
        with pytest.raises(RejectionError) as err:
            find_opposite_pair(no_zero_sum_pair())
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
        with pytest.raises(RejectionError) as err:
            project(colliding_projection(), 1)
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
FANS = importlib.import_module("bott_towers.fans")


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
        search = FANS._crosspolytope_pairing
        calls = []

        def counted(gf):
            calls.append(gf)
            return search(gf)

        monkeypatch.setattr(FANS, "_crosspolytope_pairing", counted)
        for _, gf in scrambled_towers(random.Random(6008), 15):
            calls.clear()
            assert classify(gf).ok
            assert calls == [gf]

    def test_a_tower_fan_is_paired_by_construction(self, monkeypatch):
        # One dispatch serves the three pairing readers: a BottFan gets the
        # searched pairing of its expansion, (2i, 2i + 1), without a search.
        rng = random.Random(6010)
        fans = [build_fan(random_sequence(rng, k, -3, 3), k)
                for k in range(1, 9)]
        pairings = [crosspolytope_check(fan.as_general_fan()) for fan in fans]
        quotients = [project(fan.as_general_fan(), fan.k) for fan in fans[1:]]

        def refuse(gf):
            raise AssertionError("a tower fan's pairing was searched")

        for module in (FANS, CLASSIFY):  # also a name classify might import
            monkeypatch.setattr(module, "_crosspolytope_pairing", refuse,
                                raising=False)
        for fan, pairs in zip(fans, pairings):
            assert crosspolytope_check(fan) == pairs
            assert primitive_collections(fan) == pairs
        assert [project(fan, fan.k) for fan in fans[1:]] == quotients

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


# ===================================================================
# 7. Witness first
# ===================================================================


class TestWitnessFirst:
    @pytest.mark.parametrize("name", sorted(RECOGNITION_FAN_SETS))
    def test_agrees_with_ordered_checks(self, name):
        fans = RECOGNITION_FAN_SETS[name]()
        results = [classify(gf) for gf in fans]
        for gf, result in zip(fans, results):
            assert_same_result(result, reference_classify(gf))
        accepted = sum(result.ok for result in results)
        assert accepted == (0 if name == "rejects" else len(fans))

    def test_rejects_of_every_kind(self):
        codes = {classify(gf).reject
                 for gf in RECOGNITION_FAN_SETS["rejects"]()}
        assert codes == {"ray count odd", "cone set not full binary cube",
                         "not smooth", "not complete", "degenerate cone"}

    def test_no_cone_determinant_for_a_tower(self, monkeypatch):
        towers = tower_ladder(6014, 10, 3)
        computed = []

        def refuse(gf):
            computed.append(gf)
            raise AssertionError("a cone determinant was computed")

        monkeypatch.setattr(FANS, "_cone_dets", refuse)
        for gf in towers:
            assert classify(gf).ok
        assert computed == []
        # a reject still reaches the ordered checks, and so the guard
        nonsmooth = GeneralFan(2, [(1, 0), (-1, 0), (1, 2), (-1, -2)],
                               [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(AssertionError):
            classify(nonsmooth)
        assert computed == [nonsmooth]


# ===================================================================
# 8. One basis
# ===================================================================

def swapped_tower(rng: random.Random):
    """A scrambled tower's rays and pairs, the pairs shuffled and each
    turned round with probability 1/2."""
    gf = scrambled_tower(rng, rng.randint(1, 7), -3, 3)
    pairs = [(q, p) if rng.random() < 0.5 else (p, q)
             for p, q in crosspolytope_check(gf)]
    rng.shuffle(pairs)
    return list(gf.rays), pairs


def perturbed_tower(rng: random.Random):
    """A swapped tower with one coordinate of one ray moved by +-1 or +-2."""
    rays, pairs = swapped_tower(rng)
    r = rng.randrange(len(rays))
    ray = list(rays[r])
    ray[rng.randrange(len(ray))] += rng.choice((-2, -1, 1, 2))
    rays[r] = tuple(ray)
    return rays, pairs


def random_rays(rng: random.Random):
    """2k random rays with entries in [-1, 1], paired in a random order."""
    k = rng.randint(1, 4)
    rays = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(2 * k)]
    ids = list(range(2 * k))
    rng.shuffle(ids)
    return rays, [(ids[2 * i], ids[2 * i + 1]) for i in range(k)]


def tall_tower(rng: random.Random):
    """A tower of height 8 to 24 as its 2k rays alone, under a random
    unimodular map and ray permutation, its pairs shuffled and each turned
    round with probability 1/2; no cone is listed."""
    k = rng.randint(8, 24)
    change = random_unimodular(rng, k)
    tower = build_fan(random_sequence(rng, k, -3, 3), k).rays()
    perm = list(range(2 * k))  # perm[old] = new position
    rng.shuffle(perm)
    rays = [None] * (2 * k)
    for old, new in enumerate(perm):
        rays[new] = matvec(change, tower[old])
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(k)]
    pairs = [(q, p) if rng.random() < 0.5 else (p, q) for p, q in pairs]
    rng.shuffle(pairs)
    return rays, pairs


class TestOneBasis:
    @pytest.mark.parametrize("make", [swapped_tower, perturbed_tower,
                                      random_rays, tall_tower],
                             ids=lambda f: f.__name__)
    def test_agrees_with_the_quotient_peel(self, make):
        rng = random.Random(6030)
        cases = 40 if make is tall_tower else 400
        found = 0
        for _ in range(cases):
            rays, pairs = make(rng)
            staged = CLASSIFY._staged(rays, pairs)
            result = staged and CLASSIFY._tower_witness(rays, pairs, *staged)
            assert repr(result) == repr(reference_tower_witness(rays, pairs))
            if result is not None:
                # the identity the witness holds with no run-time check
                order, b = staged
                assert result.order == tuple(t + 1 for t in order)
                assert bott_matrix(result.sequence,
                                   range(1, len(order) + 1)) == b
            found += result is not None
        # each kind has witnesses to compare, and only towers always do
        towers = make in (swapped_tower, tall_tower)
        assert found == cases if towers else 0 < found < cases

    def test_no_completion_is_built(self, monkeypatch):
        def refuse(x):
            raise AssertionError("a unimodular completion was built")

        monkeypatch.setattr(CLASSIFY.linalg, "complete_to_basis", refuse)
        for gf in tower_ladder(6031, 8, 2):
            assert classify(gf).ok

    def test_no_general_inverse_is_built(self, monkeypatch, capsys):
        from bott_towers import cli, sequence_to_doc

        def refuse(matrix):
            raise AssertionError("a general inverse was built")

        rng = random.Random(6033)
        docs = [json.dumps(sequence_to_doc(random_sequence(rng, k, -3, 3)))
                for k in range(1, 25)]
        monkeypatch.setattr(CLASSIFY.linalg, "invert_unimodular", refuse)
        for gf in tower_ladder(6031, 8, 2):
            assert classify(gf).ok
        for doc in docs:
            assert cli.main(["classify", doc]) == 0
            assert '"sequence"' in capsys.readouterr().out

    def test_tower_fan_is_read_from_its_rays(self, monkeypatch, capsys):
        from bott_towers import cli, fan_to_doc, sequence_to_doc

        rng = random.Random(6032)
        towers = [random_sequence(rng, k, -3, 3) for k in range(1, 7)]
        towers += [IntegralSequence.zero(5), random_sequence(rng, 24, -3, 3)]

        def answers(fan, doc):
            assert cli.main(["check", json.dumps(doc)]) == 0
            return (classification_to_doc(classify(fan)),
                    capsys.readouterr().out, find_opposite_pair(fan))

        expanded = [answers(gf, fan_to_doc(gf)) for gf in
                    (build_fan(c, c.n).as_general_fan() for c in towers[:-1])]

        def refuse(self):
            raise AssertionError("the tower fan was expanded")

        monkeypatch.setattr(BottFan, "as_general_fan", refuse)
        read = [answers(build_fan(c, c.n), sequence_to_doc(c))
                for c in towers]
        assert read[:-1] == expanded
        result, check, pair = read[-1]
        fan = build_fan(towers[-1], 24)
        rays = fan.rays()
        assert result["sequence"]["n"] == 24
        assert json.loads(check) == {"smooth": True, "complete": True,
                                     "crosspolytope": True,
                                     "fano": is_fano(fan)}
        assert pair == 1 + next(i for i in range(24) if not any(
            a + b for a, b in zip(rays[2 * i], rays[2 * i + 1])))


class TestOneBottMatrix:
    """bott_matrix calls made through sequences, fans or classify, counted:
    an accepted fan document builds none, a sequence document one, its
    BottFan."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        original = importlib.import_module("bott_towers.sequences").bott_matrix

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in ("sequences", "fans", "classify"):
            monkeypatch.setattr(f"bott_towers.{module}.bott_matrix", counting,
                                raising=False)
        return calls

    def test_an_accepted_fan_builds_none(self, monkeypatch, capsys):
        from bott_towers import cli

        rng = random.Random(6034)
        fans = [scrambled_tower(rng, k, -3, 3) for k in range(1, 11)]
        fans += tower_ladder(6031, 8, 2)
        expected = [(reference_check_doc(gf),
                     classification_to_doc(classify(gf))) for gf in fans]
        calls = self.counted(monkeypatch)
        for gf, answers in zip(fans, expected):
            doc = json.dumps(fan_to_doc(gf))
            for command, answer in zip(("check", "classify"), answers):
                assert cli.main([command, doc]) == 0
                assert json.loads(capsys.readouterr().out) == answer
            assert classify(gf).ok
        assert calls == []

    def test_a_sequence_document_builds_one(self, monkeypatch, capsys):
        from bott_towers import cli

        rng = random.Random(6033)
        docs = [json.dumps(sequence_to_doc(random_sequence(rng, k, -3, 3)))
                for k in range(1, 25)]
        calls = self.counted(monkeypatch)
        for doc in docs:
            for command in ("check", "classify"):
                calls.clear()
                assert cli.main([command, doc]) == 0
                capsys.readouterr()
                assert len(calls) == 1


class TestSequenceDocumentsSolveNothing:
    """A sequence document's first rays are e_1, ..., e_k: its stage matrix
    is its Bott matrix, read with no solve, and the witness inverts it with
    the row kernel."""

    # sha256 of "command\ncode\nstdout" over the documents of `documents`,
    # check then classify, written before the stage matrix solved nothing
    PINNED = "87f8743c9f618ee602fcdd062788ba9dc60ef591da62c939cb075d4d6a100379"

    @staticmethod
    def documents():
        rng = random.Random(6035)
        towers = [random_sequence(rng, k, -3, 3, density=rng.random())
                  for k in range(1, 25)]
        towers += [IntegralSequence.zero(k) for k in range(1, 6)]
        towers.append(IntegralSequence.bounded_flag(6))
        return [json.dumps(sequence_to_doc(c)) for c in towers]

    def test_no_elimination_and_the_same_bytes(self, monkeypatch, capsys):
        import hashlib

        from bott_towers import cli

        def refuse(*args):
            raise AssertionError("an elimination was run")

        monkeypatch.setattr(CLASSIFY.linalg, "_eliminate", refuse)
        digest = hashlib.sha256()
        for doc in self.documents():
            for command in ("check", "classify"):
                code = cli.main([command, doc])
                digest.update(f"{command}\n{code}\n"
                              f"{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.PINNED

    def test_the_zero_tower_keeps_its_stage_order(self, capsys):
        from bott_towers import cli

        assert cli.main(["classify", '{"n": 3}']) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["order"] == [3, 2, 1]
        assert result["sequence"] == {"n": 3, "entries": []}
        assert result["ray_map"] == [4, 5, 2, 3, 0, 1]

    @pytest.mark.parametrize("argv, bound", [
        (["numbers", '{"n":600}'], 2.0),     # about 0.25 s
        (["check", '{"n":1000}'], 5.0),      # about 0.4 s
        (["classify", '{"n":1000}'], 5.0),   # about 0.7 s
    ], ids=["numbers-600", "check-1000", "classify-1000"])
    def test_tall_towers_finish(self, argv, bound):
        import os
        import subprocess
        import sys
        import time

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "bott_towers", *argv],
                              capture_output=True, env=env, timeout=bound)
        assert time.perf_counter() - start < bound
        assert done.returncode == 0, done.stderr
        if argv[0] == "check":
            assert json.loads(done.stdout) == {
                "smooth": True, "complete": True, "fano": True,
                "crosspolytope": True}
        elif argv[0] == "classify":
            result = json.loads(done.stdout)
            assert result["sequence"] == {"n": 1000, "entries": []}
            assert result["order"] == list(range(1000, 0, -1))
            assert result["matrix"] == [[int(r + s == 999)
                                         for s in range(1000)]
                                        for r in range(1000)]


# ===================================================================
# 9. Transversals by count
# ===================================================================

def pairing_outcome(pairing, gf):
    """The pairs, or the (code, witness) of the rejection."""
    try:
        return pairing(gf)
    except RejectionError as err:
        return err.code, err.witness


def fresh_rays(rng: random.Random, rays, count: int):
    """count primitive rays (first coordinate 1) that are not in rays."""
    taken, out = set(rays), []
    while len(out) < count:
        ray = (1,) + tuple(rng.randint(-9, 9) for _ in rays[0][1:])
        if ray not in taken:
            taken.add(ray)
            out.append(ray)
    return out


def mutated_towers(rng: random.Random, per_height: int):
    """Scrambled towers at k = 2..7 with one to three cones deleted, one cone
    swapped for a non-transversal, or one to three cone-less rays added."""
    for k in range(2, 8):
        for _ in range(per_height):
            gf = scrambled_tower(rng, k, -3, 3)
            cones = list(gf.cones)
            for count in (1, 2, 3):
                gone = set(rng.sample(range(len(cones)), count))
                yield GeneralFan(k, gf.rays, [cone for idx, cone in
                                              enumerate(cones)
                                              if idx not in gone])
            partner = {}
            for p, q in crosspolytope_check(gf):
                partner[p], partner[q] = q, p
            idx = rng.randrange(len(cones))
            cone = list(cones[idx])
            a, b = rng.sample(range(k), 2)
            cone[b] = partner[cone[a]]  # holds both rays of one pair
            yield GeneralFan(k, gf.rays, cones[:idx] + [tuple(cone)]
                             + cones[idx + 1:])
            for count in (1, 2, 3):
                yield GeneralFan(k, list(gf.rays)
                                 + fresh_rays(rng, gf.rays, count), cones)


class TestTransversalsByCount:
    def assert_agrees(self, fans):
        shapes = set()
        for gf in fans:
            expected = pairing_outcome(reference_crosspolytope_pairing, gf)
            assert pairing_outcome(CLASSIFY.crosspolytope_check, gf) \
                == expected
            if isinstance(expected, tuple):
                code, witness = expected
                assert "cone_count" not in witness
                shapes.add((code, tuple(sorted(witness))))
        return shapes

    @pytest.mark.parametrize("name", sorted(RECOGNITION_FAN_SETS))
    def test_agrees_with_the_walk_on_recognition_sets(self, name):
        shapes = self.assert_agrees(RECOGNITION_FAN_SETS[name]())
        assert bool(shapes) is (name == "rejects")

    def test_agrees_with_the_walk_on_mutated_towers(self):
        shapes = self.assert_agrees(mutated_towers(random.Random(6040), 4))
        assert {("ray count odd", ("ray_count",)),
                (FULL_CUBE, ("missing_cone",)),
                (FULL_CUBE, ("dim", "pairs"))} <= shapes

    def test_accepted_towers_run_no_walk(self, monkeypatch):
        fans = tower_ladder(6041, 10, 3) + acceptance_08_fans()

        def refuse(*args, **kwargs):
            raise AssertionError("the transversals were walked")

        monkeypatch.setattr(FANS, "product", refuse)
        for gf in fans:
            assert classify(gf).ok
        with pytest.raises(AssertionError):
            crosspolytope_check(punctured_square())


# ===================================================================
# 10. Every rejection shape is reachable
# ===================================================================

SRC = Path(__file__).resolve().parent.parent / "src" / "bott_towers"

# Rejections whose witness is built elsewhere (a report, a spread witness).
DYNAMIC_REJECTIONS = {"not smooth", "not crosspolytope combinatorics"}


def rejection_shapes():
    """(code, sorted constant witness keys) of every RejectionError call in
    src/; () for the no-witness form.  Dynamic witnesses are left out."""
    shapes, dynamic = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "RejectionError"):
                continue
            code = node.args[0]
            assert isinstance(code, ast.Constant), ast.dump(node)
            assert not node.keywords and len(node.args) <= 2, ast.dump(node)
            if len(node.args) == 1:
                shapes.add((code.value, ()))
                continue
            witness = node.args[1]
            if isinstance(witness, ast.Dict) and all(
                    isinstance(key, ast.Constant) for key in witness.keys):
                shapes.add((code.value, tuple(sorted(
                    key.value for key in witness.keys))))
            else:
                dynamic.add(code.value)
    return shapes, dynamic


# An input, through a public call, for each rejection shape in src/.
REJECTION_INPUTS = {
    ("ray count odd", ("ray_count",)):
        lambda: crosspolytope_check(projective_plane()),
    ("no valid pairing", ("non_cofaced_with", "ray")):
        lambda: crosspolytope_check(fully_cofaced()),
    ("no valid pairing", ("non_cofaced_pairs",)):
        lambda: crosspolytope_check(star_pairing()),
    (FULL_CUBE, ("dim", "pairs")):
        lambda: crosspolytope_check(too_many_pairs()),
    (FULL_CUBE, ("missing_cone",)):
        lambda: classify(punctured_square()),
    ("degenerate cone", ("cone",)): lambda: is_smooth(DEGENERATE_3D),
    ("not complete", ()): lambda: classify(GeneralFan(2, *INCOMPLETE_2D)),
    ("no zero-sum pair", ("pair_sums",)):
        lambda: find_opposite_pair(no_zero_sum_pair()),
    ("projection degenerate", ("image", "ray")):
        lambda: project(imprimitive_projection(), 1),
    ("projection degenerate", ("image", "rays")):
        lambda: project(colliding_projection(), 1),
}


def rejection_shape(call):
    """(code, sorted witness keys) of the rejection a call raises or
    returns as a ClassificationResult."""
    try:
        result = call()
    except RejectionError as err:
        code, witness = err.code, err.witness
    else:
        assert isinstance(result, ClassificationResult) and not result.ok
        code, witness = result.reject, result.witness
    return code, tuple(sorted(witness or ()))


class TestRejectionShapes:
    def test_every_shape_in_src_has_an_input(self):
        shapes, dynamic = rejection_shapes()
        assert shapes == set(REJECTION_INPUTS)
        assert dynamic == DYNAMIC_REJECTIONS

    @pytest.mark.parametrize("shape", sorted(REJECTION_INPUTS))
    def test_input_produces_its_shape(self, shape):
        assert rejection_shape(REJECTION_INPUTS[shape]) == shape
