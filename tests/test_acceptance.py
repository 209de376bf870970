"""End-to-end acceptance suite: twelve exact, seeded checks at desk scale.

Each test exercises one advertised guarantee of the package across its
stated input range and prints a single summary line.  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS line per criterion; every comparison is exact integer
arithmetic (no tolerances), and every random draw is seeded.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from itertools import combinations

from bott_towers import (
    CharacterBundle,
    GeneralFan,
    IntegralSequence,
    Poset,
    bott_matrix,
    bott_number,
    bott_number_moebius,
    betti,
    build_fan,
    c_matrix,
    canonical_lambda,
    classify,
    dual_generators,
    euler_characteristic,
    extend_sequence,
    fans_isomorphic,
    hk_support,
    is_complete,
    is_fano,
    is_smooth,
    lambda_bundle,
    lambda_perp,
    lemma_identities,
    lift_with_support_function,
    moebius_matrix,
    poset_to_sequence,
    primitive_collections,
    xi_bundle,
    zeta_matrix,
)
from bott_towers.fans import binary_codes
from helpers import (
    acceptance_08_fans,
    child_env,
    mat_id,
    mat_mul,
    random_poset,
    random_sequence,
)


def _report(number: int, summary: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {number} PASS: {summary}")


def test_01_bott_matrix_is_exact_negated_inverse():
    def body():
        rng = random.Random(9001)
        for _ in range(1000):
            n = rng.randint(1, 10)
            c = random_sequence(rng, n)
            ids = tuple(range(1, n + 1))
            product = mat_mul(
                c_matrix(c, ids),
                [[-x for x in row] for row in bott_matrix(c, ids)])
            assert product == mat_id(n)

    _report(1, "1000 random sequences (n <= 10, entries in [-9,9]): "
               "coefficient matrix times negated Bott matrix is the "
               "identity, exactly", body)


def test_02_chain_sum_oracle_agrees_on_all_index_sets():
    def body():
        rng = random.Random(9002)
        checked = 0
        for _ in range(100):
            c = random_sequence(rng, 8)
            for size in range(2, 9):
                for ids in combinations(range(1, 9), size):
                    assert bott_number(c, ids) == bott_number_moebius(c, ids)
                    checked += 1
        assert checked == 100 * 247

    _report(2, "100 random sequences (n = 8), all 247 index sets of size "
               "2..8: triangular recursion equals the chain-sum formula", body)


def test_03_mixed_code_sums_vanish():
    def body():
        rng = random.Random(9003)
        for _ in range(1000):
            n = rng.randint(2, 10)
            c = random_sequence(rng, n)
            w = tuple(rng.randint(0, 1) for _ in range(n))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert lemma_identities(c, w, i, j) == (0, 0)

    _report(3, "1000 random (sequence, code, i, j) tuples: both mixed-code "
               "summation identities evaluate to exactly zero", body)


def test_04_poset_bridge_matches_moebius_matrices():
    def check(p: Poset):
        c = poset_to_sequence(p)
        ids = tuple(range(1, p.n + 1))
        assert [list(row) for row in c_matrix(c, ids)] == zeta_matrix(p)
        negated = [[-x for x in row] for row in moebius_matrix(p)]
        assert [list(row) for row in bott_matrix(c, ids)] == negated

    def body():
        exhaustive = 0
        for n in range(1, 5):
            pairs = [(i, j) for i in range(1, n)
                     for j in range(i + 1, n + 1)]
            for bits in range(2 ** len(pairs)):
                relation = [pairs[t] for t in range(len(pairs))
                            if bits >> t & 1]
                check(Poset(n, relation))
                exhaustive += 1
        assert exhaustive == 1 + 2 + 8 + 64
        rng = random.Random(9004)
        for _ in range(200):
            check(random_poset(rng, rng.randint(1, 7)))

    _report(4, "all 75 posets with n <= 4 plus 200 random posets (n <= 7): "
               "Bott matrix of the 0/1 sequence is the negated Moebius "
               "matrix and its coefficient matrix is the zeta matrix", body)


def test_05_tower_fans_are_smooth_complete_crosspolytopes():
    def body():
        rng = random.Random(9005)
        sequences = [IntegralSequence.zero(8), IntegralSequence.bounded_flag(8)]
        sequences += [random_sequence(rng, 8) for _ in range(3)]
        for c in sequences:
            for k in range(1, 9):
                gf = build_fan(c, k).as_general_fan()
                assert is_smooth(gf)
                assert is_complete(gf)
                assert len(gf.cones) == 2 ** k
                expected = [(2 * i, 2 * i + 1) for i in range(k)]
                assert primitive_collections(gf) == expected

    _report(5, "zero, bounded-flag, and 3 random sequences, every stage "
               "k <= 8: tower fans are smooth, complete, have 2^k maximal "
               "cones, and their minimal non-faces are the k opposite "
               "pairs", body)


def test_06_chart_generators_are_dual_bases():
    def body():
        rng = random.Random(9006)
        for _ in range(50):
            k = rng.randint(1, 7)
            c = random_sequence(rng, k)
            fan = build_fan(c, k)
            for w in binary_codes(k):
                ups = dual_generators(c, k, w)
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        gen = fan.generator(j, w[j - 1])
                        dot = sum(ups[i - 1][t] * gen[t] for t in range(k))
                        assert dot == (1 if i == j else 0)

    _report(6, "50 random sequences (k <= 7), every binary code: chart "
               "generators pair with the cone's fan generators as an exact "
               "dual basis", body)


def test_07_lift_and_extension_round_trip():
    def body():
        rng = random.Random(9007)
        for _ in range(100):
            c = random_sequence(rng, 8)
            for k in range(1, 8):
                h = hk_support(c, k)
                lifted = lift_with_support_function(build_fan(c, k), h)
                assert lifted == build_fan(c, k + 1).as_general_fan()
                column = tuple(c.value(i, k + 1) for i in range(1, k + 1))
                assert extend_sequence(c, k, h) == column

    _report(7, "100 random sequences (n = 8), every stage k < 8: the "
               "canonical support lift reproduces the next tower fan "
               "table-exactly and the extension rule recovers the stored "
               "column", body)


def test_08_classification_round_trip_and_rejections():
    def body():
        for scrambled in acceptance_08_fans():
            result = classify(scrambled)
            assert result.ok
            recovered = build_fan(result.sequence, scrambled.dim)
            assert fans_isomorphic(recovered, scrambled) is not None
        plane = GeneralFan(2, [(1, 0), (0, 1), (-1, -1)],
                           [(0, 1), (1, 2), (0, 2)])
        assert classify(plane).reject == "ray count odd"
        punctured = GeneralFan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                               [(0, 2), (0, 3), (1, 2)])
        assert classify(punctured).reject == "cone set not full binary cube"

    _report(8, "200 unimodularly scrambled and relabeled tower fans "
               "(k <= 5): classification succeeds and rebuilds an "
               "isomorphic fan; odd-ray and punctured fans are rejected "
               "with the right codes", body)


def test_09_cohomology_ranks_and_euler_characteristic():
    def body():
        rng = random.Random(9009)
        for _ in range(100):
            k = rng.randint(1, 8)
            c = random_sequence(rng, k)
            ranks = betti(c, k)
            assert ranks == [math.comb(k, i) for i in range(k + 1)]
            chi = euler_characteristic(c, k)
            assert chi == sum(ranks) == 2 ** k
            assert chi == len(build_fan(c, k).as_general_fan().cones)
        hirzebruch = IntegralSequence(2, {(1, 2): 2})
        assert euler_characteristic(hirzebruch, 2) == 4

    _report(9, "100 random sequences (k <= 8): Betti numbers are the "
               "binomial row and the integrated top Chern class equals "
               "2^k, the number of maximal cones; height-2 instance gives "
               "4", body)


def test_10_fano_boundary_at_height_two():
    def body():
        for v in range(-5, 6):
            c = IntegralSequence(2, {(1, 2): v})
            assert is_fano(build_fan(c, 2)) is (abs(v) <= 1)

    _report(10, "height-2 towers with twist in [-5,5]: Fano exactly for "
                "twists -1, 0, 1", body)


def test_11_bundle_exponent_identities():
    def body():
        rng = random.Random(9011)
        for _ in range(100):
            n = rng.randint(2, 8)
            c = random_sequence(rng, n)
            k = rng.randint(2, n)
            whitney = canonical_lambda(k) * lambda_perp(c, k)
            lifted = tuple(c.value(i, k) for i in range(1, k)) + (0,)
            assert whitney.exps == lifted
            j = rng.randint(1, n - 1)
            product = CharacterBundle((0,) * j)
            for i in range(1, j + 1):
                product = product * lambda_bundle(i, j) ** (-c.value(i, j + 1))
            assert product == xi_bundle(c, j)
        flag = IntegralSequence.bounded_flag(8)
        for k in range(2, 9):
            assert lambda_perp(flag, k).exps == (0,) * (k - 2) + (-1, 1)

    _report(11, "100 random sequences (n <= 8): the rank-2 splitting and "
                "the stage-bundle decomposition hold at exponent level; "
                "bounded-flag perp data is (0,..,0,-1,1)", body)


def test_12_cli_outputs_are_byte_identical():
    def run(args):
        return subprocess.run([sys.executable, "-m", "bott_towers", *args],
                              capture_output=True, text=True,
                              env=child_env())

    def body():
        seq = '{"n": 2, "entries": [[1, 2, 2]]}'
        fan = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],'
               ' "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
        commands = [("numbers", seq, "--sets"),
                    ("fan", seq),
                    ("check", seq),
                    ("cohomology", seq),
                    ("classify", fan),
                    ("render", fan)]
        for args in commands:
            first = run(args)
            second = run(args)
            assert first.returncode == 0, first.stderr
            assert second.returncode == 0
            assert first.stdout and first.stdout == second.stdout

    _report(12, "numbers, fan, check, cohomology, classify, and render "
                "CLI outputs (JSON and SVG) are byte-identical across "
                "repeated runs", body)
