"""Bott matrices, Bott numbers, the interior-chain oracle, and posets.

Core claims exercised here:

1. B(I), read off the row kernel, inverts C(I) exactly: C(I)·(-B(I)) = Id,
   -B(I) agrees entry-by-entry with a Fraction Gauss-Jordan inverse, and
   B(I) equals the triangular recursion's matrix on sparse and dense towers
   up to k = 40 and on sets that are not prefixes; bott_number and
   hk_support are its entries, all three call the one kernel, and a tall
   sparse tower (k = 1,500) is fast.
2. bott_number over an index set depends only on the entries c(i,j) with both
   indices in the set (sub-tower locality).
3. bott_number_moebius (alternating sum over chains through the interior of I)
   and bott_number (the row kernel on one column, no recursion limit, no
   Bott matrix, nothing kept on the sequence) agree with the matrix route, and
   the flat 2^n table `_bott_table` agrees with the former memoised
   recursion (`helpers.reference_bott_number`) and the chain sum on every
   mask, and is refused above stage 20 before anything is allocated.
4. The two mixed-code identities evaluate to zero for every (c, w, i, j).
5. Posets with the identity labeling as linear extension bridge to sequences:
   B(n) = -M(P) with M the Moebius matrix of P.  The one-pass closure gives
   the pairs of the former fixed-point loop (kept in helpers).
6. Every "integer in lo..hi" check goes through one routine: each call site
   rejects lo - 1, hi + 1, True and 1.0, and accepts its bounds.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bott_towers import (
    GeneralFan,
    IntegralSequence,
    Poset,
    ValidationError,
    binary_codes,
    bott_matrix,
    bott_number,
    bott_number_moebius,
    build_fan,
    c_matrix,
    canonical_lambda,
    cohomology_ring,
    dual_generators,
    hk_support,
    index_sets,
    lambda_bundle,
    lemma_identities,
    moebius_matrix,
    poset_to_sequence,
    prefix_set,
    project,
    xi_bundle,
    zeta_matrix,
)
from bott_towers import sequences
from helpers import (fraction_inverse, mat_mul, mat_id, random_poset,
                     random_sequence, reference_bott_matrix,
                     reference_bott_number, reference_poset_closure)


# ===================================================================
# 1. IntegralSequence basics and validation
# ===================================================================

class TestIntegralSequence:
    def test_column_reads_the_stored_entries(self):
        rng = random.Random(1101)
        for _ in range(10):
            n = rng.randint(1, 7)
            c = random_sequence(rng, n, -3, 3, density=0.6)
            for j in range(1, n + 1):
                assert c.column(j) == tuple(c.value(i, j) for i in range(1, j))
        for bad in (0, 8, True, 1.0):
            with pytest.raises(ValidationError):
                IntegralSequence(7).column(bad)

    def test_loops_over_entries_read_columns(self, monkeypatch):
        from bott_towers import (build_fan, lambda_perp, presentation,
                                 quotient_presentation, tangent_splitting,
                                 total_chern_class, xi_bundle)

        c = random_sequence(random.Random(1102), 6, -3, 3)

        def refuse(self, i, j):
            raise AssertionError("value() called inside a loop")

        monkeypatch.setattr(IntegralSequence, "value", refuse)
        for run in (lambda: bott_matrix(c, range(1, 7)),
                    lambda: c_matrix(c, (1, 3, 4, 6)),
                    lambda: build_fan(c, 6),
                    lambda: presentation(c, 6),
                    lambda: quotient_presentation(c, 6),
                    lambda: tangent_splitting(c, 6),
                    lambda: lambda_perp(c, 6),
                    lambda: xi_bundle(c, 5),
                    lambda: total_chern_class(c, 6)):
            run()

    def test_check_stage(self):
        c = IntegralSequence(3)
        assert [c.check_stage(k) for k in (1, 2, 3)] == [1, 2, 3]
        with pytest.raises(ValidationError, match=r"^k=4 outside 1\.\.3$"):
            c.check_stage(4)
        with pytest.raises(ValidationError, match="k must be an integer"):
            c.check_stage("2")

    def test_diagonal_is_one(self):
        c = IntegralSequence(3, {(1, 2): 5})
        assert c.value(1, 1) == 1
        assert c.value(2, 2) == 1
        assert c.value(3, 3) == 1

    def test_missing_entries_are_zero(self):
        c = IntegralSequence(3, {(1, 2): 5})
        assert c.value(1, 2) == 5
        assert c.value(1, 3) == 0
        assert c.value(2, 3) == 0

    def test_lower_triangle_access_rejected(self):
        c = IntegralSequence(3, {(1, 2): 5})
        with pytest.raises(ValidationError):
            c.value(2, 1)

    def test_out_of_range_access_rejected(self):
        c = IntegralSequence(2)
        with pytest.raises(ValidationError):
            c.value(0, 1)
        with pytest.raises(ValidationError):
            c.value(1, 3)

    def test_bad_entry_keys_rejected(self):
        with pytest.raises(ValidationError):
            IntegralSequence(3, {(2, 2): 1})
        with pytest.raises(ValidationError):
            IntegralSequence(3, {(3, 1): 1})
        with pytest.raises(ValidationError):
            IntegralSequence(3, {(1, 4): 1})
        with pytest.raises(ValidationError):
            IntegralSequence(3, {(0, 2): 1})

    FAULTS = [  # (entries, the message of the first fault in key order)
        ({(1, 2): 1, (0, 3): 0}, "entry key (0,3) outside 1 <= i < j <= 3"),
        ({(1, 3): 1, (2, 2): 1}, "entry key (2,2) outside 1 <= i < j <= 3"),
        ({(1, 2): True, (1, 4): 1}, "entry c(1,2) must be an integer, got "
                                    "True"),
        ({(1, 4): 1, (1, 2): True}, "entry key (1,4) outside 1 <= i < j <= 3"),
        ({(1, 2, 3): 1}, "bad entry key (1, 2, 3)"),
        ({(1, 2.0): 1}, "index j must be an integer, got 2.0"),
        ({(1, 2): 1, 3: 1}, "bad entry key 3"),
    ]

    @pytest.mark.parametrize("entries, message", FAULTS,
                             ids=range(len(FAULTS)))
    def test_first_fault_is_named(self, entries, message):
        with pytest.raises(ValidationError) as err:
            IntegralSequence(3, entries)
        assert str(err.value) == message

    def test_int_subclasses_are_read_as_ints(self):
        from enum import IntEnum

        value = IntEnum("Value", {"one": 1, "two": 2, "three": 3})
        c = IntegralSequence(3, {(value.one, value.two): value.three,
                                 (1, 3): 0})
        assert c == IntegralSequence(3, {(1, 2): 3})

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            IntegralSequence(3, {(1, 2): 1.5})
        with pytest.raises(ValidationError):
            IntegralSequence(0)

    def test_zero_entries_normalized_away(self):
        a = IntegralSequence(3, {(1, 2): 0, (1, 3): 7})
        b = IntegralSequence(3, {(1, 3): 7})
        assert a == b
        assert hash(a) == hash(b)
        assert a.entries() == ((1, 3, 7),)

    def test_restrict_and_extend(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): 3, (2, 3): 4})
        assert c.restrict(2) == IntegralSequence(2, {(1, 2): 2})
        grown = IntegralSequence(2, {(1, 2): 2}).extend((3, 4))
        assert grown == c

    def test_builtin_sequences(self):
        assert IntegralSequence.zero(3).entries() == ()
        bf = IntegralSequence.bounded_flag(4)
        assert bf.entries() == ((1, 2, -1), (2, 3, -1), (3, 4, -1))


# ===================================================================
# 2. Frozen Bott matrices (hand-derived values)
# ===================================================================

class TestBottMatrixFrozen:
    def test_two_by_two(self):
        # C = [[1, c], [0, 1]]  =>  B = [[-1, c], [0, -1]]
        for cval in (-7, -1, 0, 1, 4):
            c = IntegralSequence(2, {(1, 2): cval})
            assert bott_matrix(c, (1, 2)) == [[-1, cval], [0, -1]]

    def test_zero_sequence_is_negative_identity(self):
        c = IntegralSequence.zero(5)
        b = bott_matrix(c, range(1, 6))
        assert b == [[-1 if i == j else 0 for j in range(5)] for i in range(5)]

    def test_bounded_flag_all_minus_one(self):
        # c(j-1,j) = -1 makes every entry of B on/above the diagonal -1:
        # b(i,j) = -c(i,i+1) b(i+1,j) = b(i+1,j) telescopes down to b(j,j) = -1.
        c = IntegralSequence.bounded_flag(4)
        b = bott_matrix(c, (1, 2, 3, 4))
        assert b == [[-1 if j >= i else 0 for j in range(4)] for i in range(4)]

    def test_all_ones_chain_superdiagonal(self):
        # c(i,j) = 1 everywhere: b(j-1,j) = 1 and b(i,j) = 0 for j-i >= 2.
        c = IntegralSequence(4, {(i, j): 1 for i in range(1, 4)
                                 for j in range(i + 1, 5)})
        b = bott_matrix(c, (1, 2, 3, 4))
        expected = [[0] * 4 for _ in range(4)]
        for i in range(4):
            expected[i][i] = -1
            if i + 1 < 4:
                expected[i][i + 1] = 1
        assert b == expected

    def test_three_by_three_top_right(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): 5, (2, 3): 3})
        b = bott_matrix(c, (1, 2, 3))
        # b(1,3) = c(1,3) - c(1,2) c(2,3) = 5 - 6 = -1
        assert b[0][2] == -1
        assert b == [[-1, 2, -1], [0, -1, 3], [0, 0, -1]]

    def test_subset_skips_middle_index(self):
        # I = {1,3} ignores c(1,2) and c(2,3) entirely.
        c = IntegralSequence(3, {(1, 2): 9, (1, 3): 4, (2, 3): 9})
        assert c_matrix(c, (1, 3)) == [[1, 4], [0, 1]]
        assert bott_matrix(c, (1, 3)) == [[-1, 4], [0, -1]]
        assert bott_number(c, (1, 3)) == 4

    def test_huge_entries_exact(self):
        big = 10 ** 30
        c = IntegralSequence(2, {(1, 2): big})
        assert bott_number(c, (1, 2)) == big
        prod = mat_mul(c_matrix(c, (1, 2)),
                       [[-x for x in row] for row in bott_matrix(c, (1, 2))])
        assert prod == mat_id(2)


# ===================================================================
# 3. Inverse property against the Fraction oracle
# ===================================================================

class TestInverseOracle:
    def test_product_is_identity_random(self):
        rng = random.Random(1001)
        for _ in range(60):
            n = rng.randint(1, 7)
            c = random_sequence(rng, n)
            cm = c_matrix(c, range(1, n + 1))
            bm = bott_matrix(c, range(1, n + 1))
            neg_b = [[-x for x in row] for row in bm]
            assert mat_mul(cm, neg_b) == mat_id(n)
            assert mat_mul(neg_b, cm) == mat_id(n)

    def test_matches_gauss_jordan_inverse(self):
        rng = random.Random(1002)
        for _ in range(40):
            n = rng.randint(1, 6)
            ids = sorted(rng.sample(range(1, 9), n))
            c = random_sequence(rng, 8)
            inv = fraction_inverse(c_matrix(c, ids))
            bm = bott_matrix(c, ids)
            assert all(inv[i][j] == -bm[i][j] for i in range(n)
                       for j in range(n))

    def test_matches_the_triangular_recursion(self):
        rng = random.Random(1003)
        for _ in range(40):
            n = rng.randint(1, 12)
            c = random_sequence(rng, n, -4, 4)
            start = rng.randint(1, n)
            run = range(start, rng.randint(start, n) + 1)
            subset = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for ids in (run, subset):
                assert bott_matrix(c, ids) == reference_bott_matrix(c, ids)

    def test_index_set_validation(self):
        c = IntegralSequence(4)
        with pytest.raises(ValidationError):
            bott_matrix(c, ())
        with pytest.raises(ValidationError):
            bott_matrix(c, (1, 1, 2))
        with pytest.raises(ValidationError):
            bott_matrix(c, (0, 2))
        with pytest.raises(ValidationError):
            bott_matrix(c, (3, 5))


# ===================================================================
# 4. Bott numbers and the interior-chain oracle
# ===================================================================

class TestBottNumber:
    def test_singleton_is_minus_one(self):
        c = IntegralSequence(3, {(1, 2): 7})
        for i in (1, 2, 3):
            assert bott_number(c, (i,)) == -1

    def test_pair_is_coefficient(self):
        c = IntegralSequence(2, {(1, 2): -6})
        assert bott_number(c, (1, 2)) == -6

    def test_triple_frozen(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): 5, (2, 3): 3})
        assert bott_number(c, (1, 2, 3)) == 5 - 2 * 3

    def test_moebius_matches_pair_and_triple(self):
        c = IntegralSequence(3, {(1, 2): 2, (1, 3): 5, (2, 3): 3})
        assert bott_number_moebius(c, (1, 2)) == 2
        assert bott_number_moebius(c, (1, 2, 3)) == -1

    def test_moebius_requires_at_least_two_indices(self):
        c = IntegralSequence(3)
        with pytest.raises(ValidationError):
            bott_number_moebius(c, (2,))

    def test_moebius_agreement_random(self):
        rng = random.Random(1003)
        for _ in range(50):
            n = rng.randint(2, 7)
            c = random_sequence(rng, n, -5, 5)
            size = rng.randint(2, n)
            ids = tuple(sorted(rng.sample(range(1, n + 1), size)))
            assert bott_number_moebius(c, ids) == bott_number(c, ids)

    def test_unordered_input_normalized(self):
        c = IntegralSequence(3, {(1, 3): 4})
        assert bott_number(c, [3, 1]) == 4
        assert bott_number_moebius(c, [3, 1]) == 4


class TestSuffixRecursion:
    """bott_number's unmemoised one-column pass against the matrix route."""

    @staticmethod
    def all_sets(n):
        return [ids for size in range(1, n + 1)
                for ids in combinations(range(1, n + 1), size)]

    @pytest.mark.parametrize("order", ["shortest_first", "longest_first"])
    def test_matches_matrix_and_chain_sum_on_every_set(self, order):
        rng = random.Random(2024)
        for _ in range(12):
            n = rng.randint(1, 8)
            c = random_sequence(rng, n, -3, 3)
            sets = self.all_sets(n)
            if order == "longest_first":
                sets.reverse()
            memo = {}
            for ids in sets:
                value = bott_number(c, ids)
                assert value == bott_matrix(c, ids)[0][-1]
                assert value == reference_bott_number(c, ids, memo)
                if len(ids) >= 2:
                    assert value == bott_number_moebius(c, ids)

    def test_nothing_is_kept_on_the_sequence(self):
        c = random_sequence(random.Random(7), 6, -3, 3)
        before = repr(c)
        assert IntegralSequence.__slots__ == ("n", "_entries")
        bott_number(c, (1, 3, 4, 6))
        bott_matrix(c, range(1, 7))
        sequences._bott_table(c, 6)
        assert repr(c) == before and not hasattr(c, "_cache")

    def test_long_set_needs_no_recursion(self):
        c = IntegralSequence.bounded_flag(1500)
        assert bott_number(c, range(1, 1501)) == -1

    def test_never_builds_a_bott_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bott_matrix called")

        monkeypatch.setattr(sequences, "bott_matrix", refuse)
        rng = random.Random(11)
        c = random_sequence(rng, 7, -3, 3)
        for ids in self.all_sets(7):
            bott_number(c, ids)
        for w in binary_codes(5):
            dual_generators(c, 5, w)
            lemma_identities(c, w, 1, 5)

    def test_set_validated_once(self, monkeypatch):
        c = IntegralSequence(4)
        for bad in [(), (1, 1), (0, 2), (2, 5), (1, True), (1, "2"), (1.0,)]:
            with pytest.raises(ValidationError):
                bott_number(c, bad)
        calls = []
        check = sequences._index_set
        monkeypatch.setattr(sequences, "_index_set",
                            lambda *args: calls.append(args) or check(*args))
        bott_number(c, [4, 1, 3, 2])
        bott_number_moebius(c, [4, 1, 3, 2])
        assert len(calls) == 2


class TestRowKernel:
    """bott_matrix, bott_number and hk_support read one row kernel."""

    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_matrix_matches_the_triangular_recursion(self, density):
        rng = random.Random(2040 + int(10 * density))
        for k in (1, 2, 3, 5, 8, 13, 21, 40):
            c = random_sequence(rng, k, -3, 3, density=density)
            sets = [range(1, k + 1)] + [  # and sets that are not prefixes
                rng.sample(range(1, k + 1), rng.randint(1, k))
                for _ in range(4)]
            for ids in sets:
                assert bott_matrix(c, ids) == reference_bott_matrix(c, ids)

    def test_numbers_and_support_are_its_entries(self):
        rng = random.Random(2041)
        for k in (2, 3, 6, 11, 24):
            c = random_sequence(rng, k, -3, 3, density=rng.random())
            b = reference_bott_matrix(c, range(1, k + 1))
            assert all(bott_number(c, range(r, s + 1)) == b[r - 1][s - 1]
                       for r in range(1, k + 1) for s in range(r, k + 1))
            ids = sorted(rng.sample(range(1, k + 1), rng.randint(1, k)))
            sub = reference_bott_matrix(c, ids)
            assert all(bott_number(c, ids[r:]) == sub[r][-1]
                       for r in range(len(ids)))
            support = hk_support(c, k - 1)
            assert support.values_table() == tuple(
                (i, gamma, gamma * b[i - 1][k - 1])
                for i in range(1, k) for gamma in (0, 1))

    def test_the_three_share_the_kernel(self, monkeypatch):
        from bott_towers import bundles

        calls = []
        kernel = sequences._bott_rows

        def counted(*args):
            calls.append(len(args[1]))
            return kernel(*args)

        monkeypatch.setattr(sequences, "_bott_rows", counted)
        monkeypatch.setattr(bundles, "_bott_rows", counted)
        c = random_sequence(random.Random(2042), 7, -3, 3)
        bott_matrix(c, range(1, 8))
        bott_number(c, (2, 4, 7))
        hk_support(c, 5)
        assert calls == [7, 3, 6]

    def test_tall_sparse_tower(self):
        import time

        c = IntegralSequence(1500, {(1, 1500): 2, (2, 1499): 5,
                                    (700, 701): -3})
        start = time.perf_counter()
        b = bott_matrix(c, range(1, 1501))
        number = bott_number(c, range(1, 1501))
        support = hk_support(c, 1499)
        assert time.perf_counter() - start < 10  # about 0.7 s
        expected = {(0, 1499): 2, (1, 1498): 5, (699, 700): -3}
        assert all(b[r][s] == expected.get((r, s), -(r == s))
                   for r in range(1500) for s in range(1500))
        assert number == 2
        assert [support.value(i, 1) for i in (1, 2, 3)] == [2, 0, 0]


class TestBottTable:
    """The flat 2^n table of every index set, by mask."""

    @staticmethod
    def index_tuple(mask):
        return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    def test_matches_reference_and_chain_sum_on_every_mask(self):
        rng = random.Random(2025)
        for n in [*range(1, 11), *(rng.randint(1, 10) for _ in range(8))]:
            c = random_sequence(rng, n, -5, 5)
            table = sequences._bott_table(c, n)
            assert len(table) == 2 ** n
            memo = {}
            for mask in range(1, 2 ** n):
                ids = self.index_tuple(mask)
                assert table[mask] == reference_bott_number(c, ids, memo)
                if len(ids) >= 2:
                    assert table[mask] == bott_number_moebius(c, ids)

    def test_lower_stage_is_the_sub_tower(self):
        c = random_sequence(random.Random(2026), 9, -3, 3)
        assert sequences._bott_table(c, 6) == sequences._bott_table(
            c.restrict(6), 6)

    def test_stage_cap(self):
        import time

        assert sequences._MAX_TABLE_STAGE == 20
        c = IntegralSequence(3000)
        for k in (21, 40, 3000):  # refused before the table is allocated
            start = time.perf_counter()
            with pytest.raises(ValidationError, match="stages above 20"):
                sequences._bott_table(c, k)
            assert time.perf_counter() - start < 0.01
        for bad in (0, 3001, True):
            with pytest.raises(ValidationError):
                sequences._bott_table(c, bad)
        assert sequences._check_table_stage(c, 20, "a table", "entries") == 20


# ===================================================================
# 5. Mixed-code identities
# ===================================================================

class TestLemmaIdentities:
    def test_adjacent_indices(self):
        c = IntegralSequence(4, {(1, 2): 3, (2, 3): -2, (3, 4): 5})
        for w in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1)):
            assert lemma_identities(c, w, 2, 3) == (0, 0)

    def test_all_zero_and_all_one_codes(self):
        rng = random.Random(1004)
        for _ in range(20):
            n = rng.randint(2, 7)
            c = random_sequence(rng, n, -4, 4)
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert lemma_identities(c, (0,) * n, i, j) == (0, 0)
            assert lemma_identities(c, (1,) * n, i, j) == (0, 0)

    def test_random_codes(self):
        rng = random.Random(1005)
        for _ in range(200):
            n = rng.randint(2, 8)
            c = random_sequence(rng, n, -6, 6)
            w = tuple(rng.randint(0, 1) for _ in range(n))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert lemma_identities(c, w, i, j) == (0, 0)

    def test_index_validation(self):
        c = IntegralSequence(3)
        with pytest.raises(ValidationError):
            lemma_identities(c, (0, 0, 0), 2, 2)
        with pytest.raises(ValidationError):
            lemma_identities(c, (0, 0), 1, 3)


# ===================================================================
# 6. Posets: zeta, Moebius, and the bridge to sequences
# ===================================================================

class TestPoset:
    def test_chain_frozen(self):
        p = Poset(3, [(1, 2), (2, 3)])  # covering pairs; closure adds (1,3)
        assert zeta_matrix(p) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
        assert moebius_matrix(p) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]

    def test_covering_and_full_relation_agree(self):
        a = Poset(3, [(1, 2), (2, 3)])
        b = Poset(3, [(1, 2), (2, 3), (1, 3)])
        assert a == b

    def test_antichain_frozen(self):
        p = Poset(3, [])
        assert zeta_matrix(p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert moebius_matrix(p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_diamond_frozen(self):
        # 1 < 2, 1 < 3, 2 < 4, 3 < 4: mu(1,4) = +1.
        p = Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        m = moebius_matrix(p)
        assert m[0] == [1, -1, -1, 1]

    def test_not_linear_extension_rejected(self):
        with pytest.raises(ValidationError):
            Poset(3, [(2, 1)])
        with pytest.raises(ValidationError):
            Poset(3, [(1, 2), (3, 2)])

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            Poset(3, [(1, 4)])
        with pytest.raises(ValidationError):
            Poset(3, [(0, 1)])

    def test_closure_matches_the_former_loop(self):
        rng = random.Random(1007)
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.2, 0.4))
            relation = [(i, j) for i in range(1, n)
                        for j in range(i + 1, n + 1) if rng.random() < p]
            rng.shuffle(relation)
            assert Poset(n, relation).strict_pairs() == tuple(
                sorted(reference_poset_closure(relation)))

    def test_long_chain_closes(self):
        # the former loop takes 0.1 s on the 60-element chain and about 4 s
        # on the 120-element one, whose closure is every pair i < j
        chain = [(i, i + 1) for i in range(1, 60)]
        assert Poset(60, chain).strict_pairs() == tuple(
            sorted(reference_poset_closure(chain)))
        chain = [(i, i + 1) for i in range(119, 0, -1)]
        assert Poset(120, chain).strict_pairs() == tuple(
            (i, j) for i in range(1, 121) for j in range(i + 1, 121))

    def test_bridge_chain(self):
        p = Poset(3, [(1, 2), (2, 3)])
        c = poset_to_sequence(p)
        assert c == IntegralSequence(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        b = bott_matrix(c, (1, 2, 3))
        m = moebius_matrix(p)
        assert b == [[-x for x in row] for row in m]

    def test_bridge_exhaustive_small(self):
        # All posets on [1..3] with the identity labeling a linear extension.
        pairs = [(1, 2), (1, 3), (2, 3)]
        count = 0
        for mask in range(8):
            chosen = [pairs[t] for t in range(3) if mask >> t & 1]
            rel = set(chosen)
            transitive = not ((1, 2) in rel and (2, 3) in rel
                              and (1, 3) not in rel)
            if not transitive:
                continue
            count += 1
            p = Poset(3, chosen)
            b = bott_matrix(poset_to_sequence(p), (1, 2, 3))
            m = moebius_matrix(p)
            assert b == [[-x for x in row] for row in m]
        assert count == 7

    def test_bridge_random(self):
        rng = random.Random(1006)
        for _ in range(40):
            n = rng.randint(1, 7)
            p = random_poset(rng, n)
            b = bott_matrix(poset_to_sequence(p), range(1, n + 1))
            m = moebius_matrix(p)
            assert b == [[-x for x in row] for row in m]

    def test_moebius_independent_of_inversion(self):
        # The Moebius matrix is the Fraction inverse of zeta, but is computed
        # by the summation recursion; check the two agree.
        rng = random.Random(1007)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 6))
            inv = fraction_inverse(zeta_matrix(p))
            m = moebius_matrix(p)
            assert all(inv[i][j] == m[i][j] for i in range(p.n)
                       for j in range(p.n))


# ===================================================================
# 7. One range check
# ===================================================================

SEQ3 = IntegralSequence(3, {(1, 2): 2, (1, 3): -1, (2, 3): 1})
RING3 = cohomology_ring(SEQ3, 3)
FAN3 = build_fan(SEQ3, 3)
PRODUCT3 = build_fan(IntegralSequence(3), 3)  # every ray pair sums to zero


# (call, lo, hi, accepted): hi None means no upper bound; `accepted`
# defaults to (lo, hi), or (lo, lo + 1) without an upper bound.
RANGE_SITES = {
    "IntegralSequence.n": (IntegralSequence, 1, None, None),
    "IntegralSequence.column": (SEQ3.column, 1, 3, None),
    "IntegralSequence.check_stage": (SEQ3.check_stage, 1, 3, None),
    "IntegralSequence.restrict": (SEQ3.restrict, 1, 3, None),
    "Poset.n": (Poset, 1, None, None),
    "index_sets.i": (lambda x: index_sets((0, 1, 0, 1), x, 4), 1, 4, (1, 3)),
    "index_sets.j": (lambda x: index_sets((0, 1, 0, 1), 1, x), 1, 4, (2, 4)),
    "prefix_set.j": (lambda x: prefix_set((0, 1, 1), x), 1, 3, None),
    "canonical_lambda": (canonical_lambda, 1, None, None),
    "lambda_bundle": (lambda x: lambda_bundle(x, 3), 1, 3, None),
    "xi_bundle": (lambda x: xi_bundle(SEQ3, x), 1, 2, None),
    "hk_support": (lambda x: hk_support(SEQ3, x), 1, 2, None),
    "CohomologyRing.gen": (RING3.gen, 1, 3, None),
    "CohomologyRing.ray_class.j": (lambda x: RING3.ray_class(x, 1), 1, 3,
                                   None),
    "CohomologyRing.ray_class.gamma": (lambda x: RING3.ray_class(2, x), 0,
                                       1, None),
    "binary_codes": (binary_codes, 1, None, None),
    "BottFan.generator.i": (lambda x: FAN3.generator(x, 1), 1, 3, None),
    "BottFan.generator.gamma": (lambda x: FAN3.generator(2, x), 0, 1, None),
    "GeneralFan.dim": (lambda x: GeneralFan(x, [(1,), (-1,)], [(0,), (1,)]),
                       1, None, (1,)),
    "project": (lambda x: project(PRODUCT3, x), 1, 3, None),
}


@pytest.mark.parametrize("name", sorted(RANGE_SITES))
def test_range_check_sites(name):
    call, lo, hi, accepted = RANGE_SITES[name]
    message = (rf"must be >= {lo}, got {lo - 1}$" if hi is None
               else rf"={lo - 1} outside {lo}\.\.{hi}$")
    with pytest.raises(ValidationError, match=message):
        call(lo - 1)
    if hi is not None:
        with pytest.raises(ValidationError,
                           match=rf"={hi + 1} outside {lo}\.\.{hi}$"):
            call(hi + 1)
    for bad in (True, 1.0):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(bad)
    for good in accepted or (lo, lo + 1 if hi is None else hi):
        call(good)
