"""Integral sequences, Bott matrices and Bott numbers.

A Bott tower of height n is encoded by integers c(i,j) for 1 <= i < j <= n,
with c(i,i) = 1 understood.  For an index set I = {i_1 < ... < i_m} the
coefficient matrix C(I) has (r,s) entry c(i_r, i_s) on and above the diagonal,
and the Bott matrix B(I) is defined by C(I)^(-1) = -B(I).  Its entries follow
the triangular recursion

    b(i,i) = -1,      b(i,j) = - sum_{i < k <= j} c(i,k) b(k,j).

The top-right entry b(I) of B(I) is the Bott number of I, and the (r,s)
entry is the Bott number of the run {i_r < ... < i_s} of I.  Row by row the
recursion reads

    B_r = -e_r - sum_{t > r, c(i_r, i_t) != 0} c(i_r, i_t) B_t,

so the row kernel :func:`_bott_rows` builds the rows from the bottom up,
each from the rows of its nonzero twists alone, summed by C-level maps: a
tower with few twists costs O(m^2), not O(m^3).  :func:`bott_matrix` reads
every column of the kernel; :func:`bott_number`, a point lookup with no
memo, and `bundles.hk_support` read the last column alone, where the rows
are the Bott numbers of the suffixes of I.  Commands that list every index
set read :func:`_bott_table` instead: 2^n ints indexed by mask, one
multiply-add per set, refused above stage `_MAX_TABLE_STAGE`.  Entry (r, s)
of B(1..n) is the table's entry at the mask of bits r..s, so a job that
holds the table reads its Bott matrix there, with no kernel run.
:func:`c_matrix` places the stored twists in one pass, reading no column,
as :func:`_twist_rows` does for the rows (c(1,j), ..., c(j-1,j), 1) that
`bundles` and `cohomology` read.
A sequence is built by its checked constructor, or by
`IntegralSequence._of` from twists its caller has checked.  The Bott
number also admits an independent expansion as an alternating sum over
chains through the interior of I.  :func:`_chain_products` multiplies out
every chain of one interval by prefix, one multiply per chain;
:func:`bott_number_moebius` sums them for one set, and :func:`_chain_table`,
the check behind ``numbers --oracle``, turns them into b(I) for every set
with one subset-sum transform per pair of endpoints: O(n 2^n) operations in
all, against the 3^n / 4 chains of the sets taken one at a time.

>>> c = IntegralSequence(3, {(1, 2): 2, (1, 3): 5, (2, 3): 3})
>>> bott_matrix(c, (1, 2, 3))
[[-1, 2, -1], [0, -1, 3], [0, 0, -1]]
>>> bott_number(c, (1, 2, 3))        # c(1,3) - c(1,2) c(2,3)
-1
>>> bott_number_moebius(c, (1, 2, 3))
-1

A poset whose identity labeling is a linear extension bridges into this
picture: taking c(i,j) = 1 exactly when i < j in the poset makes C(n) the zeta
matrix, so B(n) is the negated Moebius matrix.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat, zip_longest
from operator import add, lt, mul, sub

from .errors import ValidationError

_MAX_TABLE_STAGE = 20  # a table over the subsets of 1..k has 2^k entries


def _check_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def _check_range(x, what: str, lo: int = 1, hi: int | None = None) -> int:
    """x itself, once it is checked to be an integer in lo..hi (lo.. when
    hi is None)."""
    _check_int(x, what)
    if hi is None:
        if x < lo:
            raise ValidationError(f"{what} must be >= {lo}, got {x}")
    elif not lo <= x <= hi:
        raise ValidationError(f"{what}={x} outside {lo}..{hi}")
    return x


def _plain_rows(rows, width: int) -> bool:
    """Whether every row has `width` items, each a plain int (no bool): the
    one fast check of the twists, the rays and the cones of a document."""
    return ({*map(len, rows)} <= {width}
            and {*map(type, chain.from_iterable(rows))} <= {int})


def _in_range(n: int, lows, highs) -> bool:
    """Whether n >= 1 and 1 <= i < j <= n for the int pairs (i, j) of
    `lows` and `highs`: three C-level sweeps."""
    return (n >= 1 and all(map(lt, lows, highs)) and 1 <= min(lows, default=1)
            and max(highs, default=1) <= n)


def _check_sequence(c) -> "IntegralSequence":
    if not isinstance(c, IntegralSequence):
        raise ValidationError("expected an IntegralSequence")
    return c


def _check_table_stage(c, k: int, what: str, items: str) -> int:
    """k, once checked to be a stage of `c` small enough for 2^k `items`."""
    if _check_sequence(c).check_stage(k) > _MAX_TABLE_STAGE:
        raise ValidationError(f"{what} at stage k={k} has 2^{k} {items}; "
                              f"stages above {_MAX_TABLE_STAGE} are refused")
    return k


class IntegralSequence:
    """Upper-triangular integer data c(i,j), 1 <= i < j <= n, c(i,i) = 1."""

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries=None):
        self.n = _check_range(n, "n")
        entries = dict(entries) if entries else {}
        keys = entries.keys()
        if ({*map(type, keys)} <= {tuple} and _plain_rows(keys, 2)
                and {*map(type, entries.values())} <= {int}
                and _in_range(n, *(zip(*keys) if keys else ((), ())))):
            self._entries = {key: val for key, val in entries.items() if val}
            return
        # the same rules one entry at a time, to name the first fault
        stored = {}
        for key, val in entries.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ValidationError(f"bad entry key {key!r}") from None
            _check_int(i, "index i")
            _check_int(j, "index j")
            _check_int(val, f"entry c({i},{j})")
            if not (1 <= i < j <= n):
                raise ValidationError(
                    f"entry key ({i},{j}) outside 1 <= i < j <= {n}")
            if val != 0:
                stored[(i, j)] = val
        self._entries = stored

    @classmethod
    def _of(cls, n: int, twists: dict) -> "IntegralSequence":
        """Wrap a height and a dict of its nonzero twists keyed by int pairs
        1 <= i < j <= n, all checked by the caller (by `_in_range`, or true
        by construction), without copying."""
        self = cls.__new__(cls)
        self.n, self._entries = n, twists
        return self

    @classmethod
    def zero(cls, n: int) -> "IntegralSequence":
        """The trivial tower of height n (a product of projective lines)."""
        return cls(n)

    @classmethod
    def bounded_flag(cls, n: int) -> "IntegralSequence":
        """The bounded-flag tower: c(j-1,j) = -1, all other entries 0."""
        return cls(n, {(j - 1, j): -1 for j in range(2, n + 1)})

    def value(self, i: int, j: int) -> int:
        """c(i,j) for 1 <= i <= j <= n (1 on the diagonal, 0 if unset)."""
        _check_int(i, "index i")
        _check_int(j, "index j")
        if not (1 <= i <= j <= self.n):
            raise ValidationError(
                f"indices ({i},{j}) outside 1 <= i <= j <= {self.n}")
        if i == j:
            return 1
        return self._entries.get((i, j), 0)

    def column(self, j: int) -> tuple:
        """(c(1,j), ..., c(j-1,j)): the twists of stage j over the stages below.

        j is checked once, so a loop over many entries reads whole columns
        instead of paying value()'s two index checks per entry.
        """
        _check_range(j, "j", 1, self.n)
        entries = self._entries
        return tuple(entries.get((i, j), 0) for i in range(1, j))

    def check_stage(self, k: int) -> int:
        """k itself, once it is checked to be a stage 1..n of this tower."""
        return _check_range(k, "k", 1, self.n)

    def entries(self):
        """Sorted tuple of the nonzero (i, j, value) triples."""
        return tuple((i, j, v) for (i, j), v in sorted(self._entries.items()))

    def restrict(self, m: int) -> "IntegralSequence":
        """The sub-tower on stages 1..m."""
        _check_range(m, "m", 1, self.n)
        return IntegralSequence(
            m, {k: v for k, v in self._entries.items() if k[1] <= m})

    def extend(self, column) -> "IntegralSequence":
        """Append stage n+1 with the given column (c(1,n+1), ..., c(n,n+1))."""
        col = [_check_int(x, "column entry") for x in column]
        if len(col) != self.n:
            raise ValidationError(
                f"extension column must have length {self.n}, got {len(col)}")
        entries = dict(self._entries)
        for i, v in enumerate(col, start=1):
            entries[(i, self.n + 1)] = v
        return IntegralSequence(self.n + 1, entries)

    def __eq__(self, other):
        if not isinstance(other, IntegralSequence):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._entries.items()))))

    def __repr__(self):
        return f"IntegralSequence({self.n}, {dict(sorted(self._entries.items()))})"


def _index_set(c: IntegralSequence, ids) -> tuple:
    out = tuple(sorted(_check_int(i, "index") for i in ids))
    if not out:
        raise ValidationError("index set must be nonempty")
    if len(set(out)) != len(out):
        raise ValidationError(f"index set {out} has repeated elements")
    if out[0] < 1 or out[-1] > c.n:
        raise ValidationError(f"index set {out} outside 1..{c.n}")
    return out


def c_matrix(c: IntegralSequence, ids):
    """The m x m coefficient matrix C(I): c(i_r, i_s) above the diagonal.

    The identity is filled from one pass over the stored twists, each placed
    when both its ends are in I; no column is read.
    """
    ids = _index_set(c, ids)
    rows = [[0] * len(ids) for _ in ids]
    for r, row in enumerate(rows):
        row[r] = 1
    at = dict(zip(ids, range(len(ids))))
    for (i, j), value in c._entries.items():
        if i in at and j in at:
            rows[at[i]][at[j]] = value
    return rows


def _twist_rows(c: IntegralSequence, m: int) -> list:
    """The rows (c(1,j), ..., c(j-1,j), 1) of the stages j = 1..m, m <= n,
    filled from one pass over the stored twists; no column is read."""
    rows = [[0] * j for j in range(1, m + 1)]
    for row in rows:
        row[-1] = 1
    for (i, j), value in c._entries.items():
        if j <= m:
            rows[j - 1][i - 1] = value
    return rows


def bott_matrix(c: IntegralSequence, ids):
    """B(I), with C(I) @ (-B(I)) = Id: entry (r,s) is the Bott number of the
    run i_r..i_s of I, the rows read off the row kernel; 0 below the
    diagonal."""
    rows = _bott_rows(c._entries, _index_set(c, ids))
    return [[0] * r + row[::-1] for r, row in enumerate(rows)]


def bott_number(c: IntegralSequence, ids) -> int:
    """The Bott number b(I): top-right entry of B(I); -1 for singletons.

    A point lookup: I is validated once and the row kernel runs on the last
    column alone, with no memo.
    """
    ids = _index_set(c, ids)
    return _bott_rows(c._entries, ids, len(ids) - 1)[0][0]


def _bott_rows(entries: dict, ids, lo: int = 0) -> list:
    """The rows of B = -C^-1 for the unitriangular C whose entry (r, t)
    above the diagonal is entries.get((ids[r], ids[t]), 0): row r written
    right to left, from column m - 1 down to column max(r, lo).

    Row r is -e_r minus C[r][t] times row t over the nonzero twists of r
    alone, from the bottom row -e_m up.  Right to left, all rows start at
    the last column, so the terms of one row line up and are summed column
    by column in one C-level pass.
    """
    m = len(ids)
    rows = [None] * (m - 1) + [[-1]]
    for r in range(m - 2, -1, -1):
        i, terms = ids[r], []
        for t in range(r + 1, m):
            if v := entries.get((i, ids[t])):
                terms.append(map((-v).__mul__, rows[t]))
        width = m - r - 1 if r >= lo else m - lo
        row = [*map(sum, zip_longest(repeat(0, width), *terms, fillvalue=0))]
        rows[r] = row + [-1] if r >= lo else row
    return rows


def _bott_table(c: IntegralSequence, n: int) -> list:
    """b(I) for every nonempty I in 1..n, as 2^n ints indexed by mask (bit
    i-1 is i; entry 0 is unused).

    With i = min(I), J = I - {i} and j = min(J), the suffix recursion reads
    b(I) = -T(i, J), T(i, J) = c(i, j) b(J) + T(i, J - {j}), T(i, {}) = 0:
    one multiply-add per set.  T(i, K) = -b({i} + K) lives in the table
    itself, slot {i} holding 0 until the sets with least element i are
    done.  Grouped by j, those sets, their J and their {i} + J - {j} are
    strided slices, filled with i and j running downwards.
    """
    _check_table_stage(c, n, "the Bott number table", "entries")
    table = [0] * (1 << n)
    for i in range(n, 0, -1):
        low = 1 << (i - 1)
        for j in range(n, i, -1):
            half, step = 1 << (j - 1), 1 << j
            twist = c._entries.get((i, j))
            rest = table[low::step]  # the sets {i} + J - {j}
            table[low + half::step] = (
                map(sub, rest, map(twist.__mul__, table[half::step]))
                if twist else rest)
        table[low] = -1
    return table


def _chain_products(entries: dict, stops) -> list:
    """The signed chain products through stops s_0 < ... < s_{m+1}, as 2^m
    ints indexed by mask (bit t-1 is s_t): for a subset L of the interior,
    g(L) = (-1)^|L| c(s_0,l_1) c(l_1,l_2) ... c(l_|L|,s_{m+1}).

    Built by prefix, one multiply per product: h({}) = 1,
    h(L + {t}) = -h(L) c(top(L), t) for t above top(L), the highest stop of L
    (s_0 when L is empty), and g(L) = h(L) c(top(L), s_{m+1}).  Grouped by
    bit length, the sets of one top are one slice, so each new top s_b
    extends h by one slice per top below it.
    """
    def extend(values, stop, sign):
        # the sets of top s_a sit in [2^(a-1), 2^a), the empty set at 0
        out = []
        for a in range(len(values).bit_length()):
            group = values[(1 << a) >> 1:1 << a]
            twist = sign * entries.get((stops[a], stop), 0)
            out += map(twist.__mul__, group) if twist else [0] * len(group)
        return out

    h = [1]
    for b in range(1, len(stops) - 1):
        h += extend(h, stops[b], -1)
    return extend(h, stops[-1], 1)


def bott_number_moebius(c: IntegralSequence, ids) -> int:
    """b(I) as an alternating sum over chains through the interior of I.

    For I with endpoints i = min(I), j = max(I), every subset
    L = {l_1 < ... < l_k} of I minus its endpoints contributes
    (-1)^k c(i,l_1) c(l_1,l_2) ... c(l_k,j); the empty subset contributes
    c(i,j).  This is the chain expansion of the top-right entry of -C(I)^(-1),
    so it must agree with :func:`bott_number` — computed here without any
    matrix algebra as an independent cross-check.  The 2^(|I|-2) chain
    products are built by prefix (:func:`_chain_products`), one multiply
    each.
    """
    ids = _index_set(c, ids)
    if len(ids) < 2:
        raise ValidationError("interior-chain expansion needs |I| >= 2")
    return sum(_chain_products(c._entries, ids))  # I is checked


def _add_halves(out: list, src: list, half: int, scales: list) -> None:
    """Add scales[b] times the lower half of block b of `src` into the upper
    half of block b of `out`, for the blocks of 2*half entries in order;
    `out` may be `src`.  A scale of 1 adds its half unmultiplied, and a zero
    scale adds nothing.  One slice per block or one strided slice per offset
    within the blocks, whichever is fewer."""
    step = half << 1
    if len(scales) < half:  # a slice per block
        for lo, scale in zip(range(0, len(src), step), scales):
            if scale:
                top, low = slice(lo + half, lo + step), src[lo:lo + half]
                out[top] = map(add, out[top], low if scale == 1
                               else map(scale.__mul__, low))
    elif any(scales):  # a strided slice per offset
        unit = scales.count(1) == len(scales)
        for r in range(half):
            top, low = slice(half + r, None, step), src[r::step]
            out[top] = map(add, out[top],
                           low if unit else map(mul, scales, low))


def _subset_sums(values: list) -> list:
    """The subset-sum (zeta) transform in place: entry J becomes the sum of
    the entries of the subsets of J, one bit at a time, each bit one
    unit-scale :func:`_add_halves`."""
    half = 1
    while half < len(values):
        _add_halves(values, values, half, [1] * (len(values) // (half << 1)))
        half <<= 1
    return values


def _chain_table(c: IntegralSequence, n: int) -> list:
    """b(I) for every I in 1..n with |I| >= 2 by the chain expansion, as 2^n
    ints indexed by mask (bit i-1 is i; the entries of |I| < 2 are 0).

    For endpoints lo < hi and interior J of I, b(I) is the sum of the chain
    products g(L) of the stops lo..hi over the subsets L of J: one subset-sum
    transform per pair, whose 2^(hi-lo-1) entries sit at the masks
    2^(lo-1) + 2^(hi-1) + J 2^lo, one strided slice.  Independent of
    :func:`_bott_table`: explicit chain products, no suffix recursion.
    """
    _check_table_stage(c, n, "the chain-sum table", "entries")
    table = [0] * (1 << n)
    for lo in range(1, n):
        for hi in range(lo + 1, n + 1):
            sums = _subset_sums(_chain_products(c._entries,
                                                range(lo, hi + 1)))
            base = (1 << (lo - 1)) + (1 << (hi - 1))
            table[base:base + (len(sums) << lo):1 << lo] = sums
    return table


def _check_code(w, k: int | None = None) -> tuple:
    """w as a tuple of 0/1 ints, of length k unless k is None."""
    w = tuple(w)
    for bit in w:
        if isinstance(bit, bool) or bit not in (0, 1):
            raise ValidationError(f"binary code entries must be 0 or 1: {w!r}")
    if k is not None and len(w) != k:
        raise ValidationError(f"code length {len(w)} != k={k}")
    return w


def lemma_identities(c: IntegralSequence, w, i: int, j: int):
    """Evaluate the two mixed-code sums; both are identically zero.

    For a binary code w, split the open integer interval (i, j) into the
    positions where w is 1 and where w is 0.  Writing b(S) for the Bott number
    over a position set S with the endpoints adjoined, the two returned values
    are

        sum_{l in ones + {i}} b({l} u zeros(l,j) u {j}) b(i,l)  +  b(i,j)
        sum_{l in ones + {j}} b({i} u zeros(i,l) u {l}) b(l,j)  +  b(i,j)

    where b(i,l) is the Bott number of the full integer interval [i..l].
    """
    w = _check_code(w)
    k = len(w)
    _check_int(i, "i")
    _check_int(j, "j")
    if not (1 <= i < j <= k <= c.n):
        raise ValidationError(
            f"need 1 <= i < j <= len(w) <= n, got i={i}, j={j}, "
            f"len(w)={k}, n={c.n}")

    def b_interval(a: int, b: int) -> int:
        return bott_number(c, range(a, b + 1))

    def b_zeros_adjoined(a: int, b: int) -> int:
        zeros = [l for l in range(a + 1, b) if w[l - 1] == 0]
        return bott_number(c, [a, *zeros, b])

    ones = [l for l in range(i + 1, j) if w[l - 1] == 1]
    first = sum(b_zeros_adjoined(l, j) * b_interval(i, l)
                for l in [*ones, i]) + b_interval(i, j)
    second = sum(b_zeros_adjoined(i, l) * b_interval(l, j)
                 for l in [*ones, j]) + b_interval(i, j)
    return first, second


class Poset:
    """Finite poset on 1..n whose identity labeling is a linear extension.

    Accepts either covering pairs or a full relation; the transitive closure
    is taken either way.  Any pair (i, j) with i > j is rejected, since it
    would break the linear-extension requirement (and with it antisymmetry).
    """

    __slots__ = ("n", "_strict")

    def __init__(self, n: int, relation=()):
        self.n = _check_range(n, "n")
        strict = set()
        for pair in relation:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise ValidationError(f"bad relation pair {pair!r}") from None
            _check_int(i, "relation index")
            _check_int(j, "relation index")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"relation pair ({i},{j}) outside 1..{n}")
            if i == j:
                continue
            if i > j:
                raise ValidationError(
                    f"pair ({i},{j}) has i > j: identity labeling would not "
                    "be a linear extension")
            strict.add((i, j))
        # one downward pass: pairs point up, so above[j] is final at (i, j)
        above = defaultdict(set)
        for i, j in sorted(strict, reverse=True):
            above[i] |= {j} | above[j]
        self._strict = frozenset((i, j) for i in above for j in above[i])

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self._strict

    def strict_pairs(self):
        return tuple(sorted(self._strict))

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._strict == other._strict

    def __hash__(self):
        return hash((self.n, self._strict))

    def __repr__(self):
        return f"Poset({self.n}, {sorted(self._strict)})"


def zeta_matrix(p: Poset):
    """0/1 incidence matrix of the order relation: upper triangular."""
    return [[1 if p.leq(i, j) else 0 for j in range(1, p.n + 1)]
            for i in range(1, p.n + 1)]


def moebius_matrix(p: Poset):
    """Moebius function as a matrix, by the summation recursion.

    mu(i,i) = 1 and mu(i,j) = - sum over i <= z < j in the order of mu(i,z);
    computed without inverting the zeta matrix.
    """
    n = p.n
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        m[i - 1][i - 1] = 1
        for j in range(i + 1, n + 1):
            if p.leq(i, j):
                m[i - 1][j - 1] = -sum(
                    m[i - 1][z - 1] for z in range(i, j)
                    if p.leq(i, z) and p.leq(z, j))
    return m


def poset_to_sequence(p: Poset) -> IntegralSequence:
    """The sequence with c(i,j) = 1 exactly when i < j in the poset."""
    return IntegralSequence(p.n, {pair: 1 for pair in p.strict_pairs()})
