"""Integral cohomology of a tower stage, with exact normal-form arithmetic.

The ring is Z[x_1, ..., x_k] modulo the ideal generated by x_j * l_j, where
l_j = x_j + c(1,j) x_1 + ... + c(j-1,j) x_{j-1}.  Every relation has leading
term x_j^2, so squarefree monomials form a Z-basis, and the relation
x_j^2 = -sum_{i<j} c(i,j) x_i x_j only ever rewrites towards smaller indices.

A class is stored as a map from bitmasks to nonzero integer coefficients:
bit j-1 stands for x_j, so a mask m is a squarefree monomial of cohomological
degree 2 * popcount(m).  The presentation's rows (c(1,j), ..., c(j-1,j), 1)
are filled by one pass over the stored twists (`sequences._twist_rows`),
with no column read, and each ring builds its twist lists once from them:
for every stage j, the nonzero pairs (i, c(i,j)) with i < j.  Every product
is made of one step, multiplication by a linear form sum_i a_i x_i.  For each
monomial m it keeps one list of pending coefficients and resolves them from
the largest index down: an x_i not in m just sets bit i-1, and an x_i
already in m becomes -sum_h c(h,i) x_h times m, which adds to the pending
coefficients of smaller indices.  Paths that meet at an index merge there,
so the work per monomial is at most quadratic in k and never branches.

Divisor and line-bundle data enter through `ray_class` and
`character_class`.  The total Chern class is the product over stages of
1 + L_j, where L_j = 2 x_j + m_j, m_j = sum_{i<j} c(i,j) x_i, is the sum of
the two ray classes of stage j; its top integral counts the maximal cones.
It is one flat table, a list of 2^k ints indexed by mask, built by doubling:
total_j = total_{j-1} (1 + m_j) + 2 x_j total_{j-1}.  total_{j-1} lies in
the subring on x_1, ..., x_{j-1}, the first 2^(j-1) entries, so the x_j
half is a doubled copy at offset 2^(j-1) and only the product with m_j
reduces anything.  Stages above `sequences._MAX_TABLE_STAGE` are refused
first.
"""

from __future__ import annotations

import math
from operator import add, sub

from .errors import ValidationError
from .sequences import (IntegralSequence, _add_halves, _check_int,
                        _check_range, _check_sequence, _check_table_stage,
                        _twist_rows)


def _accumulate(out: dict, coeffs: dict, scale: int = 1) -> None:
    """Add scale * coeffs into out, dropping coefficients that cancel."""
    for mask, value in coeffs.items():
        value = out.get(mask, 0) + scale * value
        if value:
            out[mask] = value
        else:
            out.pop(mask, None)


class RingPresentation:
    """The k linear forms whose products with their generators cut the ring.

    `relations[j-1]` lists the coefficients (c(1,j), ..., c(j-1,j), 1) of the
    form paired with x_j; each involves only the first j variables and is
    monic in x_j.  `_checked` skips the stage check for a caller that has
    made it.
    """

    __slots__ = ("k", "relations")

    def __init__(self, c: IntegralSequence, k: int, _checked: bool = False):
        self.k = k if _checked else _check_sequence(c).check_stage(k)
        self.relations = tuple(map(tuple, _twist_rows(c, self.k)))

    def __eq__(self, other):
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return self.k == other.k and self.relations == other.relations

    def __hash__(self):
        return hash((self.k, self.relations))

    def __repr__(self):
        return f"RingPresentation(k={self.k})"


class CohomologyRing:
    """Carrier for the ring of one tower stage: builds and reduces classes.

    `_twists[j]` holds the nonzero pairs (i, c(i,j)), i < j, of stage j
    (`_twists[0]` is empty), read once from the rows of the ring's
    presentation: `_p` when the caller holds it already, so the stored
    twists are not read again, or else one built here.
    """

    __slots__ = ("sequence", "k", "_twists")

    def __init__(self, sequence: IntegralSequence, k: int, _p=None):
        p = _p or RingPresentation(sequence, k)  # checks sequence and k
        self.sequence, self.k = sequence, p.k
        self._twists = ((),) + tuple(
            tuple((i, value) for i, value in enumerate(row[:-1], 1) if value)
            for row in p.relations)

    # -- construction -------------------------------------------------

    def zero(self) -> "CohomologyClass":
        return CohomologyClass._of(self, {})

    def one(self) -> "CohomologyClass":
        return CohomologyClass._of(self, {0: 1})

    def gen(self, j: int) -> "CohomologyClass":
        """The degree-2 generator x_j."""
        _check_range(j, "j", 1, self.k)
        return CohomologyClass._of(self, {1 << (j - 1): 1})

    def ray_class(self, j: int, gamma: int) -> "CohomologyClass":
        """The divisor class of the fan generator a_{j,gamma}.

        Ray (j,0) maps to x_j; ray (j,1) maps to x_j + sum of the stage-j
        twist entries times the lower generators.
        """
        _check_range(j, "j", 1, self.k)
        _check_range(gamma, "gamma", 0, 1)
        coeffs = {1 << (j - 1): 1}
        if gamma == 1:
            for i, value in self._twists[j]:
                coeffs[1 << (i - 1)] = value
        return CohomologyClass._of(self, coeffs)

    def character_class(self, exps) -> "CohomologyClass":
        """The first Chern class of the character with the given exponents."""
        vec = tuple(_check_int(x, "character exponent") for x in exps)
        if len(vec) != self.k:
            raise ValidationError(
                f"character length {len(vec)} != k={self.k}")
        return CohomologyClass._of(self, {
            1 << j: value for j, value in enumerate(vec) if value})

    def from_polynomial(self, poly) -> "CohomologyClass":
        """Reduce a {exponent tuple: coefficient} polynomial to normal form."""
        work = {}
        for exps, coeff in poly.items():
            vec = tuple(_check_int(x, "exponent") for x in exps)
            if len(vec) != self.k:
                raise ValidationError(
                    f"exponent tuple {vec} has length {len(vec)}, expected {self.k}")
            if any(x < 0 for x in vec):
                raise ValidationError(f"negative exponent in {vec}")
            _check_int(coeff, "coefficient")
            work[vec] = work.get(vec, 0) + coeff
        out = {}
        for vec, coeff in work.items():
            if not coeff or sum(vec) > self.k:
                continue  # relations are homogeneous: degrees above k vanish
            part = {0: coeff}
            for j, power in enumerate(vec, start=1):
                for _ in range(power):
                    part = self._times_linear(part, ((j, 1),))
            _accumulate(out, part)
        return CohomologyClass._of(self, out)

    # -- internals ----------------------------------------------------

    def _mask(self, indices):
        """The bitmask of a monomial's indices, or None if one is not an int
        in 1..k (a bool is not)."""
        mask = 0
        for j in indices:
            if (isinstance(j, bool) or not isinstance(j, int)
                    or not 1 <= j <= self.k):
                return None
            mask |= 1 << (j - 1)
        return mask

    def _times_linear(self, coeffs: dict, form) -> dict:
        """coeffs times sum(a * x_i for i, a in form), in normal form.

        The indices of `form` are distinct.  Per monomial, pend[i] is the
        coefficient still waiting to multiply it by x_i; resolving the
        largest index first means every rewrite has landed before its
        index is read.
        """
        twists = self._twists
        top = max(i for i, _ in form)
        out = {}
        get = out.get
        for mask, coeff in coeffs.items():
            pend = [0] * (top + 1)
            for i, a in form:
                pend[i] = a * coeff
            for i in range(top, 0, -1):
                p = pend[i]
                if p:
                    bit = 1 << (i - 1)
                    if mask & bit:
                        for h, value in twists[i]:
                            pend[h] -= value * p
                    else:
                        out[mask | bit] = get(mask | bit, 0) + p
        return {mask: value for mask, value in out.items() if value}

    def __eq__(self, other):
        if not isinstance(other, CohomologyRing):
            return NotImplemented
        return self.k == other.k and self.sequence == other.sequence

    def __hash__(self):
        return hash((self.sequence, self.k))

    def __repr__(self):
        return f"CohomologyRing({self.sequence!r}, k={self.k})"


class CohomologyClass:
    """An element of the ring, in squarefree normal form.

    The public constructor takes {indices: coefficient}, where each key is
    any iterable of indices in 1..k (a tuple, a frozenset, ...).
    """

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: CohomologyRing, coeffs):
        self.ring = ring
        masks = {}
        for key, value in coeffs.items():
            if value:
                mask = ring._mask(key)
                if mask is None:
                    raise ValidationError(
                        f"monomial {tuple(key)!r} has an index outside "
                        f"1..{ring.k}")
                masks[mask] = value
        self._coeffs = masks

    @classmethod
    def _of(cls, ring: CohomologyRing, masks: dict) -> "CohomologyClass":
        """Wrap a {bitmask: nonzero coefficient} dict without copying it."""
        self = cls.__new__(cls)
        self.ring = ring
        self._coeffs = masks
        return self

    def coefficient(self, indices) -> int:
        """The integer in front of the squarefree monomial on these indices."""
        mask = self.ring._mask(indices)
        return 0 if mask is None else self._coeffs.get(mask, 0)

    def terms(self):
        """All (sorted index tuple, coefficient) pairs, graded then lex: a
        lex sort of the index tuples, then a stable one by their length."""
        terms = sorted((tuple([j for j, bit in enumerate(bin(mask)[:1:-1], 1)
                               if bit == "1"]), value)
                       for mask, value in self._coeffs.items())
        return tuple(sorted(terms, key=lambda term: len(term[0])))

    def graded_part(self, size: int) -> "CohomologyClass":
        """The terms on monomials of exactly `size` variables (degree 2*size)."""
        return CohomologyClass._of(self.ring, {
            mask: value for mask, value in self._coeffs.items()
            if mask.bit_count() == size})

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic ---------------------------------------------------

    def _match(self, other: "CohomologyClass") -> "CohomologyClass":
        if not isinstance(other, CohomologyClass):
            raise ValidationError("expected a CohomologyClass")
        if other.ring != self.ring:
            raise ValidationError("classes live in different rings")
        return other

    def __add__(self, other):
        other = self._match(other)
        merged = dict(self._coeffs)
        _accumulate(merged, other._coeffs)
        return CohomologyClass._of(self.ring, merged)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return CohomologyClass._of(self.ring, {} if not other else {
                mask: other * value for mask, value in self._coeffs.items()})
        other = self._match(other)
        ring = self.ring
        product = {}
        for right, scale in other._coeffs.items():
            part = self._coeffs
            while right and part:
                low = right & -right
                part = ring._times_linear(part, ((low.bit_length(), 1),))
                right ^= low
            _accumulate(product, part, scale)
        return CohomologyClass._of(ring, product)

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.ring == other.ring and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.ring, frozenset(self._coeffs.items())))

    def __repr__(self):
        return f"CohomologyClass({self.terms()!r})"


# ===================================================================
# Module-level operations
# ===================================================================

def cohomology_ring(c: IntegralSequence, k: int) -> CohomologyRing:
    """The stage-k ring carrier for the tower c."""
    return CohomologyRing(c, k)


def presentation(c: IntegralSequence, k: int) -> RingPresentation:
    """The linear forms defining the relation ideal."""
    return RingPresentation(c, k)


def normal_form(c: IntegralSequence, k: int, poly) -> CohomologyClass:
    """Reduce an integer polynomial to its squarefree representative."""
    return CohomologyRing(c, k).from_polynomial(poly)


def multiply(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Exact product of two classes over the same ring."""
    if not isinstance(a, CohomologyClass):
        raise ValidationError("expected a CohomologyClass")
    return a * b


def betti(c: IntegralSequence, k: int):
    """Ranks of the even-degree groups: binomial(k, i) for i = 0..k."""
    return _ranks(_check_sequence(c).check_stage(k))


def _ranks(k: int) -> list:
    """betti's ranks for a stage k its caller has checked."""
    return [math.comb(k, i) for i in range(k + 1)]


def integrate(a: CohomologyClass) -> int:
    """The coefficient of the full top monomial x_1 ... x_k."""
    if not isinstance(a, CohomologyClass):
        raise ValidationError("expected a CohomologyClass")
    return a.coefficient(range(1, a.ring.k + 1))


def ray_class(c: IntegralSequence, k: int, j: int, gamma: int) -> CohomologyClass:
    """The divisor class of the fan generator a_{j,gamma}."""
    return CohomologyRing(c, k).ray_class(j, gamma)


def character_class(c: IntegralSequence, k: int, exps) -> CohomologyClass:
    """The first Chern class of a character line bundle."""
    return CohomologyRing(c, k).character_class(exps)


def _chern_presentation(c: IntegralSequence, k: int) -> RingPresentation:
    """presentation(c, k), once k is checked to be a stage of c under the
    cap of a 2^k-coefficient table: a refused stage reads no twist, and
    that check is the only one of k."""
    _check_table_stage(c, k, "the total Chern class", "coefficients")
    return RingPresentation(c, k, _checked=True)


def _total_chern_table(p: RingPresentation) -> list:
    """The total Chern class of the stage p.k ring as 2^k coefficients
    indexed by mask.

    It reads the rows of `p`, the presentation `_chern_presentation(c, k)`
    returns once the stage cap has passed k, so a refused stage reads no
    twist.  Row j is (c(1,j), ..., c(j-1,j), 1), and its nonzero twists
    serve the stages above.  The product with m_j resolves
    x_i for i = j-1, ..., 1 as `_times_linear` does, but pending
    coefficients depend only on the bits above i-1, so pend[h-1] holds one
    for x_h per block of 2^i masks that share them: x_i adds a times each
    block's lower half into its upper half (`sequences._add_halves`), then
    the blocks split in two and the half with x_i adds -a c(h,i) to x_h.
    """
    twists = [()]  # twists[i]: the nonzero (h, c(h,i)) of row i
    table = [1]
    for row in p.relations:
        out = table.copy()
        column = row[:-1]
        twists.append([(h, value) for h, value in enumerate(column, 1)
                       if value])
        pend = [[value] for value in column]
        for i in range(len(column), 0, -1):
            a = pend.pop()
            _add_halves(out, table, 1 << (i - 1), a)
            for h, col in enumerate(pend):
                pend[h] = split = col * 2
                split[::2] = split[1::2] = col
            for h, value in twists[i]:
                pend[h - 1][1::2] = map(sub, pend[h - 1][1::2],
                                        map(value.__mul__, a))
        out += map(add, table, table)  # the x_j half: 2 x_j total_{j-1}
        table = out
    return table


def total_chern_class(c: IntegralSequence, k: int) -> CohomologyClass:
    """The product over stages of 1 + L_j, L_j = ray class (j,0) + (j,1):
    the nonzero entries of the flat table of the module docstring, in a
    ring whose twists come from the same presentation rows, so the stored
    twists are read in one pass."""
    p = _chern_presentation(c, k)
    return CohomologyClass._of(CohomologyRing(c, k, p), {
        mask: value for mask, value in enumerate(_total_chern_table(p))
        if value})


def top_chern_class(c: IntegralSequence, k: int) -> CohomologyClass:
    """The top graded part of the total Chern class: the product of the L_j.

    After j factors the product lies in the top degree of the subring on
    x_1, ..., x_j, so it is a single term; each step rewrites one monomial
    and costs O(j^2), against the 2^k terms of the total class.
    """
    ring = CohomologyRing(c, k)
    top = {0: 1}
    for j in range(1, k + 1):
        top = ring._times_linear(top, ring._twists[j] + ((j, 2),))
    return CohomologyClass._of(ring, top)


def euler_characteristic(c: IntegralSequence, k: int) -> int:
    """The integral of the top Chern class; always 2^k for a tower."""
    return integrate(top_chern_class(c, k))
