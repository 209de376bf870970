"""Affine-chart monomial data: dual generators and transition matrices.

Each binary code w picks one maximal cone of the stage-k fan.  The dual cone
is spanned by k integer vectors (the dual generators), which pair to the
identity against the fan generators a_{1,w_1}, ..., a_{k,w_k}.  The chart's
coordinate ring is the polynomial ring on the k Laurent monomials with those
exponents, and two charts glue through the integer matrix carrying one
exponent basis to the other.

Everything is exponent data: a monomial is its integer exponent vector, a
monomial map between charts is an integer matrix, and all gluing identities
are exact matrix identities.
"""

from __future__ import annotations

from . import linalg
from .errors import ValidationError
from .sequences import (IntegralSequence, _check_code, _check_int,
                        _check_range, _check_sequence, _prepend, bott_matrix)


def index_sets(w, i: int, j: int):
    """Split the open interval (i, j) into its ones and zeros under w.

    Returns two sorted tuples: positions l with i < l < j and w_l = 1, and
    those with w_l = 0.
    """
    w = _check_code(w)
    _check_range(i, "i", 1, len(w))
    _check_range(j, "j", 1, len(w))
    if not i < j:
        raise ValidationError(f"need i < j, got i={i}, j={j}")
    ones = tuple(l for l in range(i + 1, j) if w[l - 1] == 1)
    zeros = tuple(l for l in range(i + 1, j) if w[l - 1] == 0)
    return ones, zeros


def prefix_set(w, j: int):
    """Positions l < j with w_l = 1, as a sorted tuple."""
    w = _check_code(w)
    _check_range(j, "j", 1, len(w))
    return tuple(l for l in range(1, j) if w[l - 1] == 1)


def dual_generators(c: IntegralSequence, k: int, w):
    """The k vectors dual to the fan generators selected by the code w.

    The j-th vector is (-1)^{w_j} (e_j + sum over l in the ones-prefix of j
    of b({l} union zeros(l,j) union {j}) e_l), where zeros(l,j) are the
    zero positions of w strictly between l and j.  Pairing the j-th vector
    with a_{m,w_m} gives the Kronecker delta.
    """
    return _dual_generators(
        c, k, _check_code(w, _check_sequence(c).check_stage(k)))


def _dual_generators(c: IntegralSequence, k: int, w: tuple):
    """dual_generators for a checked sequence, stage and code.  For each j,
    the sets {l} + zeros(l, j) + {j}, l = j-1, ..., 1, share one suffix pass:
    a zero position l joins the chain of later sets."""
    entries = c._entries
    vectors = []
    for j in range(1, k + 1):
        sign = -1 if w[j - 1] == 1 else 1
        vec = [0] * k
        vec[j - 1] = sign
        chain, values = [j], [-1]  # zeros(l, j) + {j}, b of their suffixes
        for l in range(j - 1, 0, -1):
            value = _prepend(entries, l, chain, values)
            if w[l - 1] == 1:
                vec[l - 1] = sign * value
            else:
                chain.append(l)
                values.append(value)
        vectors.append(tuple(vec))
    return vectors


def _prefix_rows(table: list, k: int):
    """Every dual generator u_j(w) once per prefix (w_1, ..., w_j), with the
    Bott numbers read from `table = sequences._bott_table(c, k)`.

    u_j(w) depends on w_1..w_j only, so a depth-first walk over the codes in
    binary order yields (j, w_j, u_j(w)) once per prefix: sum_j 2^j rows
    instead of k 2^k, and the rows of a code are the last ones yielded at
    depths 1..k when j reaches k.  The two prefixes ending in w_j = 0 and 1
    share the unsigned row.  A node carries, for each l < j with w_l = 1,
    the mask of {l} + zeros(l, j) awaiting j.
    """
    def node(j, ones):
        vec = [0] * k
        vec[j - 1] = 1
        bit = 1 << (j - 1)
        for l, chain in ones:
            vec[l - 1] = table[chain | bit]
        return (j, 1, ones, vec), (j, 0, ones, vec)

    stack = [*node(1, ())]
    while stack:
        j, bit, ones, vec = stack.pop()
        yield j, bit, (tuple([-x for x in vec]) if bit else tuple(vec))
        if j < k:
            mask = 1 << (j - 1)
            ones = (ones + ((j, mask),) if bit
                    else tuple([(l, chain | mask) for l, chain in ones]))
            stack += node(j + 1, ones)


class LaurentMonomial:
    """A monomial in k chart variables, stored as its exponent vector."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        vec = tuple(_check_int(x, "exponent") for x in exps)
        if not vec:
            raise ValidationError("monomial needs at least one exponent")
        self.exps = vec

    def __eq__(self, other):
        if not isinstance(other, LaurentMonomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"LaurentMonomial({self.exps!r})"


class DualChart:
    """One affine chart: code, dual generators, and chart monomials."""

    __slots__ = ("code", "upsilon", "phi")

    def __init__(self, code, upsilon):
        self.code = tuple(code)
        self.upsilon = tuple(tuple(v) for v in upsilon)
        self.phi = tuple(LaurentMonomial(v) for v in self.upsilon)

    def __repr__(self):
        return f"DualChart(code={self.code!r})"


def dual_chart(c: IntegralSequence, k: int, w) -> DualChart:
    """Bundle the dual generators and chart monomials of one code."""
    w = _check_code(w, _check_sequence(c).check_stage(k))
    return DualChart(w, _dual_generators(c, k, w))


def chart_ring(c: IntegralSequence, k: int, w):
    """The chart's coordinate monomials, one per dual generator."""
    return list(dual_chart(c, k, w).phi)


def transition(c: IntegralSequence, k: int, w, w2):
    """The integer matrix rewriting one chart's monomials in another's.

    Row i gives the exponents of the target chart's i-th monomial as a
    product of the source chart's monomials: U(w2) A(w), where U(w) has the
    exponent basis as rows and A(w) the generators a_{m,w_m} as columns, so
    that U(w) A(w) = I and A(w) is the inverse of the source basis.
    """
    w = _check_code(w, _check_sequence(c).check_stage(k))
    gens = [row if bit else unit for row, unit, bit in
            zip(bott_matrix(c, range(1, k + 1)), linalg.identity(k), w)]
    return linalg.matmul(dual_generators(c, k, w2), linalg.transpose(gens))
