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

The ``charts`` command lists every chart in one pass per prefix node: u_j(w)
depends on w_1, ..., w_j only, and its values for w_j = 0 and 1 differ by
sign, so :func:`_prefix_rows` yields each node's unsigned row once, 2^k - 1
rows for the 2^k charts, and `serialize.chart_texts` writes both children
from it.
"""

from __future__ import annotations

from . import linalg
from .errors import ValidationError
from .sequences import (IntegralSequence, _bott_rows, _check_code,
                        _check_int, _check_range, _check_sequence,
                        bott_matrix)


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
    one run of the row kernel on the last column of 1..j, the twists into
    the ones below j dropped: row l then holds b({l} + zeros(l, j) + {j})."""
    vectors = []
    for j in range(1, k + 1):
        twists = {(i, t): v for (i, t), v in c._entries.items()
                  if t == j or t < j and not w[t - 1]}
        column = _bott_rows(twists, range(1, j + 1), j - 1)
        sign = -1 if w[j - 1] else 1
        row = [sign * b * bit for (b,), bit in zip(column, w[:j - 1])]
        vectors.append(tuple(row + [sign] + [0] * (k - j)))
    return vectors


def _prefix_rows(table: list, k: int):
    """Every dual generator u_j(w) once per prefix node (w_1, ..., w_{j-1}),
    with the Bott numbers read from `table = sequences._bott_table(c, k)`.

    u_j(w) depends on w_1..w_j only, and its two values for w_j = 0 and 1
    differ by sign, so a depth-first walk over the prefix nodes yields
    (j, row) once per node, row the unsigned u_j (its value for w_j = 0):
    2^k - 1 rows instead of k 2^k.  The walk visits a node's w_j = 0 child
    and its subtree before its w_j = 1 child, so the codes come in binary
    order.  A node carries, for each l < j with w_l = 1, the mask of
    {l} + zeros(l, j) awaiting j.
    """
    stack = [(1, ())]
    while stack:
        j, ones = stack.pop()
        row = [0] * k
        row[j - 1] = 1
        bit = 1 << (j - 1)
        for l, chain in ones:
            row[l - 1] = table[chain | bit]
        yield j, row
        if j < k:
            stack += ((j + 1, (*ones, (j, bit))),
                      (j + 1, tuple([(l, chain | bit) for l, chain in ones])))


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
