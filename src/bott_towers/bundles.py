"""Quotient presentations, character line bundles, and support-function data.

A height-k tower is a quotient of (C^2 \\ 0)^k by a k-torus.  Line bundles
on the tower are recorded by their character exponents: a length-k integer
tuple giving the twist against each stage of the acting torus.  Each
coordinate x_r, y_r carries one such character, and those 2k characters are
the line bundles of the tangent splitting (the Euler sequence of the toric
variety).  `_action_weights` writes them from the twist rows
(c(1,j), ..., c(j-1,j), 1) that `sequences._twist_rows` fills in one pass
over the stored twists, so no column is read; `tangent_splitting`, the
quotient presentation and the ``bundle`` command all take them from there.
The torus sits inside the coordinate torus through k kernel generators,
one per stage: the transpose of the 2k characters.

Support-function data attaches one integer h(i, gamma) to every fan
generator a_{i,gamma}; on the maximal cone of each code w those k numbers
pin down a unique integer linear functional

    r(w) = sum_j h(j, w_j) u_j(w),

where u_j(w) are the chart's dual generators, which pair to the Kronecker
delta against a_{1,w_1}, ..., a_{k,w_k}.  Such data lifts the height-k fan
to a height-(k+1) fan, and the canonical choice (0 on a_{i,0}, the matrix
entry b(i,k+1) on a_{i,1}) reproduces the next tower fan exactly.
"""

from __future__ import annotations

from .charts import _dual_generators
from .errors import ValidationError
from .sequences import (IntegralSequence, _bott_rows, _check_code,
                        _check_int, _check_range, _check_sequence,
                        _twist_rows)


# ===================================================================
# Quotient presentation
# ===================================================================

class QuotientPresentation:
    """The k-torus inside (C*)^{2k} whose quotient is the tower.

    Coordinates are ordered x_1, y_1, ..., x_k, y_k.  `action_weights` gives
    the character of each coordinate, and those 2k characters are the line
    bundles of the tangent splitting (the Euler sequence of the tower);
    `kernel_generators` is their transpose, one exponent vector per stage.

    >>> c = IntegralSequence(2, {(1, 2): 5})
    >>> q = QuotientPresentation(c, 2)
    >>> q.action_weights == tuple(b.exps for b in tangent_splitting(c, 2))
    True
    >>> q.action_weights
    ((1, 0), (1, 0), (0, 1), (5, 1))
    >>> q.kernel_generators
    ((1, 1, 0, 5), (0, 0, 1, 1))
    """

    __slots__ = ("sequence", "k", "kernel_generators", "action_weights")

    def __init__(self, sequence: IntegralSequence, k: int):
        _check_sequence(sequence).check_stage(k)
        self.action_weights = tuple(
            _action_weights(_twist_rows(sequence, k), k))
        self.kernel_generators = tuple(zip(*self.action_weights))
        self.sequence, self.k = sequence, k

    def __repr__(self):
        return f"QuotientPresentation({self.sequence!r}, k={self.k})"


def quotient_presentation(c: IntegralSequence, k: int) -> QuotientPresentation:
    """Kernel generators and coordinate weights of the stage-k quotient."""
    return QuotientPresentation(c, k)


# ===================================================================
# Character line bundles
# ===================================================================

class CharacterBundle:
    """A line bundle recorded by its character exponent tuple."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        vec = tuple(_check_int(x, "character exponent") for x in exps)
        if not vec:
            raise ValidationError("character needs at least one exponent")
        self.exps = vec

    @classmethod
    def _of(cls, exps: tuple) -> "CharacterBundle":
        """Wrap a non-empty tuple of checked integers without re-checking."""
        self = cls.__new__(cls)
        self.exps = exps
        return self

    @property
    def rank(self) -> int:
        return len(self.exps)

    def __mul__(self, other):
        if not isinstance(other, CharacterBundle):
            raise ValidationError("expected a CharacterBundle")
        if other.rank != self.rank:
            raise ValidationError(
                f"character lengths differ: {self.rank} vs {other.rank}")
        return CharacterBundle._of(
            tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, power):
        _check_int(power, "power")
        return CharacterBundle._of(tuple(power * a for a in self.exps))

    def conjugate(self) -> "CharacterBundle":
        """The dual bundle: every exponent negated."""
        return CharacterBundle._of(tuple(-a for a in self.exps))

    def __eq__(self, other):
        if not isinstance(other, CharacterBundle):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"CharacterBundle({self.exps!r})"


def xi_bundle(c: IntegralSequence, k: int) -> CharacterBundle:
    """The stage-k twist bundle: exponents (c(1,k+1), ..., c(k,k+1)).

    Its projectivization (with a trivial summand) produces stage k+1, so it
    only exists when the tower has a stage k+1 to grow into.
    """
    _check_range(k, "k", 1, _check_sequence(c).n - 1)
    return CharacterBundle._of(c.column(k + 1))


def canonical_lambda(k: int) -> CharacterBundle:
    """The tautological bundle of the stage-k fiber: exponents (0,...,0,-1)."""
    _check_range(k, "k")
    return CharacterBundle._of((0,) * (k - 1) + (-1,))


def lambda_bundle(j: int, k: int) -> CharacterBundle:
    """The stage-j tautological bundle pulled back to stage k: -e_j."""
    _check_range(j, "j", 1, _check_int(k, "k"))
    exps = [0] * k
    exps[j - 1] = -1
    return CharacterBundle._of(tuple(exps))


def lambda_perp(c: IntegralSequence, k: int) -> CharacterBundle:
    """The complementary summand of the stage-k tautological bundle.

    Exponents (c(1,k), ..., c(k-1,k), 1): together with canonical_lambda(k)
    it sums to the pullback of the previous stage's twist bundle.
    """
    _check_sequence(c).check_stage(k)
    return CharacterBundle._of(c.column(k) + (1,))


def tangent_splitting(c: IntegralSequence, k: int):
    """One line bundle per fan generator, in ray order.

    Position (j,0) carries the dual of the stage-j tautological bundle
    (exponents e_j); position (j,1) carries (c(1,j), ..., c(j-1,j), 1, 0...).
    These are the characters of the coordinates x_j and y_j, so they are the
    `action_weights` of the quotient presentation, and the kernel generators
    are their transpose.  By the Euler sequence
    0 -> C^k -> L_{1,0} + L_{1,1} + ... + L_{k,1} -> T -> 0 their sum is the
    tangent bundle plus a trivial rank-k bundle.
    """
    _check_sequence(c).check_stage(k)
    return [*map(CharacterBundle._of, _action_weights(_twist_rows(c, k), k))]


def _action_weights(rows, k: int) -> list:
    """The exponents of the tangent splitting, in ray order, from the twist
    rows (c(1,j), ..., c(j-1,j), 1) of stages j = 1..k
    (`sequences._twist_rows`), rows past k ignored: e_j, then row j padded
    with zeros."""
    weights = []
    for j, row in zip(range(1, k + 1), rows):
        tail = (0,) * (k - j)
        weights += ((0,) * (j - 1) + (1,) + tail, (*row, *tail))
    return weights


# ===================================================================
# Support-function data
# ===================================================================

class SupportFunctionData:
    """Integer values on the 2k fan generators, linear on every maximal cone.

    `value(i, gamma)` returns the number attached to generator a_{i,gamma};
    `r(w)` returns the unique integer vector with <r(w), a_{i,w_i}> equal to
    the attached value for every stage i.
    """

    __slots__ = ("sequence", "k", "_values")

    def __init__(self, sequence: IntegralSequence, k: int, values):
        self.sequence = _check_sequence(sequence)
        self.k = sequence.check_stage(k)
        table = {}
        for i in range(1, k + 1):
            for gamma in (0, 1):
                if (i, gamma) not in values:
                    raise ValidationError(
                        f"missing support value for generator ({i},{gamma})")
                table[(i, gamma)] = _check_int(
                    values[(i, gamma)], f"support value ({i},{gamma})")
        if len(values) != 2 * k:
            raise ValidationError(
                f"expected {2 * k} support values, got {len(values)}")
        self._values = table

    def value(self, i: int, gamma: int) -> int:
        key = (i, gamma)
        if key not in self._values:
            raise ValidationError(f"no generator ({i},{gamma})")
        return self._values[key]

    def r(self, w):
        """The linear functional on the maximal cone of the code w:
        sum_j h(j, w_j) u_j(w) over the chart's dual generators u_j(w)."""
        w = _check_code(w, self.k)
        heights = [self._values[key] for key in enumerate(w, 1)]
        duals = _dual_generators(self.sequence, self.k, w)
        return tuple(sum(h * u for h, u in zip(heights, column))
                     for column in zip(*duals))

    def values_table(self):
        """All (i, gamma, value) triples in generator order."""
        return tuple((i, gamma, self._values[(i, gamma)])
                     for i in range(1, self.k + 1) for gamma in (0, 1))

    def __eq__(self, other):
        if not isinstance(other, SupportFunctionData):
            return NotImplemented
        return (self.sequence == other.sequence and self.k == other.k
                and self._values == other._values)

    def __hash__(self):
        return hash((self.sequence, self.k, self.values_table()))

    def __repr__(self):
        return f"SupportFunctionData({self.sequence!r}, k={self.k})"


def support_function(c: IntegralSequence, k: int, values) -> SupportFunctionData:
    """Wrap generator values as per-cone-linear support data."""
    return SupportFunctionData(c, k, values)


def hk_support(c: IntegralSequence, k: int) -> SupportFunctionData:
    """The canonical support data whose lift grows the tower by one stage.

    Assigns 0 to every a_{i,0} and the matrix entry b(i,k+1) to a_{i,1};
    needs the tower to possess a stage k+1 supplying those entries.  That
    last column of the Bott matrix over 1..k+1 is the row kernel on one
    column, whose row i holds the Bott number of the run i..k+1.
    """
    _check_range(k, "k", 1, _check_sequence(c).n - 1)
    rows = _bott_rows(c._entries, range(1, k + 2), k)
    return SupportFunctionData(c, k, {
        (i, gamma): gamma * b for i, (b,) in enumerate(rows[:k], 1)
        for gamma in (0, 1)})


def extend_sequence(c: IntegralSequence, k: int, h: SupportFunctionData):
    """Recover the next column of twists from support data on the stage-k fan.

    Returns (X_1 - r(1..1)_1, ..., X_k - r(1..1)_k) where X_i is the value on
    a_{i,0} and r(1..1) is the functional on the all-ones cone.  For the
    canonical data of a taller tower this is exactly the stored column
    (c(1,k+1), ..., c(k,k+1)).
    """
    _check_sequence(c).check_stage(k)
    if not isinstance(h, SupportFunctionData):
        raise ValidationError("expected SupportFunctionData")
    if h.sequence != c or h.k != k:
        raise ValidationError("support data belongs to a different fan")
    top = h.r((1,) * k)
    return tuple(h.value(i, 0) - top[i - 1] for i in range(1, k + 1))
