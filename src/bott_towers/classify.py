"""Recognition of tower fans among general fans.

Given any complete smooth fan whose rays pair up into minimal non-faces
forming a combinatorial crosspolytope, this module recovers an integral
twist sequence, a unimodular coordinate change, and a ray relabeling that
reproduce the input exactly from the standard fan of that sequence.  A fan
reproduced so is smooth and complete because the tower fan is, so
recognition is witness first and costs no per-cone determinant; only a fan
without a witness goes through the structural checks, and is rejected with
a stable reason code and a witness of the first failure.

The tower fan of a sequence has a_{i,0} = e_i and a_{i,1} = row i of its
Bott matrix B, and every smooth complete crosspolytope fan is one up to
GL(Z).  So in the basis of the pairs' first rays the second rays are the
rows of B up to one permutation, the stage order.  The top live stage is
the first live pair whose second ray is -e_t on every live coordinate: its
rays sum to zero modulo the stages above.  The columns of M are the first
rays in stage order, B is the second rays' coordinates in it (one solve,
or none for a BottFan, whose first rays are e_1, ..., e_k and whose second
rays are the rows of B), and C = -B^-1 by the row kernel of `sequences`
(-B is unitriangular), so bott_matrix(C) = B: M maps the tower onto the
input.

The ``check`` command's four verdicts are decided here by the same rule.
A fan whose pairs have a stage matrix is smooth, complete and a
crosspolytope, and Fano exactly when the primitive relations of its stage
matrix say so; any other fan gets each verdict from its own exact test, a
rejection counting as False.
"""

from __future__ import annotations

from math import gcd

from . import linalg
from .errors import RejectionError, ValidationError
from .fans import (BottFan, GeneralFan, _as_general, _fano_condition, _pairs,
                   _rays, _smoothness_report, _tower_fano, is_complete,
                   is_smooth)
from .sequences import IntegralSequence, _bott_rows, _check_range

__all__ = [
    "ClassificationResult",
    "classify",
    "crosspolytope_check",
    "find_opposite_pair",
    "project",
]


class ClassificationResult:
    """Outcome of classifying a fan: recovered tower data or a rejection.

    On success, ``sequence`` is the recovered twist sequence, ``matrix`` a
    unimodular integer matrix (tuple of row tuples), and ``ray_map`` sends
    the standard fan's ray position 2*(i-1)+gamma to the input ray index,
    so that ``matrix`` applied to the standard generators reproduces the
    input rays and cones exactly.  ``order[s-1]`` is the 1-based index,
    into the input's pair list, of the ray pair realizing tower stage s.

    On rejection, ``reject`` holds the reason code and ``witness`` the
    data of the first failure; all other fields are None.
    """

    __slots__ = ("sequence", "order", "matrix", "ray_map", "reject", "witness")

    def __init__(self, sequence=None, order=None, matrix=None, ray_map=None,
                 reject=None, witness=None):
        self.sequence = sequence
        self.order = order
        self.matrix = matrix
        self.ray_map = ray_map
        self.reject = reject
        self.witness = witness

    @property
    def ok(self) -> bool:
        return self.reject is None

    def __repr__(self):
        if self.ok:
            return (f"ClassificationResult(sequence={self.sequence!r}, "
                    f"order={self.order!r}, matrix={self.matrix!r}, "
                    f"ray_map={self.ray_map!r})")
        return (f"ClassificationResult(reject={self.reject!r}, "
                f"witness={self.witness!r})")


def crosspolytope_check(fan):
    """The opposite-ray pairing of a crosspolytope fan.

    Returns the list of ray-index pairs (each ascending, sorted by the
    smaller member) such that paired rays never share a cone and every
    one-ray-per-pair selection is a maximal cone.  Raises RejectionError
    with code "ray count odd", "no valid pairing", or "cone set not full
    binary cube" when the combinatorics do not match.  A BottFan is paired
    as (2i, 2i + 1) by construction, without its cones.
    """
    return _pairs(fan)


def find_opposite_pair(fan) -> int:
    """Smallest 1-based pair index whose two rays sum to zero.

    Raises the "no zero-sum pair" rejection, with every pair's sum as the
    witness, when there is none (possible only for non-complete fans).
    """
    rays = _rays(fan)
    sums = [[a + b for a, b in zip(rays[p], rays[q])]
            for p, q in crosspolytope_check(fan)]
    for idx, total in enumerate(sums, 1):
        if not any(total):
            return idx
    raise RejectionError("no zero-sum pair", {"pair_sums": sums})


def project(fan, pair_index: int) -> GeneralFan:
    """The quotient fan obtained by collapsing one zero-sum ray pair.

    ``pair_index`` is 1-based into the pairing returned by
    crosspolytope_check.  The pair's rays must sum to zero; the surviving
    rays project along the pair's axis to a fan one dimension down.  For a
    tower fan and its last pair this is exactly the fan of the truncated
    sequence.  Raises the "projection degenerate" rejection when the images
    of the surviving rays are zero, imprimitive, or collide, and
    ValidationError on a 1-dimensional fan, which has no quotient.
    """
    gf = _as_general(fan)
    if gf.dim == 1:
        raise ValidationError("no quotient below dimension 1")
    pairs = crosspolytope_check(fan)
    _check_range(pair_index, "pair_index", 1, len(pairs))
    p, q = pairs[pair_index - 1]
    if any(a + b != 0 for a, b in zip(gf.rays[p], gf.rays[q])):
        raise ValidationError(
            f"pair {pair_index} rays do not sum to zero")
    transform = linalg.complete_to_basis(gf.rays[p])
    kept = [t for t in range(len(gf.rays)) if t not in (p, q)]
    heads = []
    seen = {}
    for t in kept:
        head = linalg.matvec(transform, gf.rays[t])[:-1]
        if gcd(*head) != 1:  # zero or imprimitive
            raise RejectionError("projection degenerate",
                                 {"ray": t, "image": list(head)})
        if head in seen:
            raise RejectionError("projection degenerate",
                                 {"rays": [seen[head], t], "image": list(head)})
        seen[head] = t
        heads.append(head)
    renumber = {t: r for r, t in enumerate(kept)}
    cones = [tuple(sorted(renumber[t] for t in cone if t != p))
             for cone in gf.cones if p in cone]
    return GeneralFan(gf.dim - 1, heads, cones)


def _stage_matrix(d, y):
    """(order, B), the 0-based stage order and the Bott matrix, or None,
    from the second rays' coordinates y = d x of :func:`_staged`; d y is x
    if d = +-1 and has no -1 entry otherwise.  The top live stage, the
    first live t with x[t] = -e_t on every live coordinate, goes in front,
    so B (x in stage order) is upper triangular with -1 on the diagonal.
    bad[t] counts the live coordinates where x[t] differs from -e_t, so a
    round costs O(k): a pick drops its coordinate from every count."""
    x = y if d == 1 else [[d * v for v in row] for row in y]
    bad = [len(row) - row.count(0) + (row[t] == 0) - (row[t] == -1)
           for t, row in enumerate(x)]
    live, order = list(range(len(x))), []
    while live:
        if (top := next((t for t in live if not bad[t]), None)) is None:
            return None
        order.insert(0, top)
        live.remove(top)
        for t in live:
            bad[t] -= x[t][top] != 0
    return order, [[x[t][s] for s in order] for t in order]


def _staged(rays, pairs, fan=None):
    """The stage matrix of the pairs of a fan with these rays, or None.  A
    BottFan's first rays are e_1, ..., e_k, so its second rays, the rows of
    its Bott matrix, are their own coordinates: d = 1, nothing solved.  Any
    other fan pays one solve for d = det M0, M0 the first rays as columns,
    and y[t] = d x[t], x[t] the second ray of pair t in that basis;
    dependent first rays have no stage matrix."""
    firsts, seconds = [rays[p] for p, _ in pairs], [rays[q] for _, q in pairs]
    try:
        d, y = (1, seconds) if isinstance(fan, BottFan) else (
            linalg.solve_fraction_free(list(zip(*firsts)), seconds))
    except ValidationError:
        return None
    return _stage_matrix(d, y)


def _tower_witness(rays, pairs, order, b):
    """The ClassificationResult whose matrix M sends a_{i,gamma} to
    rays[ray_map[2(i-1)+gamma]], for the stage matrix (order, B) of the
    pairs.  C := -B^-1 is exact: -B is unitriangular, so the row kernel
    gives K(-B) = B^-1 and C = -K(-B), whence bott_matrix(c) = -C^-1 = B
    and M a_{i,1} = sum_j B[i][j] M e_j is the second ray of stage i;
    M a_{i,0} = M e_i is its first.  No cone is read: the cones of a checked
    pairing, or of a tower fan paired as (2i, 2i+1), are the 2^k
    transversals of the pairs, and ray_map sends pairs to pairs.  The
    twists of K above its diagonal are 1 <= i < j <= k by construction, so
    the sequence stores them with no check."""
    k = len(order)
    inverse = _bott_rows({(i, j): -x for i, row in enumerate(b) for j, x
                          in enumerate(row[i + 1:], i + 1) if x}, range(k))
    stages = [pairs[t] for t in order]
    return ClassificationResult(  # row i of K, right to left, ends at K[i][i]
        IntegralSequence._of(k, {(i + 1, k - s): -x
                                 for i, row in enumerate(inverse)
                                 for s, x in enumerate(row[:-1]) if x}),
        tuple(t + 1 for t in order),
        tuple(zip(*(rays[p] for p, _ in stages))),
        tuple(r for pair in stages for r in pair))


def classify(fan) -> ClassificationResult:
    """Recover tower data from a fan, or explain why none exists.

    Witness first: after the crosspolytope pairing (a BottFan's stage pairs
    (2i, 2i+1), no cone listed), reads the witness off the coordinates of
    the second rays in the basis of the first rays: their order gives the
    stages, the first rays in stage order are the columns of the matrix M,
    the coordinates in stage order are the Bott matrix B, and c(i,j) =
    -(B^-1)[i][j]; then bott_matrix(c) = B, so M maps the standard fan of c
    onto the input through ray_map.  Such a fan is smooth and complete, so
    no cone determinant is computed, and a BottFan always has a witness.
    Only a fan with no witness goes through the ordered checks (smoothness,
    completeness), which choose the rejection; one that passes them would
    contradict the converse theorem and raises RuntimeError.
    """
    try:
        rays, pairs = _rays(fan), crosspolytope_check(fan)
        staged = _staged(rays, pairs, fan)
        witness = staged and _tower_witness(rays, pairs, *staged)
        if witness is None:
            gf = _as_general(fan)
            smooth, report = _smoothness_report(gf)
            if not smooth:
                raise RejectionError("not smooth", report)
            if not is_complete(gf):
                raise RejectionError("not complete")
    except RejectionError as err:
        return ClassificationResult(reject=err.code, witness=err.witness)
    if witness is None:
        raise RuntimeError("classification found no tower witness for a "
                           "smooth complete crosspolytope fan")
    return witness


def _verdicts(fan) -> dict:
    """The ``check`` document of a fan: its smooth, complete, Fano and
    crosspolytope verdicts, witness first as in classify.  A stage matrix
    of the pairs makes the fan smooth and complete with no cone
    determinant, and gives its Fano verdict; without one, each verdict
    comes from its own test, and only a complete fan is tested for Fano."""
    def holds(predicate):
        """predicate(fan), a rejection counting as False."""
        try:
            return predicate(fan)
        except RejectionError:
            return False

    pairs = holds(crosspolytope_check)
    if staged := pairs and _staged(_rays(fan), pairs, fan):
        complete = smooth = True  # a tower fan up to GL(Z)
        fano = _tower_fano(staged[1])
    else:  # in this order, so that is_smooth reads memoised determinants
        complete, smooth = holds(is_complete), holds(is_smooth)
        fano = complete and _fano_condition(fan)
    return {"smooth": smooth, "complete": complete, "fano": fano,
            "crosspolytope": bool(pairs)}
