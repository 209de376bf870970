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
GL(Z).  So once the stage order of the ray pairs is known the witness is
fixed: the columns of M are the pairs' first rays, B = M^-1 (second rays),
and C = -B^-1.  The stage order comes from peeling: the top stage is a pair
of rays summing to zero, and collapsing it leaves the rays of the tower one
stage down, in the coordinates a unimodular change of basis gives them.
"""

from __future__ import annotations

from . import linalg
from .errors import RejectionError, ValidationError
from .fans import (BottFan, GeneralFan, _as_general, _crosspolytope_pairing,
                   _smoothness_report, _tower_pairs, build_fan, is_complete)
from .sequences import IntegralSequence, _check_range

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
    if isinstance(fan, BottFan):
        return _tower_pairs(fan.k)
    return _crosspolytope_pairing(_as_general(fan))


def _zero_sum_index(rays, pairs):
    """0-based index of the first pair whose rays (in ``rays``) sum to zero.

    Raises the "no zero-sum pair" rejection, with every pair's sum as the
    witness, when there is none.
    """
    sums = [[a + b for a, b in zip(rays[p], rays[q])] for p, q in pairs]
    for idx, total in enumerate(sums):
        if not any(total):
            return idx
    raise RejectionError("no zero-sum pair", {"pair_sums": sums})


def find_opposite_pair(fan) -> int:
    """Smallest 1-based pair index whose two rays sum to zero.

    Raises the "no zero-sum pair" rejection when every pair has a nonzero
    sum (possible only for non-complete fans).
    """
    gf = _as_general(fan)
    return _zero_sum_index(gf.rays, crosspolytope_check(gf)) + 1


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
    pairs = crosspolytope_check(gf)
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
        if linalg.gcd_vector(head) != 1:  # zero or imprimitive
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


def _stage_order(rays, pairs):
    """0-based indices into ``pairs`` of the tower stages 1, ..., k.

    Each round peels the top live stage: the first live pair whose images
    sum to zero.  complete_to_basis moves it onto the last axis, and the
    other images drop that coordinate, giving the rays of the quotient fan,
    whose pairing is the live pairs; its cones are never needed.
    """
    images = list(rays)
    live = list(range(len(pairs)))
    peeled = []
    while live:
        stage = live.pop(_zero_sum_index(images, [pairs[t] for t in live]))
        peeled.append(stage)
        transform = linalg.complete_to_basis(images[pairs[stage][0]])
        for t in live:
            for r in pairs[t]:
                images[r] = linalg.matvec(transform, images[r])[:-1]
    return peeled[::-1]


def _tower_witness(rays, pairs):
    """The ClassificationResult whose matrix M sends a_{i,gamma} to
    rays[ray_map[2(i-1)+gamma]], or None when any step fails.  No cone is
    read: those of a checked pairing, or of a tower fan paired as
    (2i, 2i+1), are the 2^k transversals of the pairs, and ray_map sends
    tower pair i onto pair order[i-1], hence its transversals onto theirs."""
    try:
        order = _stage_order(rays, pairs)
        stages = [pairs[t] for t in order]
        matrix = tuple(zip(*(rays[p] for p, _ in stages)))
        inverse = linalg.invert_unimodular(matrix)
        neg_c = linalg.invert_unimodular(
            [linalg.matvec(inverse, rays[q]) for _, q in stages])
    except (RejectionError, ValidationError):
        return None
    k = len(stages)
    sequence = IntegralSequence(k, {(i + 1, j + 1): -neg_c[i][j]
                                    for i in range(k) for j in range(i + 1, k)})
    ray_map = tuple(r for pair in stages for r in pair)
    for r, ray in enumerate(build_fan(sequence, k).rays()):
        if linalg.matvec(matrix, ray) != rays[ray_map[r]]:
            return None
    return ClassificationResult(sequence, tuple(t + 1 for t in order), matrix,
                                ray_map)


def classify(fan, seed: int = 0) -> ClassificationResult:
    """Recover tower data from a fan, or explain why none exists.

    Witness first: after the crosspolytope pairing (a BottFan's stage pairs
    (2i, 2i+1), no cone listed), finds the stage order of the ray pairs and
    reads the witness off it (the first rays of the pairs, in stage order,
    are the columns of the matrix M, the rows of the Bott matrix B are M^-1
    applied to the second rays, c(i,j) = -(B^-1)[i][j]), then checks
    exactly that M maps the standard fan of the recovered sequence onto the
    input through ray_map.  Such a fan is smooth and complete, so no cone
    determinant is computed.  Only a fan with no witness goes through the
    ordered checks (smoothness, completeness), which choose the rejection;
    one that passes them, or a BottFan without one, would contradict the
    converse theorem and raises RuntimeError.  ``seed`` has no effect.
    """
    if isinstance(fan, BottFan):
        witness = _tower_witness(fan.rays(), _tower_pairs(fan.k))
    else:
        gf = _as_general(fan)
        try:
            witness = _tower_witness(gf.rays, crosspolytope_check(gf))
            if witness is None:
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
