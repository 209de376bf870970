"""Recognition of tower fans among general fans.

Given any complete smooth fan whose rays pair up into minimal non-faces
forming a combinatorial crosspolytope, this module recovers an integral
twist sequence, a unimodular coordinate change, and a ray relabeling that
reproduce the input exactly from the standard fan of that sequence.  Inputs
that fail one of the structural conditions are rejected with a stable
reason code and a witness of the first failure.

The recovery peels one zero-sum ray pair at a time: a unimodular change of
basis moves the pair onto the last coordinate axis, the remaining rays
project to a fan one dimension down, and the discarded last coordinates are
support-function values from which the next column of twists is solved
back.  Recursing on the projected fan yields the full sequence, and the
witness matrix is assembled from the per-stage basis changes.
"""

from __future__ import annotations

from . import linalg
from .bundles import extend_sequence, support_function
from .errors import RejectionError, ValidationError
from .fans import (
    GeneralFan,
    _as_general,
    _crosspolytope_pairing,
    _smoothness_report,
    binary_codes,
    build_fan,
    is_complete,
)
from .sequences import IntegralSequence, _check_int

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
    binary cube" when the combinatorics do not match.
    """
    return _crosspolytope_pairing(_as_general(fan))


def _zero_sum_index(gf: GeneralFan, pairs):
    """0-based index of the first pair whose rays sum to zero.

    Raises the "no zero-sum pair" rejection, with every pair's sum as the
    witness, when there is none.
    """
    sums = [[a + b for a, b in zip(gf.rays[p], gf.rays[q])] for p, q in pairs]
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
    return _zero_sum_index(gf, crosspolytope_check(gf)) + 1


def _project_pair(gf: GeneralFan, p: int, q: int):
    """Quotient the fan by the zero-sum ray pair (p, q).

    Returns (quotient, transform, kept, transformed): the fan one dimension
    down, the unimodular map sending ray p to the last basis vector, the
    ascending list of surviving ray indices, and all transformed rays.
    Raises the "projection degenerate" rejection when the images of the
    surviving rays are zero, imprimitive, or collide.
    """
    transform = linalg.complete_to_basis(gf.rays[p])
    transformed = [tuple(linalg.matvec(transform, ray)) for ray in gf.rays]
    kept = [t for t in range(len(gf.rays)) if t not in (p, q)]
    heads = []
    seen = {}
    for t in kept:
        head = transformed[t][:-1]
        if all(x == 0 for x in head) or linalg.gcd_vector(head) != 1:
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
    try:
        quotient = GeneralFan(gf.dim - 1, heads, cones)
    except ValidationError as exc:
        raise RejectionError("projection degenerate",
                             {"detail": str(exc)}) from exc
    return quotient, transform, kept, transformed


def project(fan, pair_index: int) -> GeneralFan:
    """The quotient fan obtained by collapsing one zero-sum ray pair.

    ``pair_index`` is 1-based into the pairing returned by
    crosspolytope_check.  The pair's rays must sum to zero; the surviving
    rays project along the pair's axis to a fan one dimension down.  For a
    tower fan and its last pair this is exactly the fan of the truncated
    sequence.
    """
    gf = _as_general(fan)
    pairs = crosspolytope_check(gf)
    _check_int(pair_index, "pair index")
    if not 1 <= pair_index <= len(pairs):
        raise ValidationError(
            f"pair index {pair_index} outside 1..{len(pairs)}")
    p, q = pairs[pair_index - 1]
    if any(a + b != 0 for a, b in zip(gf.rays[p], gf.rays[q])):
        raise ValidationError(
            f"pair {pair_index} rays do not sum to zero")
    return _project_pair(gf, p, q)[0]


def _peel(gf: GeneralFan, pairs):
    """Recursively strip zero-sum pairs off a crosspolytope fan.

    ``pairs`` is the fan's crosspolytope pairing.  Returns (sequence,
    matrix, ray_map, order) with matrix as a list of rows; the peeled pair
    becomes the final tower stage.  Raises RejectionError when the fan (or
    any quotient) fails a structural condition.

    The pairing is never searched for again.  The quotient by the pair
    (p, q) is the link of p, whose cones pick one ray from each other pair:
    a full binary cube on the other pairs, in which only paired rays never
    share a cone.  Renumbered through ``kept``, which keeps their order,
    the other pairs are exactly what a fresh search of the quotient
    returns, in the same order.
    """
    idx = _zero_sum_index(gf, pairs)
    p, q = pairs[idx]
    m = gf.dim
    if m == 1:
        return (IntegralSequence(1), [[gf.rays[p][0]]], (p, q), (idx + 1,))
    quotient, transform, kept, transformed = _project_pair(gf, p, q)
    sub_pairs = [(kept.index(a), kept.index(b))
                 for t, (a, b) in enumerate(pairs) if t != idx]
    sub_seq, sub_matrix, sub_ray_map, sub_order = _peel(quotient, sub_pairs)
    values = {}
    for l in range(1, m):
        for gamma in (0, 1):
            old = kept[sub_ray_map[2 * (l - 1) + gamma]]
            values[(l, gamma)] = transformed[old][-1]
    h = support_function(sub_seq, m - 1, values)
    column = extend_sequence(sub_seq, m - 1, h)
    sequence = sub_seq.extend(column)
    # witness = transform^-1 . diag(sub_matrix, 1) . shear, where the shear
    # restores the last coordinates of the lifted generators
    shear = linalg.identity(m)
    shear[m - 1] = [values[(i, 0)] for i in range(1, m)] + [1]
    block = [list(row) + [0] for row in sub_matrix] + [[0] * (m - 1) + [1]]
    matrix = linalg.matmul(linalg.invert_unimodular(transform),
                           linalg.matmul(block, shear))
    ray_map = tuple(kept[sub_ray_map[2 * (l - 1) + gamma]]
                    for l in range(1, m) for gamma in (0, 1)) + (p, q)
    remaining = [t + 1 for t in range(len(pairs)) if t != idx]
    order = tuple(remaining[s - 1] for s in sub_order) + (idx + 1,)
    return sequence, matrix, ray_map, order


def _verify_witness(gf: GeneralFan, sequence, matrix, ray_map):
    """Check the success invariant exactly; raise RuntimeError if broken."""
    n = sequence.n
    if len(gf.rays) != 2 * n or sorted(ray_map) != list(range(2 * n)):
        raise RuntimeError("classification produced an invalid ray relabeling")
    if abs(linalg.det(matrix)) != 1:
        raise RuntimeError("classification witness is not unimodular")
    tower = build_fan(sequence, n)
    for i in range(1, n + 1):
        for gamma in (0, 1):
            image = tuple(linalg.matvec(matrix, tower.generator(i, gamma)))
            if image != gf.rays[ray_map[2 * (i - 1) + gamma]]:
                raise RuntimeError(
                    "classification witness does not reproduce the rays")
    mapped = {tuple(sorted(ray_map[2 * (i - 1) + w[i - 1]]
                           for i in range(1, n + 1)))
              for w in binary_codes(n)}
    if mapped != set(gf.cones):
        raise RuntimeError(
            "classification witness does not reproduce the cones")


def classify(fan, seed: int = 0) -> ClassificationResult:
    """Recover tower data from a fan, or explain why none exists.

    Runs the structural checks in order (crosspolytope pairing, smoothness,
    completeness), then peels the fan down to dimension one, solving the
    twist columns back from the discarded coordinates.  A success result is
    verified exactly before being returned: the matrix maps the standard
    fan of the recovered sequence onto the input rays and cones through
    ray_map.  ``seed`` is accepted for compatibility and has no effect.
    """
    gf = _as_general(fan)
    try:
        pairs = crosspolytope_check(gf)
        smooth, witness = _smoothness_report(gf)
        if not smooth:
            raise RejectionError("not smooth", witness)
        if not is_complete(gf):
            raise RejectionError("not complete")
        sequence, matrix, ray_map, order = _peel(gf, pairs)
    except RejectionError as err:
        return ClassificationResult(reject=err.code, witness=err.witness)
    _verify_witness(gf, sequence, matrix, ray_map)
    return ClassificationResult(
        sequence=sequence,
        order=tuple(order),
        matrix=tuple(tuple(row) for row in matrix),
        ray_map=tuple(ray_map))
