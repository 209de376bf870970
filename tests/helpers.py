"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately use different algorithms from the library
(Gaussian elimination over Fraction instead of the triangular recursion,
cofactor expansion instead of Bareiss) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from bott_towers import (
    ClassificationResult,
    GeneralFan,
    IntegralSequence,
    Poset,
    RejectionError,
    ValidationError,
    crosspolytope_check,
    extend_sequence,
    is_complete,
    linalg,
    support_function,
)
from bott_towers.fans import _smoothness_report


def fraction_inverse(matrix):
    """Invert a square integer matrix by Gauss-Jordan over Fraction.

    Returns a list of lists of Fraction.  Raises ZeroDivisionError on a
    singular matrix.
    """
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _guard_big(doc):
    if isinstance(doc, bool):
        return doc
    if isinstance(doc, int):
        return str(doc) if abs(doc) >= 2 ** 53 else doc
    if isinstance(doc, (list, tuple)):
        return [_guard_big(item) for item in doc]
    if isinstance(doc, dict):
        return {key: _guard_big(value) for key, value in doc.items()}
    return doc


def reference_canonical(doc) -> str:
    """The former canonical encoder, kept as a test oracle.

    Integers of magnitude at least 2^53 become decimal strings, then the
    stdlib encoder writes the document with sorted keys and indent 2.
    """
    return json.dumps(_guard_big(doc), sort_keys=True, indent=2) + "\n"


def probe_complete(gf: GeneralFan, probes: int = 100, seed: int = 0) -> bool:
    """The former randomized completeness check, kept as a test oracle.

    Every facet (a cone minus one ray) must lie in exactly two cones, the
    facet graph must be connected, and each of `probes` seeded random
    integer points must lie in some cone, decided by Fraction inverses.
    Sampling can miss an uncovered region or an overlap, so only two
    implications hold: a complete fan gives True, and False means the fan
    is not complete.
    """
    cones = gf.cones
    if not cones:
        return False
    by_facet = {}
    for idx, cone in enumerate(cones):
        for drop in cone:
            facet = tuple(r for r in cone if r != drop)
            by_facet.setdefault(facet, []).append(idx)
    if any(len(owners) != 2 for owners in by_facet.values()):
        return False
    seen = {0}
    queue = [0]
    while queue:
        cone = cones[queue.pop()]
        for drop in cone:
            for other in by_facet[tuple(r for r in cone if r != drop)]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
    if len(seen) != len(cones):
        return False
    inverses = [fraction_inverse([list(gf.rays[r]) for r in cone])
                for cone in cones]
    rng = random.Random(seed)
    k = gf.dim
    for _ in range(probes):
        x = [rng.randint(-9, 9) for _ in range(k)]
        if not any(all(sum(x[t] * inv[t][j] for t in range(k)) >= 0
                       for j in range(k)) for inv in inverses):
            return False
    return True


def minor_det(matrix):
    """Determinant by cofactor expansion along the first row (exact)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * minor_det(minor)
    return total


def mat_mul(a, b):
    """Plain integer matrix product (test-side)."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_id(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_sequence(rng: random.Random, n: int, lo: int = -9, hi: int = 9,
                    density: float = 1.0) -> IntegralSequence:
    """Random upper-triangular integral sequence with entries in [lo, hi]."""
    entries = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if density >= 1.0 or rng.random() < density:
                entries[(i, j)] = rng.randint(lo, hi)
    return IntegralSequence(n, entries)


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Random element of GL_n(Z) built from elementary row operations."""
    m = mat_id(n)
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            factor = rng.choice([-3, -2, -1, 1, 2, 3])
            m[i] = [a + factor * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def random_poset(rng: random.Random, n: int, p: float = 0.4) -> Poset:
    """Random poset on [1..n] whose identity labeling is a linear extension."""
    relation = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                if rng.random() < p]
    return Poset(n, relation)


def reference_match_rays(partners, count):
    """The former recursive ray matching, kept as a test oracle.

    Matches the lowest unmatched ray to its smallest still-free partner and
    recurses, backtracking on failure, so it returns the lexicographically
    first perfect matching or None.  Its depth is one call per pair.
    """
    matched = [False] * count

    def extend():
        try:
            ray = matched.index(False)
        except ValueError:
            return []
        matched[ray] = True
        for other in partners[ray]:
            if matched[other]:
                continue
            matched[other] = True
            rest = extend()
            if rest is not None:
                return [(ray, other)] + rest
            matched[other] = False
        matched[ray] = False
        return None

    return extend()


def _reference_project(gf: GeneralFan, p: int, q: int):
    """Quotient by the zero-sum pair (p, q), as the former recursive peel
    built it: (quotient fan, transform, kept ray indices, all images)."""
    transform = linalg.complete_to_basis(gf.rays[p])
    transformed = [tuple(linalg.matvec(transform, ray)) for ray in gf.rays]
    kept = [t for t in range(len(gf.rays)) if t not in (p, q)]
    heads = [transformed[t][:-1] for t in kept]
    if any(linalg.gcd_vector(head) != 1 for head in heads) \
            or len(set(heads)) != len(heads):
        raise RejectionError("projection degenerate", {})
    renumber = {t: r for r, t in enumerate(kept)}
    cones = [tuple(sorted(renumber[t] for t in cone if t != p))
             for cone in gf.cones if p in cone]
    try:
        quotient = GeneralFan(gf.dim - 1, heads, cones)
    except ValidationError as exc:
        raise RejectionError("projection degenerate", {}) from exc
    return quotient, transform, kept, transformed


def _reference_peel(gf: GeneralFan, pairs):
    """The former recursive peel: (sequence, matrix, ray_map, order).

    Strips the first zero-sum pair, recurses on the quotient fan with the
    remaining pairs, and solves the peeled stage's twist column back from
    the discarded coordinates through support_function and
    extend_sequence.
    """
    idx = next((t for t, (p, q) in enumerate(pairs)
                if all(a + b == 0 for a, b in zip(gf.rays[p], gf.rays[q]))),
               None)
    if idx is None:
        raise RejectionError("no zero-sum pair", {})
    p, q = pairs[idx]
    m = gf.dim
    if m == 1:
        return IntegralSequence(1), [[gf.rays[p][0]]], (p, q), (idx + 1,)
    quotient, transform, kept, transformed = _reference_project(gf, p, q)
    sub_pairs = [(kept.index(a), kept.index(b))
                 for t, (a, b) in enumerate(pairs) if t != idx]
    sub_seq, sub_matrix, sub_ray_map, sub_order = _reference_peel(
        quotient, sub_pairs)
    values = {}
    for l in range(1, m):
        for gamma in (0, 1):
            old = kept[sub_ray_map[2 * (l - 1) + gamma]]
            values[(l, gamma)] = transformed[old][-1]
    h = support_function(sub_seq, m - 1, values)
    sequence = sub_seq.extend(extend_sequence(sub_seq, m - 1, h))
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


def reference_classify(gf: GeneralFan) -> ClassificationResult:
    """The former classification by recursive peeling, kept as a test oracle.

    Runs the same ordered checks (pairing, smooth, complete), then builds
    and validates one quotient fan per stage and lifts the witness back up
    through support-function values, instead of reading it off the stage
    order.
    """
    try:
        pairs = crosspolytope_check(gf)
        smooth, witness = _smoothness_report(gf)
        if not smooth:
            raise RejectionError("not smooth", witness)
        if not is_complete(gf):
            raise RejectionError("not complete")
        sequence, matrix, ray_map, order = _reference_peel(gf, pairs)
    except RejectionError as err:
        return ClassificationResult(reject=err.code, witness=err.witness)
    return ClassificationResult(
        sequence=sequence, order=order,
        matrix=tuple(tuple(row) for row in matrix), ray_map=ray_map)


def permute_rays(rng: random.Random, fan: GeneralFan) -> GeneralFan:
    """Relabel the rays of a fan by a random permutation."""
    m = len(fan.rays)
    perm = list(range(m))
    rng.shuffle(perm)
    # perm[old] = new position
    new_rays = [None] * m
    for old, new in enumerate(perm):
        new_rays[new] = fan.rays[old]
    new_cones = [tuple(perm[i] for i in cone) for cone in fan.cones]
    return GeneralFan(fan.dim, new_rays, new_cones)


# -------------------------------------------------------------------
# The former cohomology arithmetic, kept as oracles.  Classes are
# {frozenset of indices: coefficient} dicts; polynomials are
# {exponent tuple: coefficient} dicts; squares are rewritten one at a
# time with IntegralSequence.value.
# -------------------------------------------------------------------

def reference_reduce(c: IntegralSequence, k: int, work: dict) -> dict:
    """Rewrite squares of the largest repeated variable until squarefree."""
    work = dict(work)
    out = {}
    while work:
        exps, coeff = work.popitem()
        if coeff == 0:
            continue
        square = max((j for j in range(1, k + 1) if exps[j - 1] >= 2),
                     default=None)
        if square is None:
            key = frozenset(j for j in range(1, k + 1) if exps[j - 1] == 1)
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
            continue
        lowered = list(exps)
        lowered[square - 1] -= 1
        for i in range(1, square):
            value = c.value(i, square)
            if value == 0:
                continue
            bumped = list(lowered)
            bumped[i - 1] += 1
            key = tuple(bumped)
            total = work.get(key, 0) - value * coeff
            if total:
                work[key] = total
            else:
                work.pop(key, None)
    return out


def reference_multiply(c: IntegralSequence, k: int, left: dict,
                       right: dict) -> dict:
    """The product of two frozenset-keyed classes, through exponent tuples."""
    product = {}
    for a, ca in left.items():
        for b, cb in right.items():
            exps = tuple((1 if j in a else 0) + (1 if j in b else 0)
                         for j in range(1, k + 1))
            product[exps] = product.get(exps, 0) + ca * cb
    return reference_reduce(c, k, product)


def reference_total_chern_class(c: IntegralSequence, k: int) -> dict:
    """Factor by factor: the product of 1 + x_j + (x_j + sum c(i,j) x_i)."""
    total = {frozenset(): 1}
    for j in range(1, k + 1):
        factor = {frozenset(): 1, frozenset((j,)): 2}
        for i in range(1, j):
            if c.value(i, j):
                factor[frozenset((i,))] = c.value(i, j)
        total = reference_multiply(c, k, total, factor)
    return total


def reference_terms(coeffs: dict) -> tuple:
    """(sorted index tuple, coefficient) pairs, graded then lex."""
    keys = sorted((key for key in coeffs if coeffs[key]),
                  key=lambda s: (len(s), tuple(sorted(s))))
    return tuple((tuple(sorted(key)), coeffs[key]) for key in keys)


def reference_cohomology_doc(c: IntegralSequence, k: int) -> dict:
    """The `cohomology --oracle` document, from the oracles above."""
    return {"k": k,
            "relations": [[c.value(i, j) for i in range(1, j + 1)]
                          for j in range(1, k + 1)],
            "betti": [math.comb(k, i) for i in range(k + 1)],
            "euler_characteristic": 2 ** k,
            "total_chern": [[list(indices), coeff] for indices, coeff
                            in reference_terms(
                                reference_total_chern_class(c, k))],
            "oracle": {"checked": k + 3, "match": True}}


def reference_bundle_doc(c: IntegralSequence, k: int) -> dict:
    """The `bundle -k k` document, written out from the entries c(i,j)."""
    def unit(j):
        return [1 if i == j else 0 for i in range(1, k + 1)]

    generators = []
    for r in range(1, k + 1):
        vec = [0] * (2 * k)
        vec[2 * r - 2] = 1
        for s in range(r, k + 1):
            vec[2 * s - 1] = c.value(r, s)
        generators.append(vec)
    doc = {"k": k,
           "quotient": {"kernel_generators": generators,
                        "action_weights": [list(col)
                                           for col in zip(*generators)]},
           "canonical_lambda": [-x for x in unit(k)],
           "lambda": [[-x for x in unit(j)] for j in range(1, k + 1)],
           "lambda_perp": [c.value(i, k) for i in range(1, k + 1)],
           "tangent": []}
    for j in range(1, k + 1):
        doc["tangent"].append(unit(j))
        doc["tangent"].append([c.value(i, j) if i <= j else 0
                               for i in range(1, k + 1)])
    if k < c.n:
        doc["xi"] = [c.value(i, k + 1) for i in range(1, k + 1)]
    return doc
