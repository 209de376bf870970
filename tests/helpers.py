"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately use different algorithms from the library
(Gaussian elimination over Fraction, the triangular recursion and the
memoised suffix recursion instead of the flat Bott table and its point
lookups, one loop per chain instead of chain products built by prefix,
cofactor expansion instead of Bareiss) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import chain, combinations, product
from pathlib import Path

from bott_towers import (
    ClassificationResult,
    GeneralFan,
    IntegralSequence,
    Poset,
    RejectionError,
    ValidationError,
    apply_unimodular,
    binary_codes,
    build_fan,
    c_matrix,
    cli,
    crosspolytope_check,
    dual_generators,
    extend_sequence,
    fan_to_doc,
    is_complete,
    is_smooth,
    linalg,
    support_function,
)
from bott_towers.fans import _fano_condition, _match_rays, _smoothness_report
from bott_towers.sequences import _check_int, _check_range
from bott_towers.serialize import (_frame, _int_text, _object_frame,
                                   _require_keys, _require_list, parse_int)


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
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def integer_inverse(matrix):
    """The integer inverse of a square integer matrix, by `fraction_inverse`.

    Raises ValidationError when the matrix is singular or its inverse is not
    integral, the refusal the references built on it catch.
    """
    try:
        inverse = fraction_inverse(matrix)
    except ZeroDivisionError:
        raise ValidationError("singular matrix") from None
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValidationError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def reference_bott_matrix(c: IntegralSequence, ids):
    """B(I) by the former triangular recursion, kept as a test oracle:
    b(i,i) = -1 and b(i,j) = -sum over k in I, i < k <= j, of c(i,k) b(k,j).
    """
    ids = sorted(ids)
    m = len(ids)
    b = [[0] * m for _ in range(m)]
    for s in range(m):
        b[s][s] = -1
        for r in range(s - 1, -1, -1):
            b[r][s] = -sum(c.value(ids[r], ids[t]) * b[t][s]
                           for t in range(r + 1, s + 1))
    return b


def reference_bott_number(c: IntegralSequence, ids, memo: dict) -> int:
    """b(I) by the former memoised suffix recursion, kept as a test oracle.

    `ids` is a sorted tuple; `memo` maps index tuples to Bott numbers and
    receives the set and every suffix of it, shortest first, in a loop.
    """
    value = memo.get(ids)
    if value is not None:
        return value
    m = len(ids)
    tail = [-1] * m  # tail[t] = b(ids[t:]); -1 for the last singleton
    memo[ids[-1:]] = -1
    for t in range(m - 2, -1, -1):
        key = ids[t:]
        value = memo.get(key)
        if value is None:
            value = -sum(c.value(ids[t], ids[s]) * tail[s]
                         for s in range(t + 1, m))
            memo[key] = value
        tail[t] = value
    return tail[0]


def reference_chain_sum(c: IntegralSequence, ids) -> int:
    """b(I) by the former per-chain loop of `bott_number_moebius`, kept as a
    test oracle: every chain through the interior of the sorted tuple `ids`
    (|I| >= 2) multiplied out on its own, with an early exit at a zero."""
    entries = c._entries
    lo, hi = ids[0], ids[-1]
    interior = ids[1:-1]
    total = 0
    for size in range(len(interior) + 1):
        for chain in combinations(interior, size):
            stops = (lo,) + chain + (hi,)
            prod = 1
            for a, b in zip(stops, stops[1:]):
                prod *= entries.get((a, b), 0)
                if prod == 0:
                    break
            total += -prod if size % 2 else prod
    return total


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


def _reference_index_sets(labels, start: int):
    """(mask, labels) of every index set of sizes start to len(labels), by
    size, then lex, bit i of the mask standing for labels[i]."""
    bits = [1 << i for i in range(len(labels))]
    for size in range(start, len(labels) + 1):
        yield from zip(map(sum, combinations(bits, size)),
                       combinations(labels, size))


def reference_number_texts(table):
    """The former `serialize.number_texts`, kept as a test oracle: one
    generator step per index set."""
    head, middle, tail = _object_frame(("set", "value"), 2)
    start, comma, end = _frame(3)
    head, middle = head + start, end + middle
    n = len(table).bit_length() - 1
    for mask, ids in _reference_index_sets([str(i) for i in range(1, n + 1)],
                                           1):
        yield head + comma.join(ids) + middle + _int_text(table[mask]) + tail


def reference_term_texts(table):
    """The former `serialize.term_texts`, kept as a test oracle: one
    generator step per index set, zeros skipped."""
    opener, sep, close = _frame(2)
    start, comma, end = _frame(3)
    k = len(table).bit_length() - 1
    for mask, ids in _reference_index_sets([str(j) for j in range(1, k + 1)],
                                           0):
        if table[mask]:
            yield (opener + (start + comma.join(ids) + end if ids else "[]")
                   + sep + _int_text(table[mask]) + close)


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


def reference_poset_closure(relation):
    """The former Poset closure, verbatim: a fixed-point loop over the
    upward pairs of `relation` until no pair (a, y) is added."""
    strict = set(relation)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(strict):
            for (x, y) in list(strict):
                if b == x and (a, y) not in strict:
                    strict.add((a, y))
                    changed = True
    return frozenset(strict)


def reference_transition(c: IntegralSequence, k: int, w, w2):
    """The former charts.transition: the target dual generators times the
    inverse of the source ones, here by `integer_inverse`."""
    u1 = [list(v) for v in dual_generators(c, k, w)]
    u2 = [list(v) for v in dual_generators(c, k, w2)]
    return linalg.matmul(u2, integer_inverse(u1))


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


def reference_crosspolytope_pairing(gf: GeneralFan):
    """The former pairing, kept as a test oracle: it rebuilds each cone's
    bitmask, walks all 2^k transversals of the pairs on every fan, and then
    compares the cone count with 2^k (a rejection no input reaches).

    Pair the rays so that the fan is combinatorially a crosspolytope.

    Returns the pairs sorted by smallest ray index, each ascending.  The
    pairing matches rays that never span a common cone, and picking one ray
    per pair must always span a maximal cone.  A ray may pair with the rays
    outside its co-face mask: its own bit OR the masks of its cones.  Raises
    RejectionError with the code and witness of the first failed condition.
    """
    m = len(gf.rays)
    if m % 2 == 1:
        raise RejectionError("ray count odd", {"ray_count": m})
    cone_masks = set()
    coface = [1 << r for r in range(m)]
    for cone in gf.cones:
        mask = sum(1 << r for r in cone)
        cone_masks.add(mask)
        for r in cone:
            coface[r] |= mask
    full = (1 << m) - 1
    free = [full ^ mask for mask in coface]
    if 0 in free:
        raise RejectionError("no valid pairing",
                             {"ray": free.index(0), "non_cofaced_with": []})
    pairs = _match_rays(free, m)
    if pairs is None:
        edges = [[a, b] for a in range(m) for b in range(a + 1, m)
                 if free[a] >> b & 1]
        raise RejectionError("no valid pairing", {"non_cofaced_pairs": edges})
    if len(pairs) != gf.dim:
        raise RejectionError("cone set not full binary cube",
                             {"pairs": len(pairs), "dim": gf.dim})
    for choice in product(*((1 << a, 1 << b) for a, b in pairs)):
        transversal = sum(choice)
        if transversal not in cone_masks:
            raise RejectionError("cone set not full binary cube", {
                "missing_cone": [r for r in range(m) if transversal >> r & 1]})
    if len(gf.cones) != 2 ** gf.dim:
        raise RejectionError("cone set not full binary cube",
                             {"cone_count": len(gf.cones)})
    return pairs


def _reference_project(gf: GeneralFan, p: int, q: int):
    """Quotient by the zero-sum pair (p, q), as the former recursive peel
    built it: (quotient fan, transform, kept ray indices, all images)."""
    transform = linalg.complete_to_basis(gf.rays[p])
    transformed = [tuple(linalg.matvec(transform, ray)) for ray in gf.rays]
    kept = [t for t in range(len(gf.rays)) if t not in (p, q)]
    heads = [transformed[t][:-1] for t in kept]
    if any(math.gcd(*head) != 1 for head in heads) \
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
    matrix = linalg.matmul(integer_inverse(transform),
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


def reference_stage_order(rays, pairs):
    """The former quotient peel: 0-based indices into ``pairs`` of the tower
    stages 1, ..., k.

    Each round peels the top live stage, the first live pair whose images
    sum to zero: complete_to_basis moves its first ray onto the last axis,
    and the other images drop that coordinate, giving the rays of the
    quotient fan.  Raises the "no zero-sum pair" rejection when no live
    pair sums to zero.
    """
    images = list(rays)
    live = list(range(len(pairs)))
    peeled = []
    while live:
        idx = next((i for i, t in enumerate(live)
                    if not any(a + b for a, b in zip(images[pairs[t][0]],
                                                     images[pairs[t][1]]))),
                   None)
        if idx is None:
            raise RejectionError("no zero-sum pair", {})
        stage = live.pop(idx)
        peeled.append(stage)
        transform = linalg.complete_to_basis(images[pairs[stage][0]])
        for t in live:
            for r in pairs[t]:
                images[r] = linalg.matvec(transform, images[r])[:-1]
    return peeled[::-1]


def reference_tower_witness(rays, pairs):
    """The witness read off the stage order of the former quotient peel, or
    None: M has the first rays in stage order as columns, B = M^-1 (second
    rays), C = -B^-1, checked exactly on every ray."""
    try:
        order = reference_stage_order(rays, pairs)
        stages = [pairs[t] for t in order]
        matrix = tuple(zip(*(rays[p] for p, _ in stages)))
        inverse = integer_inverse(matrix)
        neg_c = integer_inverse(
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


def reference_general_fan(dim, rays, cones):
    """The former GeneralFan.__init__, verbatim but for its gcd (the former
    gcd_vector loop, inlined): _check_int on every coordinate and index.
    Returns (dim, rays, cones, masks) as the constructor stores them."""
    _check_range(dim, "dim")
    ray_list = []
    for ray in rays:
        vec = tuple(_check_int(x, "ray coordinate") for x in ray)
        if len(vec) != dim:
            raise ValidationError(
                f"ray {vec} has length {len(vec)}, expected {dim}")
        g = 0
        for x in vec:
            g = math.gcd(g, abs(x))
        if g == 0:
            raise ValidationError("zero vector is not a valid ray")
        if g != 1:
            raise ValidationError(f"ray {vec} is not primitive (gcd {g})")
        ray_list.append(vec)
    if not ray_list:
        raise ValidationError("fan needs at least one ray")
    if len(set(ray_list)) != len(ray_list):
        raise ValidationError("duplicate rays")
    cone_list = []
    for cone in cones:
        idx = tuple(sorted(_check_int(x, "ray index") for x in cone))
        if len(idx) != dim:
            raise ValidationError(
                f"maximal cone {idx} has {len(idx)} rays, expected {dim}")
        if len(set(idx)) != dim:
            raise ValidationError(f"maximal cone {idx} repeats a ray")
        if idx[0] < 0 or idx[-1] >= len(ray_list):
            raise ValidationError(f"maximal cone {idx} indexes a missing ray")
        cone_list.append(idx)
    cones = tuple(sorted(cone_list))
    masks = tuple(sum(1 << r for r in cone) for cone in cones)
    if len(set(masks)) != len(masks):
        raise ValidationError("duplicate maximal cones")
    return dim, tuple(ray_list), cones, masks


def reference_fan_ingest(doc):
    """The former fan_from_doc, verbatim, then the former constructor:
    parse_int on every element, then _check_int on every element again."""
    _require_keys(doc, {"dim", "rays", "cones"}, {"dim", "rays", "cones"},
                  "fan document")
    dim = parse_int(doc["dim"], "fan dimension")
    rays = [[parse_int(x, "ray coordinate") for x in _require_list(ray, "ray")]
            for ray in _require_list(doc["rays"], "fan rays")]
    cones = [[parse_int(r, "cone ray index")
              for r in _require_list(cone, "cone")]
             for cone in _require_list(doc["cones"], "fan cones")]
    return reference_general_fan(dim, rays, cones)


def reference_sequence_ingest(doc) -> IntegralSequence:
    """The former sequence_from_doc, verbatim: a type and shape sweep of the
    triples, then the constructor's own sweep of the entry dict."""
    _require_keys(doc, {"n", "entries"}, {"n"}, "sequence document")
    n = parse_int(doc["n"], "sequence height n")
    triples = _require_list(doc.get("entries", []), "sequence entries")
    if ({*map(type, triples)} <= {list} and {*map(len, triples)} <= {3}
            and {*map(type, chain.from_iterable(triples))} <= {int}):
        entries = {(i, j): value for i, j, value in triples}
        if len(entries) == len(triples):
            return IntegralSequence(n, entries)
    entries = {}
    for triple in triples:
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise ValidationError(
                f"sequence entry must be an [i, j, value] triple, got {triple!r}")
        i = parse_int(triple[0], "entry index i")
        j = parse_int(triple[1], "entry index j")
        if (i, j) in entries:
            raise ValidationError(f"duplicate sequence entry ({i}, {j})")
        entries[(i, j)] = parse_int(triple[2], f"entry c({i},{j})")
    return IntegralSequence(n, entries)


def reference_check_doc(gf: GeneralFan) -> dict:
    """The `check` document from four independent verdicts, each computed
    on the fan itself, a rejection counting as False."""
    def verdict(predicate):
        try:
            return bool(predicate(gf))
        except RejectionError:
            return False

    complete = verdict(is_complete)
    return {"smooth": verdict(is_smooth), "complete": complete,
            "fano": complete and _fano_condition(gf),
            "crosspolytope": verdict(crosspolytope_check)}


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

def scrambled_tower(rng: random.Random, k: int, lo: int = -9,
                    hi: int = 9) -> GeneralFan:
    """A random tower fan under a random unimodular map, rays relabeled."""
    gf = build_fan(random_sequence(rng, k, lo, hi), k).as_general_fan()
    change = random_unimodular(rng, k)
    return permute_rays(rng, GeneralFan(
        k, [linalg.matvec(change, ray) for ray in gf.rays], gf.cones))


def tower_ladder(seed: int, height: int, per_height: int):
    """Scrambled towers, entries in [-3, 3], per_height at each k <= height."""
    rng = random.Random(seed)
    return [scrambled_tower(rng, k, -3, 3) for k in range(1, height + 1)
            for _ in range(per_height)]


def acceptance_08_fans():
    """The 200 scrambled tower fans (k <= 5) of acceptance test 08."""
    rng = random.Random(9008)
    return [scrambled_tower(rng, rng.randint(1, 5)) for _ in range(200)]


# 2-D factors of the known rejects: a complete fan whose cones all have
# determinant +-2, and a smooth complex that covers only x >= 0, twice.
NONSMOOTH_2D = ([(1, 0), (-1, 0), (1, 2), (-1, -2)],
                [(0, 2), (0, 3), (1, 2), (1, 3)])
INCOMPLETE_2D = ([(1, 0), (1, 1), (0, 1), (0, -1)],
                 [(0, 2), (0, 3), (1, 2), (1, 3)])
# Seven rays, consecutive pairs as cones, winding twice around the origin:
# every wall lies in two cones on opposite sides, yet it is not a fan.
DOUBLE_WRAP = GeneralFan(
    2, [(1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (1, -1)],
    [(i, (i + 1) % 7) for i in range(7)])


def product_fan(rays, cones, tail: GeneralFan) -> GeneralFan:
    """The product of a fan given by rays and cones with the fan `tail`."""
    dim = len(rays[0])
    out_rays = [tuple(r) + (0,) * tail.dim for r in rays]
    out_rays += [(0,) * dim + r for r in tail.rays]
    out_cones = [tuple(a) + tuple(len(rays) + r for r in b)
                 for a in cones for b in tail.cones]
    return GeneralFan(dim + tail.dim, out_rays, out_cones)


def known_answer_fan(rng, k: int, kind: str):
    """A scrambled tower fan or known reject of height k >= 2, with its
    completeness."""
    tower = build_fan(random_sequence(rng, k, -3, 3), k).as_general_fan()
    rays, cones, complete = list(tower.rays), tower.cones, True
    if kind == "odd":
        rays.append((1, 1) + (0,) * (k - 2))
    elif kind == "missing":
        cones = list(cones)
        del cones[rng.randrange(len(cones))]
        complete = False
    elif kind in ("nonsmooth", "incomplete"):
        factor = NONSMOOTH_2D if kind == "nonsmooth" else INCOMPLETE_2D
        if k == 2:
            rays, cones = factor
        else:
            tail = build_fan(random_sequence(rng, k - 2, -3, 3), k - 2)
            product = product_fan(*factor, tail.as_general_fan())
            rays, cones = product.rays, product.cones
        complete = kind == "nonsmooth"
    fan = apply_unimodular(GeneralFan(k, rays, cones),
                           random_unimodular(rng, k))
    return permute_rays(rng, fan), complete


# Three pairs whose third pair lies in the plane of the first two, so every
# cone is flat while the pairing holds.
DEGENERATE_3D = GeneralFan(
    3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0),
        (-1, -1, 0)],
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])


def reject_fans(rng: random.Random):
    """Fans of every reject kind: scrambled odd, missing-cone, non-smooth
    product and half-plane product fans at k = 2..6, the double wrap
    (alone and times a line), and degenerate fans at k = 3..6."""
    fans = [known_answer_fan(rng, k, kind)[0] for k in range(2, 7)
            for kind in ("odd", "missing", "nonsmooth", "incomplete")]
    line = GeneralFan(1, [(1,), (-1,)], [(0,), (1,)])
    fans += [DOUBLE_WRAP, product_fan(DOUBLE_WRAP.rays, DOUBLE_WRAP.cones,
                                      line), DEGENERATE_3D]
    for k in range(4, 7):
        tail = build_fan(random_sequence(rng, k - 3, -3, 3), k - 3)
        fan = product_fan(DEGENERATE_3D.rays, DEGENERATE_3D.cones,
                          tail.as_general_fan())
        fans.append(permute_rays(rng, apply_unimodular(
            fan, random_unimodular(rng, k))))
    return fans


# Where witness-first recognition must agree with the ordered checks.
RECOGNITION_FAN_SETS = {
    "scrambled": lambda: tower_ladder(6012, 8, 12),
    "acceptance_08": acceptance_08_fans,
    "rejects": lambda: reject_fans(random.Random(6013)),
}


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


def reference_cohomology_doc(c: IntegralSequence, k: int,
                             oracle: bool = True) -> dict:
    """The `cohomology -k k` document, from the oracles above, with the
    `--oracle` summary when `oracle` is set."""
    doc = {"k": k,
           "relations": [[c.value(i, j) for i in range(1, j + 1)]
                         for j in range(1, k + 1)],
           "betti": [math.comb(k, i) for i in range(k + 1)],
           "euler_characteristic": 2 ** k,
           "total_chern": [[list(indices), coeff] for indices, coeff
                           in reference_terms(
                               reference_total_chern_class(c, k))]}
    if oracle:
        doc["oracle"] = {"checked": k + 3, "match": True}
    return doc


def reference_kernel_generators(c: IntegralSequence, k: int) -> tuple:
    """The stage-k kernel generators by one loop over the stages, without the
    tangent splitting: generator r is 1 on x_r and y_r and c(r,s) on y_s for
    every stage s above r."""
    cols = [c.column(s) for s in range(1, k + 1)]
    generators = []
    for r in range(1, k + 1):
        vec = [0] * (2 * k)
        vec[2 * r - 2] = vec[2 * r - 1] = 1
        for s in range(r + 1, k + 1):
            vec[2 * s - 1] = cols[s - 1][r - 1]
        generators.append(tuple(vec))
    return tuple(generators)


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


def reference_fan_doc(c: IntegralSequence, k: int) -> dict:
    """The `fan -k k` document, through the validated `GeneralFan`."""
    return fan_to_doc(build_fan(c, k))


def reference_charts_doc(c: IntegralSequence, k: int) -> dict:
    """The `charts -k k` document, from `dual_generators` per code."""
    return {"k": k,
            "charts": [{"code": list(w),
                        "monomials": [list(u)
                                      for u in dual_generators(c, k, w)]}
                       for w in binary_codes(k)]}


def reference_numbers_doc(c: IntegralSequence, oracle: bool = False) -> dict:
    """The `numbers --sets` document (with `--oracle` when `oracle`), from
    the memoised reference recursion per index set."""
    full = tuple(range(1, c.n + 1))
    memo = {}
    doc = {"n": c.n,
           "c_matrix": c_matrix(c, full),
           "bott_matrix": reference_bott_matrix(c, full),
           "numbers": [{"set": list(ids),
                        "value": reference_bott_number(c, ids, memo)}
                       for size in range(1, c.n + 1)
                       for ids in combinations(full, size)]}
    if oracle:
        doc["oracle"] = {"checked": 2 ** c.n - 1 - c.n, "match": True}
    return doc


BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = str(BENCH.parent / "src")


def child_env(**extra):
    """The environment for a child Python that imports this checkout's
    package: os.environ with src/ first on PYTHONPATH, then `extra`."""
    return {**os.environ, "PYTHONPATH":
            SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra}


def bench_jobs():
    """The bench's `jobs` module, read-only: its decks name the documents."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("jobs")
    finally:
        sys.path.remove(str(BENCH))


def deck_argvs(workload, seeds=(1, 20030601)):
    """Every distinct argv of a bench workload's deck at these seeds, in
    deck-build order."""
    jobs = bench_jobs()
    argvs = {}
    for seed in seeds:
        argvs.update(dict.fromkeys(job.argv for job in
                                   jobs.build(workload, seed)[0]))
    return list(argvs)


def cli_bytes(argv):
    """The exit code, stdout and stderr of an in-process run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0"


def cli_digest(argvs):
    """The sha256 of :func:`cli_bytes` over the argv in turn."""
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(cli_bytes(argv).encode())
    return digest.hexdigest()
