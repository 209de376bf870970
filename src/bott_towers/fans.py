"""Crosspolytope fans of Bott towers and checks on generic simplicial fans.

The fan of a height-k tower has 2k generators

    a_{i,0} = e_i,         a_{i,1} = (0, ..., 0, b(i,i), b(i,i+1), ..., b(i,k)),

with b(i,i) = -1 at coordinate i, and one maximal cone per binary code
w in {0,1}^k spanned by a_{1,w_1}, ..., a_{k,w_k}.  The 2^k maximal cones are
virtual on :class:`BottFan` (never stored) and expanded on demand.

Generic fans come in through :class:`GeneralFan`: explicit primitive rays plus
full-dimensional simplicial maximal cones given as ray index sets.  The checks
(smooth / complete / Fano / primitive collections) work on either kind.
"""

from __future__ import annotations

from itertools import permutations, product

from . import linalg
from .errors import RejectionError, ValidationError
from .sequences import (IntegralSequence, bott_matrix, _check_code,
                        _check_int, _check_range, _check_sequence)


def binary_codes(k: int):
    """All codes (w_1, ..., w_k) in binary order, w_1 most significant."""
    return product((0, 1), repeat=_check_range(k, "code length"))


def _tower_cones(k: int):
    """The cones (2i + w_i) of the stage-k tower fan, codes in binary order."""
    return [tuple(2 * i + bit for i, bit in enumerate(w))
            for w in product((0, 1), repeat=k)]


class BottFan:
    """The crosspolytope fan of the first k stages of a tower."""

    __slots__ = ("sequence", "k", "_rows")

    def __init__(self, sequence: IntegralSequence, k: int):
        self.sequence = _check_sequence(sequence)
        self.k = sequence.check_stage(k)
        self._rows = bott_matrix(sequence, range(1, k + 1))

    @property
    def dim(self) -> int:
        return self.k

    def generator(self, i: int, gamma: int):
        """The ray a_{i,gamma} as an integer tuple of length k."""
        _check_range(i, "i", 1, self.k)
        _check_range(gamma, "gamma", 0, 1)
        if gamma == 0:
            return tuple(int(j == i - 1) for j in range(self.k))
        return tuple(self._rows[i - 1])

    def rays(self):
        """All 2k generators in the order (1,0), (1,1), ..., (k,0), (k,1).

        a_{i,1} is row i of the Bott matrix, which is 0 below the diagonal.
        """
        return tuple(ray for i, row in enumerate(self._rows)
                     for ray in (tuple(int(j == i) for j in range(self.k)),
                                 tuple(row)))

    def cone(self, w):
        """Ray indices of the maximal cone for the binary code w."""
        w = _check_code(w, self.k)
        return tuple(2 * i + w[i] for i in range(self.k))

    def as_general_fan(self) -> "GeneralFan":
        return GeneralFan(self.k, self.rays(), _tower_cones(self.k))

    def __eq__(self, other):
        if not isinstance(other, BottFan):
            return NotImplemented
        return self.k == other.k and self.sequence == other.sequence

    def __hash__(self):
        return hash((self.sequence, self.k))

    def __repr__(self):
        return f"BottFan({self.sequence!r}, k={self.k})"


def build_fan(c: IntegralSequence, k: int) -> BottFan:
    """The crosspolytope fan of the tower c truncated at stage k."""
    return BottFan(c, k)


class GeneralFan:
    """A simplicial fan: primitive rays and full-dimensional maximal cones."""

    __slots__ = ("dim", "rays", "cones", "_dets")

    def __init__(self, dim: int, rays, cones):
        _check_range(dim, "dim")
        ray_list = []
        for ray in rays:
            vec = tuple(_check_int(x, "ray coordinate") for x in ray)
            if len(vec) != dim:
                raise ValidationError(
                    f"ray {vec} has length {len(vec)}, expected {dim}")
            g = linalg.gcd_vector(vec)
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
        if len(set(cone_list)) != len(cone_list):
            raise ValidationError("duplicate maximal cones")
        self.dim = dim
        self.rays = tuple(ray_list)
        self.cones = tuple(sorted(cone_list))
        self._dets = None

    def __eq__(self, other):
        if not isinstance(other, GeneralFan):
            return NotImplemented
        return (self.dim == other.dim and self.rays == other.rays
                and self.cones == other.cones)

    def __hash__(self):
        return hash((self.dim, self.rays, self.cones))

    def __repr__(self):
        return (f"GeneralFan(dim={self.dim}, rays={len(self.rays)}, "
                f"cones={len(self.cones)})")


def _as_general(fan) -> GeneralFan:
    if isinstance(fan, BottFan):
        return fan.as_general_fan()
    if isinstance(fan, GeneralFan):
        return fan
    raise ValidationError(f"expected a fan, got {type(fan).__name__}")


def _cone_matrix(gf: GeneralFan, cone):
    return [list(gf.rays[r]) for r in cone]


def _cone_dets(gf: GeneralFan):
    """Each maximal cone's determinant, in cone order, computed once per fan
    for the smoothness and completeness checks."""
    if gf._dets is None:
        gf._dets = tuple(linalg.det(_cone_matrix(gf, cone))
                         for cone in gf.cones)
    return gf._dets


def _smoothness_report(gf: GeneralFan):
    """(all cones unimodular?, witness of the first failure)."""
    for cone, d in zip(gf.cones, _cone_dets(gf)):
        if d == 0:
            raise RejectionError("degenerate cone", {"cone": list(cone)})
        if abs(d) != 1:
            return False, {"cone": list(cone), "det": d}
    return True, None


def is_smooth(fan) -> bool:
    """True when every maximal cone has determinant +-1 (exact).

    Raises the "degenerate cone" rejection when some cone's rays are
    linearly dependent, which is reported distinctly from False.  A BottFan
    is smooth by construction and is answered without its cones.
    """
    if isinstance(fan, BottFan):
        return True
    return _smoothness_report(_as_general(fan))[0]


def is_complete(fan, probes: int = 100, seed: int = 0) -> bool:
    """Exact test that the maximal cones cover R^k without overlap.

    Four checks, by the degree argument for simplicial fans: every wall
    (a cone minus one ray) lies in exactly two cones; those two cones lie
    on opposite sides of it; the wall graph is connected; and the sum x of
    the first cone's rays lies in no other closed cone (degree one).  Raises
    the "degenerate cone" rejection for a cone of determinant 0 when the
    first and third checks pass.  ``probes`` and ``seed`` are accepted for
    compatibility and have no effect.  A BottFan is complete by construction
    and is answered without its cones.
    """
    if isinstance(fan, BottFan):
        return True
    gf = _as_general(fan)
    if not gf.cones:
        return False
    masks = [sum(1 << r for r in cone) for cone in gf.cones]
    walls = {}
    for idx, cone in enumerate(gf.cones):
        for slot, r in enumerate(cone):
            walls.setdefault(masks[idx] ^ (1 << r), []).append((idx, slot))
    if any(len(pair) != 2 for pair in walls.values()):
        return False
    adjacent = [[] for _ in gf.cones]
    for (i, _), (j, _) in walls.values():
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen, queue = {0}, [0]
    while queue:
        fresh = set(adjacent[queue.pop()]) - seen
        seen |= fresh
        queue += fresh
    if len(seen) != len(gf.cones):
        return False
    dets = _cone_dets(gf)
    if 0 in dets:
        raise RejectionError("degenerate cone",
                             {"cone": list(gf.cones[dets.index(0)])})
    # opposite sides: det(wall rows, dropped ray) = (-1)^(dim-1-slot) det
    # of the cone, and its sign must differ between the wall's two cones
    for (i, s), (j, t) in walls.values():
        if (dets[i] > 0) ^ (s % 2) == (dets[j] > 0) ^ (t % 2):
            return False
    # degree one: x, inside the first cone, lies in no other closed cone.
    # x = (1, ..., 1) in the first cone's basis, so a cone can hold x only
    # if each coordinate of that basis is positive on one of its rays
    basis = list(zip(*(gf.rays[r] for r in gf.cones[0])))
    d, coords = linalg.solve_fraction_free(basis, gf.rays)
    positive = [sum(1 << idx for idx, y in enumerate(coords) if y[i] * d > 0)
                for i in range(gf.dim)]
    x = [sum(row) for row in basis]
    for cone, mask in zip(gf.cones[1:], masks[1:]):
        if all(mask & p for p in positive):
            d, (y,) = linalg.solve_fraction_free(
                list(zip(*(gf.rays[r] for r in cone))), [x])
            if all(v * d >= 0 for v in y):
                return False
    return True


# Backtracks allowed to the ray-pairing search.  A crosspolytope fan needs
# none, while two odd cliques of rays need exponentially many in their size.
MATCH_BACKTRACK_LIMIT = 10_000


def _match_rays(free, count):
    """Lexicographically-first perfect matching on the non-cofaced graph.

    ``free[r]`` is the bitmask of the rays never cofaced with ray r.  Matches
    the lowest unmatched ray to its smallest free partner, backtracking when
    that leaves some later ray unmatchable.  The matched rays form one int,
    and the stack of (ray, partner) pairs is the search's own, so its depth
    is not bounded by the recursion limit.  Returns that stack (pairs sorted
    by their smaller ray, each ascending) or None when no perfect matching
    exists.  Raises ValidationError after MATCH_BACKTRACK_LIMIT backtracks.
    """
    full = (1 << count) - 1
    matched = 0
    stack = []
    backtracks = 0
    while matched != full:
        ray = (~matched & (matched + 1)).bit_length() - 1
        matched |= 1 << ray
        options = free[ray] & ~matched
        while not options:  # backtrack to the next untried partner
            matched ^= 1 << ray
            if not stack:
                return None
            backtracks += 1
            if backtracks > MATCH_BACKTRACK_LIMIT:
                raise ValidationError(
                    f"ray pairing search exceeded {MATCH_BACKTRACK_LIMIT} "
                    "backtracks")
            ray, partner = stack.pop()
            matched ^= 1 << partner
            options = free[ray] & ~matched & -(2 << partner)
        partner = (options & -options).bit_length() - 1
        matched |= 1 << partner
        stack.append((ray, partner))
    return stack


def _tower_pairs(k: int):
    """The opposite pairs (2i, 2i + 1) of the stage-k tower fan's rays."""
    return [(2 * i, 2 * i + 1) for i in range(k)]


def _crosspolytope_pairing(gf: GeneralFan):
    """Pair the rays so that the fan is combinatorially a crosspolytope.

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


def primitive_collections(fan):
    """The minimal non-faces, as a list of ray index pairs.

    For a tower fan these are the k opposite pairs {a_{i,0}, a_{i,1}} by
    construction.  For a generic fan they are computed combinatorially and
    must form a perfect pairing of the rays whose one-per-pair selections are
    exactly the maximal cones; anything else is rejected.
    """
    if isinstance(fan, BottFan):
        return _tower_pairs(fan.k)
    try:
        return _crosspolytope_pairing(_as_general(fan))
    except RejectionError as err:
        raise RejectionError("not crosspolytope combinatorics",
                             {"condition": err.code, **err.witness}) from None


def _fano_condition(gf: GeneralFan) -> bool:
    """The Fano inequalities of a complete fan, cone by cone."""
    k = gf.dim
    for cone in gf.cones:
        # m = y / d, so <m, ray> > -1 exactly when (<y, ray> + d) * d > 0
        d, (y,) = linalg.solve_fraction_free(_cone_matrix(gf, cone),
                                             [[-1] * k])
        if any((sum(y[t] * ray[t] for t in range(k)) + d) * d <= 0
               for idx, ray in enumerate(gf.rays) if idx not in cone):
            return False
    return True


def _tower_fano(c: IntegralSequence, k: int) -> bool:
    """Batyrev's test: the stage-k tower is Fano iff each primitive relation
    a_{i,0} + a_{i,1} = sum_j lam_j a_{j,g_j} has degree 2 - sum lam_j > 0.

    Forward substitution over the Bott-matrix rows locates the sum: it is 0
    up to coordinate i, a coordinate j >= 0 is lam a_{j,0} = lam e_j, and a
    coordinate j < 0 is lam a_{j,1}, whose coordinate j is -1.
    """
    rows = bott_matrix(c, range(1, k + 1))
    for i in range(k):
        rest = [0] * (i + 1) + rows[i][i + 1:]  # ends as +-lam_j at j
        for j in range(i + 1, k):
            if rest[j] < 0:
                for t in range(j + 1, k):
                    rest[t] += rest[j] * rows[j][t]
        if sum(map(abs, rest)) >= 2:
            return False
    return True


def is_fano(fan) -> bool:
    """Strict convexity of the anticanonical support data.

    For each maximal cone the unique vector m with <m, ray> = -1 on the
    cone's rays is computed exactly; the fan is Fano when every other ray
    satisfies <m, ray> > -1 strictly.  Requires a complete fan.  A
    BottFan is decided by its primitive relations, without its cones.
    """
    if isinstance(fan, BottFan):
        return _tower_fano(fan.sequence, fan.k)
    gf = _as_general(fan)
    if not is_complete(gf):
        raise RejectionError("not complete")
    return _fano_condition(gf)


def lift_with_support_function(fan: BottFan, h) -> GeneralFan:
    """Join of the graph-lift of a tower fan with the two vertical rays.

    Each generator y is lifted to (y, h(y)) and the rays +-e_{k+1} are
    adjoined; every lifted maximal cone is doubled, once with each vertical
    ray.  With the canonical support values h(a_{i,0}) = 0,
    h(a_{i,1}) = b(i,k+1) the result is exactly the height-(k+1) tower fan.
    """
    if not isinstance(fan, BottFan):
        raise ValidationError("lift expects a tower fan")
    seq = getattr(h, "sequence", None)
    if seq is not None and (seq != fan.sequence or getattr(h, "k", fan.k) != fan.k):
        raise ValidationError("support data belongs to a different fan")
    k = fan.k
    rays = [ray + (h.value(r // 2 + 1, r % 2),)
            for r, ray in enumerate(fan.rays())]
    rays += [(0,) * k + (1,), (0,) * k + (-1,)]
    return GeneralFan(k + 1, rays, _tower_cones(k + 1))


def apply_unimodular(fan, matrix) -> GeneralFan:
    """Transform every ray by an integer matrix of determinant +-1."""
    gf = _as_general(fan)
    rows = [list(map(lambda x: _check_int(x, "matrix entry"), row))
            for row in matrix]
    if len(rows) != gf.dim or any(len(row) != gf.dim for row in rows):
        raise ValidationError(
            f"matrix must be {gf.dim}x{gf.dim} for this fan")
    if abs(linalg.det(rows)) != 1:
        raise ValidationError("matrix is not unimodular")
    return GeneralFan(gf.dim, [linalg.matvec(rows, ray) for ray in gf.rays],
                      gf.cones)


def fans_isomorphic(first, second, max_dim: int = 6):
    """Search for (ray permutation, unimodular matrix) identifying two fans.

    Anchors the first maximal cone of the first fan against every ordered
    maximal cone of the second, solves for the matrix exactly, and verifies
    it maps rays onto rays and cones onto cones.  Returns None when no
    isomorphism exists (the search is exhaustive); capped at `max_dim`.
    """
    g1 = _as_general(first)
    g2 = _as_general(second)
    if g1.dim != g2.dim:
        return None
    if g1.dim > max_dim:
        raise ValidationError(
            f"isomorphism search capped at dimension {max_dim}, got {g1.dim}")
    if len(g1.rays) != len(g2.rays) or len(g1.cones) != len(g2.cones):
        return None
    if not g1.cones or not g2.cones:
        raise ValidationError("isomorphism search needs maximal cones")
    k = g1.dim
    anchor = g1.cones[0]
    anchor_cols = [[g1.rays[r][t] for r in anchor] for t in range(k)]
    if linalg.det(anchor_cols) == 0:
        raise RejectionError("degenerate cone", {"cone": list(anchor)})
    d, adj_cols = linalg.solve_fraction_free(anchor_cols, linalg.identity(k))
    adj = linalg.transpose(adj_cols)
    ray_index = {ray: idx for idx, ray in enumerate(g2.rays)}
    cone_set = set(g2.cones)
    for cone2 in g2.cones:
        for ordering in permutations(cone2):
            target_cols = [[g2.rays[r][t] for r in ordering] for t in range(k)]
            # the candidate is target @ anchor^-1 = target @ adj / d
            scaled = linalg.matmul(target_cols, adj)
            if any(x % d for row in scaled for x in row):
                continue
            matrix = [[x // d for x in row] for row in scaled]
            if abs(linalg.det(matrix)) != 1:
                continue
            perm = []
            for ray in g1.rays:
                image = linalg.matvec(matrix, ray)
                found = ray_index.get(image)
                if found is None:
                    break
                perm.append(found)
            if len(perm) != len(g1.rays):
                continue
            if all(tuple(sorted(perm[r] for r in cone)) in cone_set
                   for cone in g1.cones):
                return tuple(perm), matrix
    return None
