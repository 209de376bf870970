"""Independent answers for every benchmark job, kept apart from the library.

Nothing here imports ``bott_towers``.  Bott matrices come from a Fraction
Gauss-Jordan inverse of C(I) instead of the library's triangular recursion,
Fano verdicts from Batyrev's primitive-relation criterion instead of the
per-cone support vectors, and fan rays are rebuilt from those matrices.
Each ``check_<command>`` returns None for a correct output, the string
``KNOWN_DEFECT`` for the one documented wrong verdict, or a reason.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

KNOWN_DEFECT = "known defect"


def canonical(doc) -> str:
    """The CLI's canonical text: sorted keys, indent 2, one newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def as_int(value) -> int:
    """JSON integers above 2^53 arrive as decimal strings."""
    return int(value) if isinstance(value, str) else value


# -- exact linear algebra ---------------------------------------------------

def c_matrix(n: int, entries: dict, ids=None):
    """C(I) for the index set ids (default 1..n), 1 on the diagonal."""
    ids = list(range(1, n + 1)) if ids is None else list(ids)
    return [[1 if r == s else (entries.get((ids[r], ids[s]), 0) if r < s else 0)
             for s in range(len(ids))] for r in range(len(ids))]


def fraction_inverse(matrix):
    """Gauss-Jordan inverse over Fraction; raises ValueError if singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def det(matrix) -> int:
    """Determinant by Fraction elimination (not the library's Bareiss)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return int(result)


def matvec(matrix, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)


def bott_rows(n: int, entries: dict):
    """B(1..n) = -C^(-1) as integer rows; C . (-B) = I is checked."""
    inv = fraction_inverse(c_matrix(n, entries))
    rows = [[-int(x) for x in row] for row in inv]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("C(I) is not unimodular")
    return rows


def bott_number(n: int, entries: dict, ids) -> int:
    """b(I): top-right entry of -C(I)^(-1)."""
    inv = fraction_inverse(c_matrix(n, entries, ids))
    return -int(inv[0][-1])


def tower_rays(rows, k: int):
    """Rays (1,0), (1,1), ..., (k,0), (k,1) of the stage-k tower fan."""
    rays = []
    for i in range(k):
        rays.append(tuple(int(j == i) for j in range(k)))
        rays.append(tuple(rows[i][j] if j >= i else 0 for j in range(k)))
    return rays


def tower_cones(k: int):
    """One cone per binary code, w_1 most significant (already sorted)."""
    return [tuple(2 * i + w[i] for i in range(k))
            for w in product((0, 1), repeat=k)]


def tower_fano(rows, k: int) -> bool:
    """Batyrev: Fano iff every primitive relation has positive degree.

    The primitive collections of a tower fan are the k ray pairs.  The sum
    of pair i is located by forward substitution (the sign of each
    coordinate picks a_{j,0} or a_{j,1}), which gives the coefficients of
    the cone containing it.
    """
    for i in range(k):
        rest = [rows[i][j] if j > i else 0 for j in range(k)]
        total = 0
        for j in range(k):
            lam = abs(rest[j])
            if rest[j] < 0:
                rest = [rest[t] - lam * rows[j][t] if t >= j else rest[t]
                        for t in range(k)]
            rest[j] = 0
            total += lam
        if 2 - total <= 0:
            return False
    return True


# -- per-command checks -----------------------------------------------------

def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_check(job, code, text):
    expect = job.data["expect"]
    if code == 0 and text == canonical(expect):
        return None
    if (job.kind == "double_wrap" and code == 0
            and text == canonical({**expect, "complete": True})):
        return KNOWN_DEFECT
    return f"check: exit {code}, got {text[:120]!r}"


def _verify_witness(fan, doc):
    """The classification witness rebuilds the input rays and cones."""
    seq = doc["sequence"]
    k = fan["dim"]
    if seq["n"] != k or sorted(doc["order"]) != list(range(1, k + 1)):
        return "sequence height or order is wrong"
    entries = {(i, j): as_int(v) for i, j, v in seq.get("entries", [])}
    matrix = [[as_int(x) for x in row] for row in doc["matrix"]]
    if abs(det(matrix)) != 1:
        return "witness matrix is not unimodular"
    ray_map = doc["ray_map"]
    if sorted(ray_map) != list(range(2 * k)):
        return "ray_map is not a permutation"
    rays = [tuple(r) for r in fan["rays"]]
    for pos, ray in enumerate(tower_rays(bott_rows(k, entries), k)):
        if matvec(matrix, ray) != rays[ray_map[pos]]:
            return f"witness misses ray {ray_map[pos]}"
    mapped = {tuple(sorted(ray_map[p] for p in cone)) for cone in tower_cones(k)}
    if mapped != {tuple(sorted(c)) for c in fan["cones"]}:
        return "witness misses a cone"
    return None


def check_classify(job, code, text):
    doc = _parse(text)
    if doc is None:
        return f"classify: unparsable output, exit {code}"
    if job.kind == "accept":
        if code != 0 or set(doc) != {"sequence", "order", "matrix", "ray_map"}:
            return f"classify: exit {code}, got {text[:120]!r}"
        reason = _verify_witness(job.data["fan"], doc)
        return None if reason is None else f"classify: {reason}"
    if code != 4:
        return f"classify: exit {code} on a {job.kind} fan"
    if job.kind == "missing":
        cone = doc.get("witness", {}).get("missing_cone")
        present = {tuple(sorted(c)) for c in job.data["fan"]["cones"]}
        if (doc["reject"] == "cone set not full binary cube" and cone
                and tuple(cone) not in present):
            return None
        return f"classify: got {text[:120]!r} on a fan missing a cone"
    if text != canonical(job.data["expect"]):
        return f"classify: got {text[:120]!r}"
    return None


_LABEL = re.compile(r">\((-?\d+), (-?\d+)\)</text>")


def check_render(job, code, text):
    fan = job.data["fan"]
    labels = [(int(x), int(y)) for x, y in _LABEL.findall(text)]
    if (code == 0 and text.startswith("<svg ") and text.endswith("</svg>\n")
            and text.count("<polygon ") == len(fan["cones"])
            and text.count("<line ") == len(fan["rays"])
            and labels == [tuple(r) for r in fan["rays"]]):
        return None
    return f"render: exit {code}, wrong picture"


def check_numbers(job, code, text, sample: int = 24):
    doc = _parse(text)
    n, entries = job.height, job.data["entries"]
    if code != 0 or doc is None:
        return f"numbers: exit {code}"
    c = c_matrix(n, entries)
    if doc["c_matrix"] != c:
        return "numbers: wrong c_matrix"
    b = [[as_int(x) for x in row] for row in doc["bott_matrix"]]
    if any(sum(c[r][t] * -b[t][s] for t in range(n)) != int(r == s)
           for r in range(n) for s in range(n)):
        return "numbers: C(I) . (-B(I)) is not the identity"
    full = range(1, n + 1)
    sets = [ids for size in range(1, n + 1) for ids in combinations(full, size)]
    numbers = doc["numbers"]
    if [tuple(item["set"]) for item in numbers] != sets:
        return "numbers: index sets missing or out of order"
    rng = random.Random(job.data["sample_seed"])
    for idx in rng.sample(range(len(sets)), min(sample, len(sets))):
        if as_int(numbers[idx]["value"]) != bott_number(n, entries, sets[idx]):
            return f"numbers: wrong b{sets[idx]}"
    oracle = {"checked": 2 ** n - 1 - n, "match": True}
    if doc.get("oracle") != (oracle if "--oracle" in job.argv else None):
        return "numbers: wrong oracle summary"
    return None


def check_charts(job, code, text, sample: int = 16):
    doc = _parse(text)
    k = job.height
    if code != 0 or doc is None or doc["k"] != k:
        return f"charts: exit {code}"
    codes = [list(w) for w in product((0, 1), repeat=k)]
    charts = doc["charts"]
    if [chart["code"] for chart in charts] != codes:
        return "charts: codes missing or out of order"
    rays = tower_rays(bott_rows(k, job.data["entries"]), k)
    rng = random.Random(job.data["sample_seed"])
    for chart in rng.sample(charts, min(sample, len(charts))):
        w = chart["code"]
        gens = [rays[2 * m + w[m]] for m in range(k)]
        for j, mono in enumerate(chart["monomials"]):
            for m, gen in enumerate(gens):
                if sum(as_int(a) * b for a, b in zip(mono, gen)) != int(j == m):
                    return f"charts: code {w} is not dual to its cone"
    return None


def check_fan(job, code, text):
    doc = _parse(text)
    k = job.height
    if code != 0 or doc is None:
        return f"fan: exit {code}"
    rays = tower_rays(bott_rows(k, job.data["entries"]), k)
    if (doc["dim"] != k
            or [tuple(as_int(x) for x in r) for r in doc["rays"]] != rays
            or [tuple(cone) for cone in doc["cones"]] != tower_cones(k)):
        return "fan: wrong rays or cones"
    return None


def check_cohomology(job, code, text):
    doc = _parse(text)
    k, entries = job.height, job.data["entries"]
    if code != 0 or doc is None:
        return f"cohomology: exit {code}"
    relations = [[entries.get((i, j), 0) for i in range(1, j)] + [1]
                 for j in range(1, k + 1)]
    if (doc["k"] != k or doc["relations"] != relations
            or doc["betti"] != [comb(k, i) for i in range(k + 1)]
            or as_int(doc["euler_characteristic"]) != 2 ** k):
        return "cohomology: wrong relations, Betti numbers or Euler number"
    terms = [(tuple(ids), as_int(coeff)) for ids, coeff in doc["total_chern"]]
    keys = [(len(ids), ids) for ids, _ in terms]
    if keys != sorted(set(keys)):
        return "cohomology: total Chern terms out of order"
    linear = {i: 2 + sum(entries.get((i, j), 0) for j in range(i + 1, k + 1))
              for i in range(1, k + 1)}
    got_linear = {ids[0]: coeff for ids, coeff in terms if len(ids) == 1}
    if (terms[0] != ((), 1) or terms[-1] != (tuple(range(1, k + 1)), 2 ** k)
            or got_linear != {i: v for i, v in linear.items() if v}):
        return "cohomology: wrong c_0, c_1 or top Chern class"
    oracle = {"checked": k + 3, "match": True}
    if doc.get("oracle") != (oracle if "--oracle" in job.argv else None):
        return "cohomology: wrong oracle summary"
    return None


def check_bundle(job, code, text):
    doc = _parse(text)
    k, entries = job.height, job.data["entries"]
    if code != 0 or doc is None:
        return f"bundle: exit {code}"

    def c(i, j):
        return 1 if i == j else entries.get((i, j), 0)

    gens = []
    for r in range(1, k + 1):
        vec = [0] * (2 * k)
        vec[2 * r - 2] = 1
        for s in range(r, k + 1):
            vec[2 * s - 1] = c(r, s)
        gens.append(vec)
    expect = {
        "k": k,
        "quotient": {"kernel_generators": gens,
                     "action_weights": [list(col) for col in zip(*gens)]},
        "canonical_lambda": [0] * (k - 1) + [-1],
        "lambda": [[-int(i == j) for i in range(1, k + 1)]
                   for j in range(1, k + 1)],
        "lambda_perp": [c(i, k) for i in range(1, k)] + [1],
        "tangent": [vec for j in range(1, k + 1) for vec in (
            [int(i == j) for i in range(1, k + 1)],
            [c(i, j) if i <= j else 0 for i in range(1, k + 1)])],
        "xi": [c(i, k + 1) for i in range(1, k + 1)],
    }
    return None if text == canonical(expect) else "bundle: wrong document"


CHECKS = {
    "check": check_check,
    "classify": check_classify,
    "render": check_render,
    "numbers": check_numbers,
    "charts": check_charts,
    "fan": check_fan,
    "cohomology": check_cohomology,
    "bundle": check_bundle,
}
