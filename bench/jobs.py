"""Seeded inputs and the fixed job decks of the three workloads.

A job is one ``bott`` subcommand on one inline JSON document.  Each deck
row gives how many jobs of one subcommand run at one height per pass; the
rows are constants so that every seed and every commit runs the same mix,
and only the documents change with the seed.  Every distinct document is
used for two jobs (one when its row has a single job), so that each output
can be compared with a repeat.  The row counts give each height a similar
share of the pass time on the baseline; see README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracles

DEFAULT_SEED = 1
# Never used while the deck sizes were chosen; use it to confirm a claim.
HELD_OUT_SEED = 20030601

RECOGNIZE = {
    **{("check", k): c for k, c in zip(range(2, 9), (
        400, 192, 120, 18, 5, 2, 1))},
    **{("classify", k): c for k, c in zip(range(2, 11), (
        580, 368, 172, 33, 12, 5, 1, 1, 1))},
    ("render", 2): 216,
}
TABLES = {
    **{("numbers", n): c for n, c in zip(range(4, 15), (
        276, 212, 156, 92, 48, 23, 10, 5, 2, 1, 1))},
    **{("charts", k): c for k, c in zip(range(2, 12), (
        322, 266, 182, 110, 47, 22, 8, 4, 1, 1))},
    **{("fan", k): c for k, c in zip(range(2, 15), (
        334, 326, 302, 262, 224, 154, 96, 60, 32, 15, 8, 4, 1))},
}
RING = {
    **{("cohomology", k): c for k, c in zip(range(2, 14), (
        828, 750, 618, 442, 278, 144, 66, 29, 12, 6, 2, 1))},
    **{("bundle", k): c for k, c in zip(range(2, 14), (
        158, 154, 140, 134, 124, 128, 114, 116, 102, 94, 88, 86))},
}
DECKS = {"recognize": RECOGNIZE, "tables": TABLES, "ring": RING}

# Known-answer rejects in `recognize`: every fifth fan document is one.
REJECT_KINDS = ("odd", "missing", "nonsmooth", "incomplete")
# A 7-ray complex winding twice around the origin: every wall lies in two
# cones and every probe is covered, but it is not a fan.  `check` still
# calls it complete; the expected verdict stays "complete": false.
DOUBLE_WRAP = {"dim": 2,
               "rays": [[1, 0], [0, 1], [-1, -1], [0, -1], [1, 1], [-1, 0],
                        [1, -1]],
               "cones": [[i, (i + 1) % 7] for i in range(7)]}
DOUBLE_WRAP_JOBS = {"check": 4, "classify": 2, "render": 2}


@dataclass(frozen=True)
class Job:
    command: str
    height: int
    kind: str
    argv: tuple
    data: dict = field(compare=False, hash=False)


def random_entries(rng, n, lo=-3, hi=3):
    """Every twist c(i,j), 1 <= i < j <= n, drawn from [lo, hi]."""
    return {(i, j): rng.randint(lo, hi)
            for i in range(1, n) for j in range(i + 1, n + 1)}


def sequence_doc(n, entries):
    return {"n": n, "entries": [[i, j, v] for (i, j), v in sorted(entries.items())
                                if v]}


def random_unimodular(rng, n, steps=12):
    """A random GL_n(Z) element from elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op, i, j = rng.randrange(3), rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            factor = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [a + factor * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def scramble(rng, rays, cones):
    """Apply a random unimodular map and relabel the rays at random."""
    dim = len(rays[0])
    change = random_unimodular(rng, dim)
    perm = list(range(len(rays)))
    rng.shuffle(perm)
    moved = [None] * len(rays)
    for old, new in enumerate(perm):
        moved[new] = list(oracles.matvec(change, rays[old]))
    return {"dim": dim, "rays": moved,
            "cones": [sorted(perm[r] for r in cone) for cone in cones]}


def _product(rays2, cones2, rows, k):
    """A 2-D crosspolytope fan times the stage-(k-2) tower fan."""
    tail = oracles.tower_rays(rows, k - 2) if k > 2 else []
    rays = [tuple(r) + (0,) * (k - 2) for r in rays2]
    rays += [(0, 0) + tuple(r) for r in tail]
    tail_cones = oracles.tower_cones(k - 2) if k > 2 else [()]
    cones = [tuple(a) + tuple(4 + r for r in b)
             for a in cones2 for b in tail_cones]
    return rays, cones


# 2-D factors: a non-smooth complete one (every cone has determinant +-2)
# and a smooth one that covers only the half-plane x >= 0.
NONSMOOTH_2D = ([(1, 0), (-1, 0), (1, 2), (-1, -2)],
                [(0, 2), (0, 3), (1, 2), (1, 3)])
INCOMPLETE_2D = ([(1, 0), (1, 1), (0, 1), (0, -1)],
                 [(0, 2), (0, 3), (1, 2), (1, 3)])


def fan_job(rng, command, k, kind):
    """A scrambled fan document of height k and its known answers."""
    entries = random_entries(rng, k)
    rows = oracles.bott_rows(k, entries)
    rays, cones = oracles.tower_rays(rows, k), oracles.tower_cones(k)
    smooth, complete, crosspolytope = True, True, True
    fano = oracles.tower_fano(rows, k)
    reject = witness = None
    if kind == "odd":
        rays = rays + [tuple(int(t < 2) for t in range(k))]
        crosspolytope, fano = False, False
        reject, witness = "ray count odd", {"ray_count": 2 * k + 1}
    elif kind == "missing":
        cones = list(cones)
        del cones[rng.randrange(len(cones))]
        complete, fano, crosspolytope = False, False, False
    elif kind == "nonsmooth":
        tail = oracles.bott_rows(k - 2, entries) if k > 2 else []
        rays, cones = _product(*NONSMOOTH_2D, tail, k)
        smooth, fano = False, (oracles.tower_fano(tail, k - 2) if k > 2 else True)
        reject = "not smooth"
    elif kind == "incomplete":
        tail = oracles.bott_rows(k - 2, entries) if k > 2 else []
        rays, cones = _product(*INCOMPLETE_2D, tail, k)
        complete, fano = False, False
        reject = "not complete"
    doc = scramble(rng, rays, cones)
    if kind == "nonsmooth":
        first = min(tuple(c) for c in doc["cones"])
        witness = {"cone": list(first),
                   "det": oracles.det([doc["rays"][r] for r in first])}
    expect = None
    if command == "check":
        expect = {"smooth": smooth, "complete": complete, "fano": fano,
                  "crosspolytope": crosspolytope}
    elif command == "classify":
        expect = {"reject": reject, "witness": witness}
    return Job(command, k, kind, (command, json.dumps(doc)),
               {"fan": doc, "expect": expect})


def double_wrap_job(command):
    expect = {"smooth": True, "complete": False, "fano": False,
              "crosspolytope": False}
    if command == "classify":
        expect = {"reject": "ray count odd", "witness": {"ray_count": 7}}
    return Job(command, 2, "double_wrap", (command, json.dumps(DOUBLE_WRAP)),
               {"fan": DOUBLE_WRAP, "expect": expect})


def sequence_job(rng, command, k, index):
    """A random sequence document; `bundle` gets one extra stage and -k."""
    n = k + 1 if command == "bundle" else k
    entries = random_entries(rng, n)
    argv = [command, json.dumps(sequence_doc(n, entries))]
    if command == "bundle":
        argv += ["-k", str(k)]
    elif command == "numbers":
        argv.append("--sets")
        if index % 4 == 3:
            argv.append("--oracle")
    elif command == "cohomology" and index % 2 == 1:
        argv.append("--oracle")
    return Job(command, k, "accept", tuple(argv),
               {"entries": entries, "sample_seed": rng.getrandbits(32)})


def build(workload: str, seed: int):
    """(distinct jobs, deck): the deck lists job indices in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, deck = [], []
    for (command, k), count in DECKS[workload].items():
        for index in range((count + 1) // 2):
            if command in ("numbers", "charts", "fan", "cohomology", "bundle"):
                job = sequence_job(rng, command, k, index)
            else:
                kind = "accept"
                if command != "render" and index % 5 == 4:
                    kind = REJECT_KINDS[(index // 5) % len(REJECT_KINDS)]
                job = fan_job(rng, command, k, kind)
            deck += [len(jobs)] * min(2, count - 2 * index)
            jobs.append(job)
    if workload == "recognize":
        for command, count in DOUBLE_WRAP_JOBS.items():
            deck += [len(jobs)] * count
            jobs.append(double_wrap_job(command))
    rng.shuffle(deck)
    return jobs, deck
