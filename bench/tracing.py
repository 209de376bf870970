"""Spans around the public functions of the library's layers, kept in memory.

Only the traced run installs the wrappers.  Each wrapper replaces a public
function wherever it is looked up: in the module that defines it and in
every ``bott_towers`` module that imported it by name.  Private helpers are
never wrapped, so the library may delete or rename them freely.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

# (defining module, public attribute, span name).  A dotted attribute wraps
# a method on a class, which every caller reaches through the class.
LAYERS = [
    ("cli", "main", "cli.main"),
    ("serialize", "sequence_from_doc", "serialize.parse"),
    ("serialize", "fan_from_doc", "serialize.parse"),
    ("serialize", "encode_canonical", "serialize.encode_canonical"),
    ("sequences", "IntegralSequence.__init__", "sequences.IntegralSequence"),
    ("sequences", "bott_matrix", "sequences.bott_matrix"),
    ("sequences", "bott_number", "sequences.bott_number"),
    ("sequences", "bott_number_moebius", "sequences.bott_number_moebius"),
    ("fans", "build_fan", "fans.build_fan"),
    ("fans", "is_smooth", "fans.is_smooth"),
    ("fans", "is_complete", "fans.is_complete"),
    ("fans", "is_fano", "fans.is_fano"),
    ("classify", "classify", "classify.classify"),
    ("classify", "crosspolytope_check", "classify.crosspolytope_check"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "invert_fraction", "linalg.invert_fraction"),
    ("linalg", "invert_unimodular", "linalg.invert_unimodular"),
    ("linalg", "solve_fraction", "linalg.solve_fraction"),
    ("linalg", "complete_to_basis", "linalg.complete_to_basis"),
    ("charts", "dual_chart", "charts.dual_chart"),
    ("bundles", "quotient_presentation", "bundles.quotient_presentation"),
    ("bundles", "tangent_splitting", "bundles.tangent_splitting"),
    ("bundles", "support_function", "bundles.support_function"),
    ("cohomology", "total_chern_class", "cohomology.total_chern_class"),
    ("cohomology", "euler_characteristic", "cohomology.euler_characteristic"),
    ("render", "render_svg", "render.render_svg"),
]
JOB = "job"
PACKAGE = "bott_towers"


class Recorder:
    """Spans (name, start, end, parent) in flat arrays, plus counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._distinct = set()
        self._alive = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def new_job(self) -> None:
        """Distinct-input counts restart: no cache outlives a job."""
        self._distinct.clear()
        self._alive.clear()

    def spans(self):
        for sid in range(len(self.name)):
            yield (sid, self.parent[sid], self.names[self.name[sid]],
                   self.start[sid], self.end[sid])

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans():
                out.write("\t".join(map(str, span)) + "\n")


def summarize(rec: Recorder):
    """Per span name: calls, inclusive ns and self ns.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the same
    name, so a recursive call is not counted twice.
    """
    count = len(rec.name)
    child = [0] * count
    for sid in range(count):
        p = rec.parent[sid]
        if p >= 0:
            child[p] += rec.end[sid] - rec.start[sid]
    calls, inclusive, self_ns = Counter(), Counter(), Counter()
    # Spans are stored in the order they opened, so a parent precedes its
    # children and the path from the root is a stack swept in id order.
    path, on_path = [], Counter()
    for sid in range(count):
        name = rec.names[rec.name[sid]]
        while path and path[-1] != rec.parent[sid]:
            on_path[rec.names[rec.name[path.pop()]]] -= 1
        dur = rec.end[sid] - rec.start[sid]
        calls[name] += 1
        self_ns[name] += dur - child[sid]
        if not on_path[name]:
            inclusive[name] += dur
        path.append(sid)
        on_path[name] += 1
    return calls, inclusive, self_ns


def _after_encode(rec, args, result, dur):
    rec.counts["serialize.encode_canonical.bytes"] += len(result)


def _after_bott_number(rec, args, result, dur):
    c, ids = args[0], args[1]
    rec._alive.setdefault(id(c), c)
    key = (id(c), tuple(sorted(ids)))
    if key not in rec._distinct:
        rec._distinct.add(key)
        rec.counts["sequences.bott_number.distinct"] += 1


def _after_is_complete(rec, args, result, dur):
    k = args[0].dim
    rec.counts[f"fans.is_complete.k{k:02d}.calls"] += 1
    rec.counts[f"fans.is_complete.k{k:02d}.ns"] += dur


def _after_classify(rec, args, result, dur):
    rec.counts["classify.accepted" if result.ok else "classify.rejected"] += 1


def _after_total_chern(rec, args, result, dur):
    rec.counts["cohomology.terms"] += len(result.terms())


HOOKS = {
    "serialize.encode_canonical": _after_encode,
    "sequences.bott_number": _after_bott_number,
    "fans.is_complete": _after_is_complete,
    "classify.classify": _after_classify,
    "cohomology.total_chern_class": _after_total_chern,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if hook is not None:
            hook(rec, args, result, rec.end[sid] - rec.start[sid])
        return result

    return traced


def install(rec: Recorder):
    """Wrap every layer function; returns the undo list for `uninstall`."""
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module_name, attr, span in LAYERS:
        if any(part.startswith("_") and part != "__init__"
               for part in attr.split(".")):
            raise ValueError(f"{attr}: only public functions are traced")
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = _wrap(rec, span, original)
        if path:
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


COUNTERS = {"serialize.encode_canonical.bytes", "sequences.bott_number.distinct",
            "classify.accepted", "classify.rejected", "cohomology.terms"}


def is_metric(name: str) -> bool:
    """Whether `layer_metrics` can produce this name (0 when never called)."""
    spans = {span for _, _, span in LAYERS}
    base, _, suffix = name.rpartition(".")
    if name in COUNTERS or name in ("trace.coverage", "trace.overhead_ratio",
                                    "jobs.known_defect"):
        return True
    if base.startswith("fans.is_complete.k") and suffix in ("ms", "calls"):
        return base[len("fans.is_complete.k"):].isdigit()
    return base in spans and suffix in ("calls", "ms", "self_ms")


def layer_metrics(rec: Recorder, job_ns: int, scale: float = 1.0):
    """The per-layer numbers of one traced pass, keyed by metric name.

    Times are multiplied by `scale`, the pass's speed factor (clock.py).
    """
    calls, inclusive, self_ns = summarize(rec)
    out = {}
    for name in calls:
        if name == JOB:
            continue
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = inclusive[name] * scale / 1e6
        out[f"{name}.self_ms"] = self_ns[name] * scale / 1e6
    for key, value in rec.counts.items():
        if key.endswith(".ns"):
            k = key[:-3]
            out[f"{k}.ms"] = value * scale / 1e6 / rec.counts[f"{k}.calls"]
        else:
            out[key] = value
    layer_self = sum(v for name, v in self_ns.items() if name != JOB)
    out["trace.coverage"] = layer_self / job_ns if job_ns else 0.0
    return out
