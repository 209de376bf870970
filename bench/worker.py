"""Run one workload's job deck in this process; print one JSON result line.

``run.py`` starts this file in a fresh interpreter per workload, so peak
memory and caches belong to that workload alone.  To run it by hand from
the repository root:

    python3 bench/worker.py --workload ring --seed 1 --seconds 25 --trace 0

The load is a closed loop: one job at a time, each parsing its own
document through ``bott_towers.cli.main(argv)`` with stdout captured.
Whole passes over the deck run until the next pass would overrun
``--seconds`` (at least one pass).  Checking happens between jobs, outside
the timed region.  With ``--trace 1`` untraced and traced passes alternate
and the result holds per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402


class Checker:
    """Oracle verdict on a job's first output, digest match on each repeat."""

    def __init__(self, specs):
        self.specs = specs
        self.digests = {}
        self.verdicts = {}
        self.failed = 0
        self.known_defect = 0
        self.reasons = []

    def record(self, idx: int, code, text: str) -> bool:
        """Count the outcome of one job run; True when it was correct."""
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        if idx not in self.verdicts:
            job = self.specs[idx]
            try:
                self.verdicts[idx] = oracles.CHECKS[job.command](job, code, text)
            except (KeyError, TypeError, ValueError, IndexError,
                    AttributeError) as err:
                self.verdicts[idx] = f"{job.command}: malformed output ({err!r})"
        verdict = self.verdicts[idx]
        if self.digests.setdefault(idx, digest) != digest:
            verdict = f"{self.specs[idx].command}: output differs between repeats"
        if verdict is None:
            return True
        if verdict == oracles.KNOWN_DEFECT:
            self.known_defect += 1
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(verdict)
        return False


def run_job(cli, argv, rec=None):
    """(nanoseconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sid = rec.open(tracing.JOB) if rec is not None else None
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a stop
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if sid is not None:
            rec.close(sid)
    return elapsed, code, out.getvalue()


def run_pass(cli, specs, deck, checker, speed, rec=None):
    """One closed-loop pass; returns (raw ns, scaled ns, correct) per job."""
    samples = []
    for idx in deck:
        # Each job starts from the same collector state, as a fresh CLI
        # process would; the collection itself is not timed.
        gc.collect()
        if rec is not None:
            rec.new_job()
        mark = speed.mark()
        elapsed, code, text = run_job(cli, specs[idx].argv, rec)
        samples.append((elapsed, speed.scale(mark, elapsed),
                        checker.record(idx, code, text)))
    return samples


def end_to_end(samples, column):
    times = [sample[column] for sample in samples]
    correct = sum(sample[2] for sample in samples)
    return {
        "jobs_per_s": correct / (sum(times) / 1e9),
        "job_ms_p50": statistics.median(times) / 1e6,
        "job_ms_p90": statistics.quantiles(times, n=10)[8] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.DECKS), required=True)
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the last traced pass here")
    args = parser.parse_args(argv)

    from bott_towers import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"bott_towers was imported from {cli.__file__}, not {ROOT}/src")

    specs, deck = jobs.build(args.workload, args.seed)
    checker = Checker(specs)
    gc.collect()
    gc.freeze()  # the deck's documents are never collector work
    began = time.perf_counter()
    samples, traced, untraced_ns, traced_ns = [], [], [], []
    passes = 0
    with clock.Clock() as speed:
        while True:
            start = time.perf_counter()
            done = run_pass(cli, specs, deck, checker, speed)
            samples += done
            untraced_ns.append(sum(scaled for _, scaled, _ in done))
            if args.trace:
                rec = tracing.Recorder()
                undo = tracing.install(rec)
                try:
                    done = run_pass(cli, specs, deck, checker, speed, rec)
                finally:
                    tracing.uninstall(undo)
                traced_ns.append(sum(scaled for _, scaled, _ in done))
                raw_ns = sum(raw for raw, _, _ in done)
                traced.append(tracing.layer_metrics(rec, raw_ns,
                                                    traced_ns[-1] / raw_ns))
            passes += 1
            spent = time.perf_counter() - began
            if spent + (time.perf_counter() - start) > args.seconds:
                break

    if args.trace:
        if args.spans:
            rec.write(args.spans)
        names = set().union(*traced)
        metrics = {name: statistics.median(m.get(name, 0.0) for m in traced)
                   for name in names}
        metrics["trace.overhead_ratio"] = (statistics.median(traced_ns)
                                           / statistics.median(untraced_ns))
        metrics["jobs.known_defect"] = checker.known_defect // (2 * passes)
        raw = {}
    else:
        metrics, raw = end_to_end(samples, 1), end_to_end(samples, 0)
    commands = Counter(specs[i].command for i in deck)
    heights = Counter(f"{specs[i].command}.k{specs[i].height:02d}" for i in deck)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "samples": len(samples), "measured_s": sum(s[0] for s in samples) / 1e9,
        "attempted": passes * len(deck) * (2 if args.trace else 1),
        "failed": checker.failed, "known_defect": checker.known_defect,
        "reasons": checker.reasons, "metrics": metrics, "raw": raw,
        "speed_factor": speed.factor(),
        "jobs_per_command": dict(sorted(commands.items())),
        "jobs_per_height": dict(sorted(heights.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
