"""The bott-towers benchmark: three fixed job mixes, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload recognize --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload runs in a fresh child interpreter (``worker.py``), one after
another.  Set-up time is the median wall time of a fresh
``python -m bott_towers`` on the workload's smallest input.  The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics listed in BENCHMARK.json (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

SETUP_RUNS = 11
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    """The program could not be run or measured; no result is printed."""


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh CLI process on the smallest input.

    One unmeasured run first writes the bytecode cache, as any installed
    copy has.  Every run's output is checked like a job's, and every time is
    scaled to the reference speed (clock.py) measured around it.
    """
    specs, _ = jobs.build(workload, seed)
    job = min(specs, key=lambda j: j.height)
    argv = [sys.executable, "-m", "bott_towers", *job.argv]
    times = []
    for attempt in range(SETUP_RUNS + 1):
        loops = [clock.reference_ns() for _ in range(2)]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=30)
        elapsed = time.perf_counter() - start
        loops += [clock.reference_ns() for _ in range(2)]
        elapsed *= clock.REFERENCE_NS / statistics.fmean(loops)
        verdict = oracles.CHECKS[job.command](job, done.returncode, done.stdout)
        if verdict is not None:
            raise BenchError(f"set-up run of {job.command} failed: {verdict}; "
                             f"{done.stderr.strip()[-300:]}")
        if attempt:
            times.append(elapsed)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        argv += ["--spans", os.path.join(out, f"spans-{workload}-{seed}.tsv.gz")]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: worker exited {done.returncode}: "
                         f"{done.stderr.strip()[-600:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_worker(workload, seed, seconds, trace)
    values = dict(result["metrics"])
    if trace:
        wanted = declared("per_layer")
        unknown = [name for name, _ in wanted if not tracing.is_metric(name)]
        if unknown:
            raise BenchError(f"per-layer metrics with no source: {unknown}")
    else:
        wanted = declared("end_to_end")
        values["setup_s"] = setup_seconds(workload, seed)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in wanted}
    attempted, failed = result["attempted"], result["failed"]
    known = result["known_defect"]
    print(f"{workload} seed {seed}: {result['passes']} pass(es), "
          f"{attempted} jobs attempted, {result['samples']} latency samples "
          f"over {result['measured_s']:.2f} s")
    raw = result["raw"]
    for name, metric in metrics.items():
        unscaled = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{unscaled}")
    print(f"  {'speed_factor':40s} {result['speed_factor']:14.6g} "
          f"(reference / loop time, median over the run)")
    print(f"  {'fail_ratio':40s} {(failed + known) / attempted:14.6g} ratio"
          f"  ({failed} failed, {known} known-defect mismatches)")
    for reason in result["reasons"]:
        print(f"  failure: {reason}")
    meta = {key: result[key] for key in ("jobs_per_command", "jobs_per_height")}
    meta.update(python=sys.version.split()[0], nproc=os.cpu_count(),
                commit=commit(), workload=workload, seed=seed, trace=trace)
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="bott-towers benchmark: closed-loop CLI job mixes")
    parser.add_argument("--workload", default="all",
                        choices=[*sorted(jobs.DECKS), "all"])
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED,
                        help=f"input seed (held-out seed: {jobs.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    names = list(jobs.DECKS) if args.workload == "all" else [args.workload]
    try:
        results = [bench(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
