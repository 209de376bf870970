"""Time two checkouts job by job, in one process, on one bench deck.

Usage: python tools/paired_ab.py PARENT_DIR CHANGE_DIR --workload W
                                 [--seed N] [--passes P] [--limit J]
                                 [--command NAME ...]

Each checkout's ``src/bott_towers`` is loaded under its own package name,
so both live in this process.  Every job of the deck that ``bench/jobs.py``
builds runs on both sides back to back, the side that goes first
alternating from job to job, each run starting from a collected heap as in
``bench/worker.py``.  ``--command NAME``, which may be repeated, keeps only
the jobs of those subcommands, so a gain can be split between them; a name
with no job in the deck is a usage error (exit 2).  ``--limit J`` then keeps
the first J jobs.  A job whose exit code or stdout
differs between the sides is reported, and the exit status is then 1.
Otherwise the change/parent ratio of each pass's time is printed as its
range over the passes, with the number of passes the change ran faster;
then each subcommand's pass time on each side with its ratio, then each
side's pass time, median and 90th-percentile job time with theirs, all
from the same run.

A job and its pair run microseconds apart, so drifts in machine speed that
make separate runs differ by tens of percent cancel out.  Use it to size and
attribute a change; a claim is measured with ``bench/run.py``.  It reads
``bench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SIDES = ("parent", "change")


def load_cli(checkout, name: str):
    """The ``cli`` module of the checkout's package, loaded as `name`."""
    package = Path(checkout).resolve() / "src" / "bott_towers"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def bench_deck(workload: str, seed: int):
    """The argv of every deck job in run order, from ``bench/jobs.py``."""
    sys.path.insert(0, str(BENCH))
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        jobs = importlib.import_module("jobs")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    specs, deck = jobs.build(workload, seed)
    return [specs[idx].argv for idx in deck]


def run_job(cli, argv):
    """(nanoseconds, exit code, stdout) of one in-process CLI call."""
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue()


def compare(clis, argvs, passes: int):
    """(per-side job times in ns, argv of the jobs whose results differ)."""
    times = ([], [])
    differ = []
    for _ in range(passes):
        for index, argv in enumerate(argvs):
            results = [None, None]
            for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                results[side] = run_job(clis[side], argv)
                times[side].append(results[side][0])
            if results[0][1:] != results[1][1:]:
                differ.append(argv)
    return times, differ


def summary(times, argvs_per_pass: int):
    """Pass time (ms), p50 and p90 (ms) of one side's job times."""
    passes = len(times) // argvs_per_pass
    return (sum(times) / 1e6 / passes, statistics.median(times) / 1e6,
            statistics.quantiles(times, n=10)[8] / 1e6)


def pass_ratios(times, argvs_per_pass: int):
    """The change/parent ratio of each pass's summed job time."""
    parent, change = ([sum(side[start:start + argvs_per_pass])
                       for start in range(0, len(side), argvs_per_pass)]
                      for side in times)
    return [new / old for old, new in zip(parent, change)]


def by_command(times, argvs):
    """{subcommand: pass time (ms)} of one side's job times, in the order
    of each subcommand's first job."""
    passes = len(times) // len(argvs)
    sums = dict.fromkeys((argv[0] for argv in argvs), 0)
    for elapsed, argv in zip(times, argvs * passes):
        sums[argv[0]] += elapsed
    return {name: total / 1e6 / passes for name, total in sums.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout timed as the parent")
    parser.add_argument("change", help="checkout timed as the change")
    parser.add_argument("--workload", required=True,
                        choices=("recognize", "tables", "ring"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first LIMIT jobs of the deck")
    parser.add_argument("--command", action="append", metavar="NAME",
                        help="run only this subcommand's jobs (repeatable)")
    args = parser.parse_args(argv)
    argvs = bench_deck(args.workload, args.seed)
    if args.command:
        unknown = sorted(set(args.command) - {argv[0] for argv in argvs})
        if unknown:
            parser.error(f"no {args.workload} job runs {', '.join(unknown)}")
        argvs = [argv for argv in argvs if argv[0] in args.command]
    argvs = argvs[:args.limit]
    clis = [load_cli(checkout, f"bott_towers_{side}")
            for checkout, side in zip((args.parent, args.change), SIDES)]
    times, differ = compare(clis, argvs, args.passes)
    for argv in differ[:5]:
        print(f"differs: {' '.join(argv)[:200]}")
    if differ:
        print(f"{len(differ)} job run(s) differ in exit code or stdout")
        return 1
    rows = [summary(side, len(argvs)) for side in times]
    print(f"{args.workload} seed {args.seed}: {len(argvs)} jobs x "
          f"{args.passes} pass(es), identical exit codes and stdout")
    ratios = pass_ratios(times, len(argvs))
    print(f"pass ratio {min(ratios):.4f}-{max(ratios):.4f}, change faster "
          f"in {sum(ratio < 1 for ratio in ratios)} of {len(ratios)}")
    parent, change = (by_command(side, argvs) for side in times)
    print(f"{'command':10s} {'parent ms':>10s} {'change ms':>10s} "
          f"{'ratio':>10s}")
    for name, old in parent.items():
        print(f"{name:10s} {old:10.4f} {change[name]:10.4f} "
              f"{change[name] / old:10.4f}")
    print(f"{'':8s} {'pass ms':>10s} {'p50 ms':>10s} {'p90 ms':>10s}")
    for side, row in zip(SIDES, rows):
        print(f"{side:8s} " + " ".join(f"{value:10.4f}" for value in row))
    print(f"{'ratio':8s} " + " ".join(f"{new / old:10.4f}"
                                      for old, new in zip(*rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
