"""Wall times scaled to a fixed machine speed.

On a shared 2-core sandbox the processor changes speed from one tenth of a
second to the next: the loop below takes 0.9 ms at full speed and up to
1.7 ms when slowed, and a run can sit mostly in either state, so raw wall
times vary by some 20 % from run to run.  A job slows by about the same
factor as the loop.  Timing the loop every 50 ms, also in the middle of a
job, and scaling each job's time by REFERENCE_NS / (mean loop time over the
job) cut the spread of repeated 3-second jobs from 15 % to under 5 %.

The loop uses no library code, so a change to the library moves scaled
times as it moves raw ones.  The time spent in the loop is subtracted from
the job it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

# The loop's time at full speed in the sandbox (Python 3.11, 2 vCPUs).
REFERENCE_NS = 900_000
SAMPLE_EVERY_S = 0.05


def reference_ns() -> int:
    """Wall time of a fixed mix of integer, list, dict and call bytecode."""
    def step(acc, i):
        return (acc * 31 + i) % 1_000_003

    start = time.perf_counter_ns()
    acc, table, items = 0, {}, []
    for i in range(3000):
        acc = step(acc, i)
        table[i & 63] = acc
        items.append(table.get((i * 7) & 63, 0))
    items.sort()
    return time.perf_counter_ns() - start


class Clock:
    """Loop times sampled every 50 ms by an interval timer while entered."""

    def __init__(self):
        self.samples = []
        self.spent_ns = 0

    def _sample(self, *_):
        start = time.perf_counter_ns()
        self.samples.append(reference_ns())
        self.spent_ns += time.perf_counter_ns() - start

    def __enter__(self):
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.spent_ns

    def scale(self, mark, elapsed_ns: int) -> float:
        """`elapsed_ns` since `mark`, less sampling time, at reference speed.

        The speed is the mean over the samples taken during the interval
        and the two before it.
        """
        count, spent = mark
        window = self.samples[max(count - 2, 0):]
        net = elapsed_ns - (self.spent_ns - spent)
        return net * REFERENCE_NS / statistics.fmean(window)

    def factor(self) -> float:
        """Reference speed over the median loop time so far."""
        return REFERENCE_NS / statistics.median(self.samples)
