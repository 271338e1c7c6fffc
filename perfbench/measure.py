"""Timing normalization and the summary statistics the benchmark reports.

The machine this benchmark was built on has two cores shared with other
tenants: the same pure-Python loop took anywhere from 2.1 s to 3.1 s in
different processes, and its speed flips between two levels within
seconds.  A fixed reference loop is therefore timed throughout every run
(before each CLI request and set-up process in the benchmark process,
every 0.1 s in a worker), and all of the run's timings are scaled by the
reference's mean speed over the run: a normalized time is what the work
would have taken had the reference run at its nominal speed.  The
reference loop is benchmark code, so a change to the program never
changes it.
"""

from __future__ import annotations

import statistics
import time

REF_ITERS = 1500
REF_REPEATS = 3
# Nominal duration of one reference loop (best of REF_REPEATS).  It only
# fixes the unit of normalized time; changing it rescales every timing
# metric, so it is a constant of the benchmark, not a setting.
REF_NOMINAL_S = 0.0008

TAIL_BEYOND = 10


def _reference_once():
    table = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(REF_ITERS):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
        if i % 50 == 0:
            acc += len(sorted(table.values())[:5])
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keep the loop's result alive
        raise AssertionError
    return elapsed


def reference_seconds():
    """Best of a few runs of the reference loop: interruptions inflate a
    run, sustained slowdowns (contention, clock changes) inflate all."""
    return min(_reference_once() for _ in range(REF_REPEATS))


class RefSampler:
    """Readings of the reference loop taken through a run, at most one
    every `interval` seconds."""

    def __init__(self, interval=0.0):
        self.interval = interval
        self.readings = []
        self.last = None

    def sample(self):
        now = time.perf_counter()
        if self.last is None or now - self.last >= self.interval:
            self.readings.append(reference_seconds())
            self.last = time.perf_counter()


def run_factor(readings):
    """Multiply a run's raw durations by this to normalize them: the
    reference's mean speed over the run relative to its nominal speed.

    One factor per run, not per request: the reference's speed flips
    between two levels within seconds, so a single reading is a poor guide
    to the request next to it, while the mean over a run follows the mix
    the run's requests saw.  The mean of speeds, not the median of times,
    because with two levels the median jumps from one to the other."""
    return REF_NOMINAL_S * statistics.mean(1 / r for r in readings)


def tail(values, beyond=TAIL_BEYOND):
    """Value at the highest percentile that still has `beyond` samples
    above it.  Returns (value, percentile, sample count); with too few
    samples for any such percentile it returns the maximum at 100."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n
