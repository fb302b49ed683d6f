"""Host speed gauge: a fixed stdlib loop timed next to the measured work.

The benchmark runs on shared virtual machines whose CPU speed drifts by
tens of percent, on each vCPU on its own, for a tenth of a second to
minutes at a time (other tenants on the same cores, frequency changes).  That drift moves every timing of a run
together, so it swamps the differences a benchmark has to resolve.

`gauge` is a fixed piece of pure-Python work of the kinds korbits does
(small and large ints, `Fraction`s, tuple keys in dicts, list building,
sorting, calls), independent of korbits, so a change to the package can
never change it.  Samples of it are taken between the measured items;
dividing an item's time by the gauge time nearby gives its cost in
"gauge units", which the drift leaves alone.  Reported times are these
units times GAUGE_S: seconds at a fixed nominal host speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Nominal duration of one gauge call: the unit that normalised times are
# expressed in.  About the gauge's time on a 2.1 GHz Xeon vCPU running
# CPython 3.11, so normalised seconds read close to wall seconds there.
GAUGE_S = 0.001

WINDOW_S = 0.25      # gauge samples this close to an item set its speed
SETUP_REPS = 5       # gauge calls at each end of a set-up


def gauge():
    table = {}
    acc = Fraction(0)
    big = 1
    for i in range(1, 300):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i % 17 + 1, i % 19 + 1)
        big = big * 3 + i
    rows = [[(i * j + big) % 5 for j in range(10)] for i in range(10)]
    for row in rows:
        row.sort()
    return len(table), acc.denominator, rows[0][0]


def sample(reps):
    """Time `reps` gauge calls; returns [(mid time, duration)].  The cyclic
    garbage collector is off meanwhile, so the size of the measured
    program's heap cannot change the gauge."""
    clock = time.perf_counter
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = clock()
            gauge()
            t1 = clock()
            out.append(((t0 + t1) / 2, t1 - t0))
    finally:
        if enabled:
            gc.enable()
    return out


def warm():
    """First calls pay for lazy interpreter set-up; keep them out."""
    sample(2)


def local_gauge(samples, start, end, window=WINDOW_S):
    """Median gauge duration over the samples taken within `window` of the
    interval [start, end].  `samples` is sorted by time and holds one taken
    less than `window` before `start`."""
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - window)
    hi = bisect.bisect_right(times, end + window)
    return statistics.median(d for _, d in samples[lo:hi])


def normalise(seconds, gauge_s):
    """Seconds measured while the gauge took `gauge_s`, at nominal speed."""
    return seconds * GAUGE_S / gauge_s
