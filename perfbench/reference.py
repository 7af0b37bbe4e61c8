"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared host the speed of the CPU drifts by tens of percent over seconds
to minutes, for wall and CPU time alike.  The benchmark runs this loop between
operations (outside the timed region) and reports every timing at a reference
speed: a time measured while the loop takes ``t`` seconds is scaled by
``NOMINAL_S / t``.  A drift that slows the program and the loop alike cancels;
a change to the program does not touch the loop, so it shows in full.

The loop does the kind of work symfano does (``Fraction`` arithmetic, small
tuples, dictionary updates) and imports nothing of the package.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# wall (and CPU) seconds of one loop on the quiet 2-core machine the benchmark
# was written on, so that scaled timings read as milliseconds there
NOMINAL_S = 0.005
# references on each side of an operation that its scale is the median of
HALF_WINDOW = 2


def _loop():
    acc = Fraction(0)
    table: dict = {}
    rows = []
    for i in range(1, 760):
        f = Fraction(i, 2 * i + 7)
        acc = (acc + f * f - Fraction(1, i)) if i % 40 else Fraction(0)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + acc.denominator % 101
        rows.append(tuple(sorted((i % 5, i % 3, key[0]))))
    return acc, len(set(rows)), sum(table.values())


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one loop, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def scale(refs: list[float], pos: int) -> float:
    """``NOMINAL_S`` over the median of the references around index ``pos``."""
    window = refs[max(0, pos - HALF_WINDOW + 1):pos + HALF_WINDOW + 1]
    return NOMINAL_S / statistics.median(window)
