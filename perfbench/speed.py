"""The speed of the CPU the benchmark runs on, measured next to each job.

On a shared host the same pure-Python work can take 1.5 times longer for
minutes at a time, because of what other tenants run on the same cores.
No statistic inside one run removes a slowdown that lasts the whole run. So
the benchmark times a fixed piece of work, `calibrate()`, before a job
whenever GAP_S of job time has passed since the last calibration, and in
every set-up sample, and scales each measured time to a host on which that
work takes REFERENCE_S:

    reference time = measured time * REFERENCE_S / calibration time nearby

A program that does half the work still reads half the time; a host that
runs everything 1.5 times slower no longer reads 1.5 times slower. The work
is pure Python, like the package: rational elimination, as in matroid rank,
and integer row operations with tuple keys in a dict, as in the torus
count-vector passes and the SNF kernel. It uses only the standard library,
so no change to the package changes it, and it runs with the garbage
collector off, so the size of the package's heap does not change it either.
A slow period slows it a little more than it slows most jobs, so reference
times still read a few percent high while the host is fast.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from fractions import Fraction
from time import perf_counter

# Median calibrate() time on a 2-vCPU Intel Xeon virtual machine under
# Python 3.11.7; it sets the scale of every reported time, not its spread.
REFERENCE_S = 0.008

WINDOW = 5      # calibrations, centred on a job's own, whose median scales it
GAP_S = 0.05    # job time between calibrations, so fast jobs do not pay one each

_RATIONAL_ROWS = tuple(tuple(Fraction((7 * i + 3 * j) % 9 - 4, 1 + (i + j) % 3)
                             for j in range(3)) for i in range(9))


def _work():
    ranks = {}
    for subset in itertools.combinations(range(9), 3):
        rows = [list(_RATIONAL_ROWS[i]) for i in subset]
        rank = 0
        for col in range(3):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = 1 / rows[rank][col]
            for r in range(rank + 1, len(rows)):
                if rows[r][col] != 0:
                    f = rows[r][col] * inv
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        ranks[subset] = rank
    counts = {}
    for vector in itertools.product(range(6), repeat=4):
        key = tuple(sorted(vector))
        counts[key] = counts.get(key, 0) + sum(v * (i + 1) for i, v in enumerate(vector)) % 7
    matrix = [[(3 * i + 5 * j) % 11 - 5 for j in range(6)] for i in range(6)]
    for _ in range(20):
        for i in range(1, 6):
            q = matrix[i][0] // (matrix[0][0] or 1)
            matrix[i] = [a - q * b for a, b in zip(matrix[i], matrix[0])]
        matrix.append(matrix.pop(0))
    return len(ranks) + len(counts) + matrix[0][0]


def calibrate():
    """Seconds the fixed work takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(times, slots, calibrations):
    """Each time in reference seconds. times[i] was measured after
    calibrations[slots[i]], and is scaled by the median of the WINDOW
    calibrations centred on that one."""
    half = WINDOW // 2
    return [t * REFERENCE_S / statistics.median(calibrations[max(0, k - half):k + half + 1])
            for t, k in zip(times, slots)]
