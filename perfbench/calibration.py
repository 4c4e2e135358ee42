"""A fixed CPU kernel whose time tracks the machine's current speed.

The speed of a small shared machine drifts by tens of per cent over tens of
seconds (neighbouring load).  The worker times this kernel in its own
process right after set-up and after each stage of the run, and the driver
scales each stage by REFERENCE_S over the mean of the calibrations around
it: "calibrated seconds", which agree in scale with measured seconds on this
machine's typical state and move much less with the drift.  On the tuning
machine this cut the seed-to-seed spread of run_s on the single-threaded
workloads from about 25 % to 4-10 %.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's median time on the 2-vCPU machine the benchmark was tuned on.
REFERENCE_S = 0.025

_LOOP = 50_000
_FRACTIONS = 2_000
_ARRAY = 1 << 16  # 512 KB of float64, updated in place: no RSS of its own
_PASSES = 80
_TRIES = 5


def _kernel(arr: np.ndarray) -> None:
    # One part each of what the workloads run: the interpreter on small
    # ints, Fraction and dict work (the exact algebra) and NumPy passes.
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    sums = {}
    for i in range(_FRACTIONS):
        key = (i % 97, i % 89)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 11, 16)
    for _ in range(_PASSES):
        np.multiply(arr, 0.5, out=arr)
        np.sqrt(arr, out=arr)
        np.add(arr, 1.0, out=arr)


def calibrate() -> tuple[float, float]:
    """(median wall time of the kernel over five tries, CPU time spent)."""
    cpu = time.process_time()
    arr = np.arange(_ARRAY, dtype=np.float64)
    times = []
    for _ in range(_TRIES):
        start = time.perf_counter()
        _kernel(arr)
        times.append(time.perf_counter() - start)
    return statistics.median(times), time.process_time() - cpu
