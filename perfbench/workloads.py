"""Workload definitions shared by the driver (run.py) and the worker.

Plain data only: importing this module does not import cygshell.
"""

from __future__ import annotations

import math

# The seed only moves the SampleGrid phase; seed 0 gives the CLI default 0.5.
# A retry moves by a second irrational step (see run.choose_phase).
_PHASE_STEP = 0.7548776662466927
_RETRY_STEP = 0.41421356237309515


def phase_for_seed(seed: int, attempt: int = 0) -> float:
    return (0.5 + seed * _PHASE_STEP + attempt * _RETRY_STEP) % 1.0


# exact_sample: the variance-law path.  count_ball_fast over ~1.85 M slices
# per count dominates; also covers the 2-thread pool, cmd_sample's second
# serial shell pass and the 16 M-entry r2 table (larger than L3), which drives
# setup and memory.  S = 48 keeps the seed-to-seed spread of the work (the
# sum of x^2 over the grid) near 2 %.
# expansion: the same counting layer at radii <= 400, where a call covers tens
# of thousands of slices and the table fits in L2; sawtooth_ball_sum and
# series_with_gap at cutoff X^2 take most of the time, so per-call costs show.
# S = 250 keeps a repetition near 2 s, so that a run holds about ten
# calibrated repetitions.
# mixture: the Gaussian-mixture pipeline through the library (no CLI, no
# counting): fast-mode samples, KS against mixture_cdf and the normal, the
# mixture density moments, l_j and the exact frequency identity.
WORKLOADS = {
    "exact_sample": {
        "kind": "cli",
        "argv": ["sample", "--mode", "exact", "--omega", "inv_log", "--X", "2000",
                 "--Q", "64", "--threads", "2", "--samples", "48"],
        "X": 2000.0, "Q": 64, "samples": 48, "threads": 2,
        "r2_limit": (2 * 2000 + 2) ** 2,
        "artifacts": ["samples.csv", "distribution.csv", "summary.json"],
        "oracle_rows": 1,
        # Memory-bound on two threads: the one-core calibration kernel does
        # not predict its speed (it doubled the seed-to-seed spread of run_s).
        "calibrated": False,
    },
    "expansion": {
        "kind": "cli",
        "argv": ["expand", "--omega", "inv_log", "--X", "200", "--Q", "64",
                 "--samples", "250"],
        "X": 200.0, "Q": 64, "samples": 250, "threads": 1,
        "r2_limit": (2 * 200 + 2) ** 2,
        "artifacts": ["expansion.csv", "stdout.txt"],
        "oracle_rows": 4,
        "calibrated": True,
    },
    "mixture": {
        "kind": "library",
        "X": 2000.0, "Q": 64, "samples": 4000, "threads": 1,
        "r2_limit": 10_001,  # fast-mode cutoff max(10^4, X) at X = 2000
        "artifacts": [],
        "oracle_rows": 0,
        "calibrated": True,
    },
}

# Almost-periodic product gap (1+z)(2+z) with lambda = (1, sqrt 2), A = 2.
MIXTURE_GAP = {"polys": ((1, 1), (2, 1)), "lambdas": (1.0, math.sqrt(2.0)), "A": 2}
MIXTURE_QUAD_POINTS = 64
MIXTURE_MOMENTS = (0, 2, 4)
MIXTURE_LJ = (2, 4, 6)

# The acceptance criterion-5 product-spec family: (pa, pb or None, j).
IDENTITY_POLYS = ([1], [1, 1], [1, 2, 1], [2, 1], [1, 0, 1], [1, 1, 0, 1], [1, 1j])
IDENTITY_FAMILY = [(a, b, j)
                   for a in range(len(IDENTITY_POLYS))
                   for b in [None] + list(range(5))
                   for j in (2, 4, 6)]
