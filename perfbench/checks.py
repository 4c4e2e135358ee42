"""Independent oracles for the benchmark's correctness gate.

Nothing here imports cygshell.  The r2 counts come from an octant
enumeration of a^2 + b^2, the ball counts from a pure-integer floor square
root per slice, and the fast-mode series from a blocked NumPy sum with its
own gap-width formula.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np

# Fast-mode values are compared within this absolute tolerance.  The
# normalized values are O(1) (|v| < 8 at X = 2000); this oracle's blocked
# pairwise sum and the program's per-sample fsum differ by at most 6e-11, so
# a reordered summation passes while a wrong term does not.
FAST_ABS_TOL = 1e-8
# KS against the normal, recomputed here from the program's own samples.
KS_RECOMPUTE_TOL = 1e-12
# Shipped floats (KS values, density moments): relative tolerance, so that a
# reordered summation still passes while a changed quadrature does not.
REFERENCE_REL_TOL = 1e-9

BALL_VOLUME = math.pi * math.pi / 2.0
OUTER_REFINE = 64  # outer radii are re-snapped on the denominator Q * 64
SERIES_PREFACTOR = 2.0 ** 1.5 / math.pi


def r2_counts(limit: int) -> np.ndarray:
    """r2(m) for 0 <= m <= limit, by enumerating 0 <= a <= b."""
    out = np.zeros(limit + 1, dtype=np.int32)
    for a in range(isqrt(limit // 2) + 1):
        b = np.arange(a, isqrt(limit - a * a) + 1, dtype=np.int64)
        if a == 0:
            w = np.full(b.shape, 4, dtype=np.int32)  # (0, +-b), (+-b, 0)
            w[0] = 1                                  # the origin
        else:
            w = np.full(b.shape, 8, dtype=np.int32)  # (+-a, +-b) and swapped
            w[0] = 4                                  # a == b: (+-a, +-a)
        np.add.at(out, a * a + b * b, w)
    return out


def ball_counts(ks: list, Q: int, r2: np.ndarray) -> list:
    """N(k/Q) = sum_{m <= (k/Q)^2} r2(m) (2 isqrt(k^4 - m^2 Q^4) // Q^2 + 1)
    for each k, in one pass over the shared slices, with no floats."""
    Q2 = Q * Q
    Q4 = Q2 * Q2
    caps = [k * k // Q2 for k in ks]
    k4s = [k ** 4 for k in ks]
    ms = np.flatnonzero(r2[:max(caps) + 1])
    totals = [0] * len(ks)
    for m, r in zip(ms.tolist(), r2[ms].tolist()):
        mq = m * m * Q4
        for i, k4 in enumerate(k4s):
            if m <= caps[i]:
                totals[i] += r * (2 * (isqrt(k4 - mq) // Q2) + 1)
    return totals


def snapped_outer(k: int, Q: int) -> int:
    """Numerator of x + 1/log x on the denominator Q * 64 (inv_log gap)."""
    x = k / Q
    return round((x + 1.0 / math.log(x)) * Q * OUTER_REFINE)


def shell_volume(x: float, gap: float) -> float:
    return BALL_VOLUME * sum(math.comb(4, j) * x ** (4 - j) * gap ** j for j in (1, 2, 3, 4))


def product_gap(x: np.ndarray, gap: dict) -> np.ndarray:
    """omega(x) = prod_l |p_l(e^{2 pi i lambda_l L^A})|^2 / L^A, L = log x."""
    polys, lambdas, A = gap["polys"], gap["lambdas"], gap["A"]
    L = np.log(x)
    u = L ** A
    out = np.ones_like(x)
    for poly, lam in zip(polys, lambdas):
        z = np.exp(2j * math.pi * lam * u)
        p = sum(c * z ** n for n, c in enumerate(poly))
        out = out * np.abs(p) ** 2
    return out / u


def fast_series(xs: np.ndarray, gaps: np.ndarray, cutoff: int) -> np.ndarray:
    """(2^{3/2}/pi) sum_{1 <= m <= cutoff} r2(m)/m sin(pi sqrt(m) g) sin(pi sqrt(m) (2x + g))."""
    r2 = r2_counts(cutoff)
    m = np.flatnonzero(r2[1:]) + 1
    amp = r2[m] / m
    s = np.sqrt(m.astype(np.float64))
    out = np.empty(len(xs))
    for lo in range(0, len(xs), 256):
        x = xs[lo:lo + 256, None]
        g = gaps[lo:lo + 256, None]
        terms = amp * np.sin(math.pi * s * g) * np.sin(math.pi * s * (2.0 * x + g))
        out[lo:lo + 256] = SERIES_PREFACTOR * terms.sum(axis=1)
    return out


def ks_normal(values) -> float:
    """Sup distance between the ECDF of values / rms(values) and Phi."""
    arr = np.asarray(values, dtype=np.float64)
    z = np.sort(arr / math.sqrt(float(np.mean(arr * arr))))
    n = len(z)
    ref = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    i = np.arange(n)
    return float(np.maximum(np.abs(ref - i / n), np.abs(ref - (i + 1) / n)).max())


def close(value: float, expected: float, rel: float = REFERENCE_REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))
