"""The trigonometric expansion of the normalized shell error and its
diagonal structure.

The main series runs over r2(m)/m with the paired sine factors; the exact
sawtooth correction comes from counting.  Zero relations among square roots
are decided exactly through square-free core grouping, and the diagonal sums
enumerate only zero-relation tuples via per-core generating polynomials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .arith import R2Table, exact_parts, squarefree_core
from .counting import ShellSample
from .gapwidth import GapWidth, midpoint_grid

__all__ = [
    "series_with_gap",
    "expansion_rhs",
    "sum_sqrt_is_zero",
    "diagonal_sum",
]

SERIES_PREFACTOR = 2.0 ** 1.5 / math.pi

# ThreadPoolExecutor's own default ceiling on its worker count
MAX_THREADS = 32


def _thread_count(threads: int | None) -> int:
    """The most threads a call may use: threads itself (an int in
    1..MAX_THREADS), or for None the CPUs this process may run on, capped
    at MAX_THREADS.  Anything else raises ValueError."""
    if threads is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        return min(cpus, MAX_THREADS)
    if isinstance(threads, bool) or not isinstance(threads, int) or not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be None or an int in 1..{MAX_THREADS}, not {threads!r}")
    return threads


# (point, term) pairs that one series_with_gap call's blocks hold at once,
# shared out over its threads.  On the X = 2000, S = 4000 fast stage (2749
# terms a row), 2^15 measured slower and 2^17 no faster.
_SERIES_BLOCK = 1 << 16


def series_with_gap(x, gap, r2: R2Table, cutoff: int, threads: int = 1) -> np.ndarray:
    """sum over 1 <= m <= cutoff of (2^{3/2}/pi) r2(m)/m sin(pi sqrt(m) gap)
    sin(pi sqrt(m) (2x + gap)), the sum of the terms correctly rounded (the
    fsum of their exact partial sums, arith.exact_parts): one value per
    point of x and gap, two 1-D arrays of one length.  Any other pair of
    shapes raises ValueError.

    The columns r2(m)/m and pi sqrt(m) are made once per call.  Every term
    keeps the float operations of the one-point formula in their order, and
    each point's row is rounded on its own, so a batch call equals the
    one-point calls bit for bit.

    threads is the most threads the call may use, as _thread_count reads
    it.  The points are split once into k = min(threads, points) contiguous
    ranges; the calling thread takes the first and k - 1 helpers, started
    and joined once, take the rest.  Each thread walks its range in blocks
    of about _SERIES_BLOCK // k (point, term) pairs through its own two
    buffers and rounds its own rows, so the thread count changes no bit.
    """
    xs, gaps = np.asarray(x, dtype=np.float64), np.asarray(gap, dtype=np.float64)
    if not xs.ndim == gaps.ndim == 1 or xs.size != gaps.size:
        raise ValueError(f"x and gap must be two 1-D arrays of one length, "
                         f"not shapes {xs.shape} and {gaps.shape}")
    if cutoff > r2.limit:
        raise ValueError(f"cutoff {cutoff} exceeds the r2 table limit {r2.limit}")
    threads = _thread_count(threads)
    n = r2.nonzero_count_upto(cutoff)
    m = r2.nonzero_m[:n].astype(np.float64)
    amp = r2.nonzero_values[:n] / m
    root = np.sqrt(m, out=m)
    root *= math.pi
    phases = 2.0 * xs + gaps
    k = max(1, min(threads, gaps.size))
    rows = max(1, _SERIES_BLOCK // k // max(n, 1))
    cuts = [gaps.size * i // k for i in range(k + 1)]
    # made here: a helper's own buffers stayed resident in its malloc arena
    bufs = np.empty((k, 2, min(rows, -(-gaps.size // k)), n))

    def run(i):
        """Thread i's rows cuts[i]:cuts[i + 1], a block at a time in bufs[i]."""
        a, b = bufs[i]
        out = []
        for s in range(cuts[i], cuts[i + 1], rows):
            e = min(s + rows, cuts[i + 1])
            sa = np.multiply(gaps[s:e, None], root, out=a[:e - s])
            np.sin(sa, out=sa)
            sb = np.multiply(phases[s:e, None], root, out=b[:e - s])
            np.sin(sb, out=sb)
            sa *= amp
            sa *= sb
            out += [SERIES_PREFACTOR * math.fsum(row) for row in exact_parts(sa, sb)]
        return out

    with ThreadPoolExecutor(max(1, k - 1)) as pool:  # starts no thread for k = 1
        helpers = [pool.submit(run, i) for i in range(1, k)]
        out = run(0)
        for h in helpers:
            out += h.result()
    return np.array(out)


def expansion_rhs(samples: Sequence[ShellSample], X: float, r2: R2Table,
                  threads: int = 1) -> np.ndarray:
    """Main series at cutoff floor(X^2) minus the exact sawtooth correction
    of the shell, 2 xi / x^2 with xi = sample.sawtooth: one value per sample.

    Each sample is shell_sample(..., sawtooth=True): its gap and sawtooth are
    those of the snapped outer radius the exact shell count realises, so the
    residual against sample.normalized probes only the expansion remainder.
    Every sample's window and sawtooth are checked before any series work;
    then one series_with_gap call on threads takes all of them, which equals
    the one-sample calls bit for bit.
    """
    for s in samples:
        if not X < s.x < 2 * X:
            raise ValueError(f"x = {s.x} outside the dyadic window ({X}, {2 * X})")
        if s.sawtooth is None:
            raise ValueError("sample has no sawtooth: take it with shell_sample(..., sawtooth=True)")
    xs = np.array([s.x for s in samples], dtype=np.float64)
    series = series_with_gap(xs, np.array([s.omega_x for s in samples], dtype=np.float64),
                             r2, int(X * X), threads)
    return series - 2.0 / (xs * xs) * np.array([s.sawtooth for s in samples], dtype=np.float64)


def sum_sqrt_is_zero(signs: Sequence[int], ms: Sequence[int]) -> bool:
    """Exact decision of sum_i e_i sqrt(m_i) = 0.

    Write m_i = core_i * k_i^2; square roots of distinct square-free cores are
    linearly independent over Q, so the relation holds exactly when every
    core's signed k-sum vanishes.
    """
    if len(signs) != len(ms):
        raise ValueError("signs and ms must have equal length")
    groups: dict[int, int] = {}
    for e, m in zip(signs, ms):
        if m < 1:
            raise ValueError("ms must be positive")
        if e not in (-1, 1):
            raise ValueError("signs must be +-1")
        core, k = squarefree_core(m)
        groups[core] = groups.get(core, 0) + e * k
    return all(v == 0 for v in groups.values())


# ---------------------------------------------------------------------------
# Diagonal sums over exact zero relations
# ---------------------------------------------------------------------------

def _cores_upto(Y: int, r2: R2Table):
    """Group m <= Y by square-free core: core -> (k array, weight rows r2(c k^2)/(c k^2))."""
    cores: dict[int, list[tuple[int, float]]] = {}
    n = r2.nonzero_count_upto(Y)
    for m, v in zip(r2.nonzero_m[:n].tolist(), r2.nonzero_values[:n].tolist()):
        core, k = squarefree_core(m)
        cores.setdefault(core, []).append((k, float(v) / m))
    return cores


def diagonal_sum(omega: GapWidth, X: float, Y: int, r2: R2Table,
                 samples: int = 1024) -> tuple[float, float]:
    """(d2, d4): (-1)^{j/2} (sqrt(2)/pi)^j times the sign-weighted grid
    average of the zero-relation j-tuple sums at truncation Y, for j = 2 and
    j = 4, from one pass over the cores.

    Per core c the signed single-position weights form the Laurent polynomial
    g_c(z) = sum_k w_{c,k}(x) (z^k - z^{-k}); a j-tuple satisfies the relation
    exactly when every core's exponent sum is zero, so the total is assembled
    from constant terms of powers of the g_c via the multinomial split
    j = sum_c j_c (odd j_c drop out by antisymmetry).  omega is read with
    GapWidth.on_grid, so a value that is not positive and finite on the grid
    raises ValueError.
    """
    if Y > r2.limit:
        raise ValueError(f"Y = {Y} exceeds the r2 table limit {r2.limit}")
    xs = midpoint_grid(X, samples)
    om = omega.on_grid(xs)
    cores = _cores_upto(Y, r2)

    p2 = np.zeros(samples)   # sum_c [z^0] g_c^2
    p4 = np.zeros(samples)   # sum_c [z^0] g_c^4
    s22 = np.zeros(samples)  # sum_c ([z^0] g_c^2)^2
    for core, rows in cores.items():
        sq = math.sqrt(core)
        ks = np.array([k for k, _ in rows])
        ws = np.array([w for _, w in rows])
        # w_{c,k}(x) for all samples at once: rows index k, columns samples
        sins = np.sin(math.pi * sq * np.multiply.outer(ks.astype(float), om))
        wk = ws[:, None] * sins
        c2 = -2.0 * np.sum(wk * wk, axis=0)
        p2 += c2
        s22 += c2 * c2
        # on |z| = 1, g_c = 2i sum_k w_k sin(k theta) and g_c^4 has degree
        # 4 kmax, so its mean over 4 kmax + 1 equispaced theta is [z^0] g_c^4
        n = 4 * int(ks.max()) + 1
        theta = 2.0 * math.pi / n * np.arange(n)
        p4 += 16.0 * np.mean((np.sin(np.multiply.outer(theta, ks)) @ wk) ** 4, axis=0)
    d2 = -1.0 * (math.sqrt(2.0) / math.pi) ** 2 * float(np.mean(p2))
    # multinomial split: one core takes all four, or two cores take 2 + 2
    d4 = (math.sqrt(2.0) / math.pi) ** 4 * float(np.mean(p4 + 3.0 * (p2 * p2 - s22)))
    return d2, d4
