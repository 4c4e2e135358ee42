"""The trigonometric expansion of the normalized shell error and its
diagonal structure.

The main series runs over r2(m)/m with the paired sine factors; the exact
sawtooth correction comes from counting.  Zero relations among square roots
are decided exactly through square-free core grouping, and the diagonal sums
enumerate only zero-relation tuples via per-core generating polynomials.
"""

from __future__ import annotations

import math
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
    "r2_squared_partial_sum_check",
]

SERIES_PREFACTOR = 2.0 ** 1.5 / math.pi


def series_with_gap(x: float, gap: float, r2: R2Table, cutoff: int) -> float:
    """sum over 1 <= m <= cutoff of (2^{3/2}/pi) r2(m)/m sin(pi sqrt(m) gap)
    sin(pi sqrt(m) (2x + gap)), the sum of the terms correctly rounded (the
    fsum of their exact partial sums, arith.exact_parts)."""
    if cutoff > r2.limit:
        raise ValueError(f"cutoff {cutoff} exceeds the r2 table limit {r2.limit}")
    n = r2.nonzero_count_upto(cutoff)
    m = r2.nonzero_m[:n].astype(np.float64)
    amp = r2.nonzero_values[:n] / m
    s = np.sqrt(m, out=m)
    terms = amp * np.sin(math.pi * s * gap) * np.sin(math.pi * s * (2.0 * x + gap))
    return SERIES_PREFACTOR * math.fsum(exact_parts(terms))


def expansion_rhs(sample: ShellSample, X: float, r2: R2Table) -> float:
    """Main series at cutoff floor(X^2) minus the exact sawtooth correction
    of the shell, 2 xi / x^2 with xi = sample.sawtooth.

    The sample is shell_sample(..., sawtooth=True): its gap and sawtooth are
    those of the snapped outer radius the exact shell count realises, so the
    residual against sample.normalized probes only the expansion remainder.
    """
    if not X < sample.x < 2 * X:
        raise ValueError(f"x = {sample.x} outside the dyadic window ({X}, {2 * X})")
    if sample.sawtooth is None:
        raise ValueError("sample has no sawtooth: take it with shell_sample(..., sawtooth=True)")
    series = series_with_gap(sample.x, sample.omega_x, r2, int(X * X))
    return series - 2.0 / (sample.x * sample.x) * sample.sawtooth


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
        dec = squarefree_core(m)
        groups[dec.core] = groups.get(dec.core, 0) + e * dec.k
    return all(v == 0 for v in groups.values())


def r2_squared_partial_sum_check(y: int, r2: R2Table) -> float:
    """sum_{n <= y} r2(n)^2 / (4 y log y), a trend diagnostic toward 1."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if y > r2.limit:
        raise ValueError(f"y = {y} exceeds the r2 table limit {r2.limit}")
    # int64: a dot of the uint16 counts would wrap modulo 2^16
    v = r2.nonzero_values[:r2.nonzero_count_upto(y)].astype(np.int64)
    total = int(np.dot(v, v))
    return total / (4.0 * y * math.log(y))


# ---------------------------------------------------------------------------
# Diagonal sums over exact zero relations
# ---------------------------------------------------------------------------

def _cores_upto(Y: int, r2: R2Table):
    """Group m <= Y by square-free core: core -> (k array, weight rows r2(c k^2)/(c k^2))."""
    cores: dict[int, list[tuple[int, float]]] = {}
    for i in range(r2.nonzero_count_upto(Y)):
        m = int(r2.nonzero_m[i])
        dec = squarefree_core(m)
        cores.setdefault(dec.core, []).append((dec.k, float(r2.nonzero_values[i]) / m))
    return cores


def diagonal_sum(omega: GapWidth, X: float, j: int, Y: int, r2: R2Table,
                 samples: int = 1024) -> float:
    """(-1)^{j/2} (sqrt(2)/pi)^j times the sign-weighted grid average of the
    zero-relation tuple sums at truncation Y, for j in {2, 4}.

    Per core c the signed single-position weights form the Laurent polynomial
    g_c(z) = sum_k w_{c,k}(x) (z^k - z^{-k}); a j-tuple satisfies the relation
    exactly when every core's exponent sum is zero, so the total is assembled
    from constant terms of powers of the g_c via the multinomial split
    j = sum_c j_c (odd j_c drop out by antisymmetry).
    """
    if j not in (2, 4):
        raise ValueError("diagonal sums implemented for j in {2, 4}")
    if Y > r2.limit:
        raise ValueError(f"Y = {Y} exceeds the r2 table limit {r2.limit}")
    xs = midpoint_grid(X, samples)
    om = np.asarray(omega.value(xs), dtype=np.float64)
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
        if j == 4:
            # on |z| = 1, g_c = 2i sum_k w_k sin(k theta) and g_c^4 has degree
            # 4 kmax, so its mean over 4 kmax + 1 equispaced theta is [z^0] g_c^4
            n = 4 * int(ks.max()) + 1
            theta = 2.0 * math.pi / n * np.arange(n)
            p4 += 16.0 * np.mean((np.sin(np.multiply.outer(theta, ks)) @ wk) ** 4, axis=0)
    if j == 2:
        tuple_sum = p2
    else:
        # multinomial split: one core takes all four, or two cores take 2 + 2
        tuple_sum = p4 + 3.0 * (p2 * p2 - s22)
    sign = -1.0 if (j // 2) % 2 else 1.0
    return sign * (math.sqrt(2.0) / math.pi) ** j * float(np.mean(tuple_sum))
