"""Exact lattice counting in Cygan-Koranyi balls and shells.

A point (a, b, c) lies in the dilated unit ball of radius x exactly when
(a^2 + b^2)^2 + c^2 <= x^4.  Radii are rationals k/Q so every comparison
clears denominators and stays in integer arithmetic; the fast counter
reduces the third coordinate to an exact floor square root per slice
m = a^2 + b^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import R2Table, exact_parts

__all__ = [
    "BALL_VOLUME",
    "RadiusPoint",
    "ShellSample",
    "check_float_exactness",
    "count_ball_brute",
    "count_ball_fast",
    "sawtooth_ball_sum",
    "shell_sample",
    "snap_outer_radius",
]

# Euclidean volume of the unit Cygan-Koranyi ball: 4*pi*int_0^1 r*sqrt(1-r^4) dr.
BALL_VOLUME = math.pi * math.pi / 2.0

# x + omega(x) is re-snapped on a denominator refined by this power of two.
OUTER_REFINE_SHIFT = 6

# k*k must stay <= 2^52 so the float-assisted floor sqrt is provably exact
# outside the fixup band.
_MAX_K = 1 << 26

_BRUTE_RADIUS_CAP = 60.0

# Nonzero slices per kernel pass, 512 KB per float64 buffer (_buffers).  The
# pass does not stay in a 2 MiB L2: a count pass touches about 1.6 MB of
# buffers plus 384 KB of m and r2 slices, a sawtooth pass all six buffers
# (2.6 MB).  Chunks of 2^15 and 2^17 slices measured no faster.
_KERNEL_CHUNK = 1 << 16

# Half-width of the near-integer band that gets re-checked in exact integer
# arithmetic.  With k^2 <= 2^52 and m Q^2 <= k^2, the float64 operands k^2,
# m Q^2 and k^2 -+ m Q^2 are exact integers; only the product, the sqrt and
# the 1/Q^2 scaling round, by a few ulp relative to sqrt(x^4 - m^2) <= x^2.
_BAND = 1e-6

_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class RadiusPoint:
    """A radius k/Q held exactly as a pair of integers."""

    k: int
    Q: int

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError("denominator must be >= 1")
        if self.k < 1:
            raise ValueError("radius must be positive")
        if self.k > _MAX_K:
            raise OverflowError(
                f"radius numerator {self.k} exceeds the exactness cap {_MAX_K}")

    @property
    def value(self) -> float:
        return self.k / self.Q

    @property
    def floor_sq(self) -> int:
        """floor(x^2), exactly."""
        return (self.k * self.k) // (self.Q * self.Q)

    def refined(self) -> "RadiusPoint":
        """The same radius on the denominator Q * 2**OUTER_REFINE_SHIFT."""
        return RadiusPoint(k=self.k << OUTER_REFINE_SHIFT, Q=self.Q << OUTER_REFINE_SHIFT)


def count_ball_brute(x: RadiusPoint) -> int:
    """Count lattice points by direct enumeration over (a, b) with an exact
    integer comparison for the third coordinate.

    Independent of the r2 sieve; O(x^2) exact isqrt calls, one per pair
    a, b >= 0 with a^2 + b^2 <= x^2, capped at x <= 60.
    """
    if x.value > _BRUTE_RADIUS_CAP:
        raise ValueError(f"brute-force counting is capped at x <= {_BRUTE_RADIUS_CAP}")
    k, Q = x.k, x.Q
    k2 = k * k
    k4 = k2 * k2
    Q2 = Q * Q
    Q4 = Q2 * Q2
    total = 0
    amax = math.isqrt(k2) // Q  # the bounds keep a^2 Q^2 <= k^2 and m Q^2 <= k^2: rem, v >= 0
    for a in range(amax + 1):
        rem = k2 - a * a * Q2
        wa = 2 if a > 0 else 1
        bmax = math.isqrt(rem) // Q
        for b in range(bmax + 1):
            m = a * a + b * b
            v = k4 - m * m * Q4
            c_count = 2 * (math.isqrt(v) // Q2) + 1
            total += wa * (2 if b > 0 else 1) * c_count
    return total


def check_float_exactness(x: RadiusPoint) -> None:
    """Raise ValueError unless the float error of the kernel stays inside the
    fixup band at radius x.

    One rounding each in the product, the sqrt, 1/Q^2 and the scaling bounds
    the error of s by 4u x^2 (u = 2^-53).  A floor can only go wrong where
    an integer lies within that error of s, so every such entry falls inside
    the band while 4u x^2 < _BAND; the check keeps a factor 4 in hand,
    which caps x near 23 700.
    """
    if 4.0 * _UNIT_ROUNDOFF * x.k * x.k / (x.Q * x.Q) >= _BAND / 4:
        raise ValueError(f"radius {x.value} is past the count kernel's float64 exactness "
                         f"bound (4u x^2 must stay below {_BAND / 4:g})")


class _Buffers(NamedTuple):
    """One thread's buffers for _ball_pass, _KERNEL_CHUNK entries each."""

    s: np.ndarray     # float64 sqrt(x^4 - m^2)
    w: np.ndarray     # float64 m Q^2, k^2 + m Q^2, then |rint(s) - s|
    near: np.ndarray  # bool band mask
    t: np.ndarray     # int64 floors, then r2-weighted floors
    psi: np.ndarray   # float64 floors, psi, then psi products (sawtooth only)
    q: np.ndarray     # float64 scratch of exact_parts


_local = threading.local()


def _buffers() -> _Buffers:
    """This thread's buffers, made on first use (or when _KERNEL_CHUNK has
    changed).  Threads run the kernels concurrently, so each owns a set; a
    thread runs one chunk pass at a time."""
    bufs = getattr(_local, "bufs", None)
    if bufs is None or len(bufs.s) != _KERNEL_CHUNK:
        n = _KERNEL_CHUNK
        bufs = _local.bufs = _Buffers(s=np.empty(n), w=np.empty(n),
                                      near=np.empty(n, dtype=bool),
                                      t=np.empty(n, dtype=np.int64),
                                      psi=np.empty(n), q=np.empty(n))
    return bufs


def _ball_pass(x: RadiusPoint, r2: R2Table, sawtooth: bool) -> tuple[int, float]:
    """(N(x), the sawtooth sum, or 0.0 without sawtooth) from one pass over
    the nonzero slices 1 <= m <= x^2 in chunks of _KERNEL_CHUNK.

    Per chunk, s ~ sqrt(x^4 - m^2) is the float64 sqrt of
    (k^2 - mQ^2)(k^2 + mQ^2), scaled by 1/Q^2.  Both factors are exact
    float64 integers (k^2 <= 2^52 by the numerator cap, and mQ^2 <= k^2), so
    only the product, the sqrt, 1/Q^2 and the scaling round: at most 4u x^2
    (check_float_exactness).  The floors f of s are re-done as
    isqrt(k^4 - m^2 Q^4) // Q^2 in the band, the entries within _BAND of an
    integer.  The m = 0 slice is 2 floor(x^2) + 1; each chunk adds the int64
    sums 2 sum r2 f + sum r2.  With sawtooth, psi = s - f - 1/2, from integers
    (_psi_exact) in the band, and the products r2 psi go to exact partial sums
    (arith.exact_parts) that one fsum rounds, so neither result depends on
    _KERNEL_CHUNK.  Raises before the first chunk when x is past the float
    exactness bound or the table does not reach floor(x^2).
    """
    check_float_exactness(x)
    mmax = x.floor_sq
    if mmax > r2.limit:
        raise ValueError(f"r2 table limit {r2.limit} < floor(x^2) = {mmax}")
    k2, Q2 = x.k * x.k, x.Q * x.Q
    k4, Q4 = k2 * k2, Q2 * Q2
    fk2, fq2, inv_q2 = float(k2), float(Q2), 1.0 / Q2
    bufs = _buffers()
    total = 2 * mmax + 1  # the m = 0 slice: |c| <= floor(x^2)
    parts = []
    n = r2.nonzero_count_upto(mmax)
    for lo in range(0, n, _KERNEL_CHUNK):
        hi = min(n, lo + _KERNEL_CHUNK)
        w, s, near, t = bufs.w[:hi - lo], bufs.s[:hi - lo], bufs.near[:hi - lo], bufs.t[:hi - lo]
        m, v = r2.nonzero_m[lo:hi], r2.nonzero_values[lo:hi]
        np.multiply(m, fq2, out=w)
        np.subtract(fk2, w, out=s)
        w += fk2
        s *= w
        np.sqrt(s, out=s)
        s *= inv_q2
        np.rint(s, out=w)  # w is spent; reuse it for |rint(s) - s|
        w -= s
        np.less(np.abs(w, out=w), _BAND, out=near)
        idx = np.flatnonzero(near)
        band = [(i, k4 - mi * mi * Q4) for i, mi in zip(idx.tolist(), m[idx].tolist())]
        if sawtooth:  # psi from float floors: one float-to-int cast per chunk, not two
            psi = np.floor(s, out=bufs.psi[:hi - lo])
            np.copyto(t, psi, casting="unsafe")
            np.subtract(s, psi, out=psi)
            psi -= 0.5
            for i, d in band:
                psi[i] = _psi_exact(d, Q2)
            psi *= v
            parts.extend(exact_parts(psi, bufs.q[:hi - lo]))
        else:
            np.copyto(t, s, casting="unsafe")  # s >= 0, so truncation is the floor
        for i, d in band:
            t[i] = math.isqrt(d) // Q2
        t *= v
        total += 2 * int(t.sum()) + int(v.sum(dtype=np.int64))
    return total, math.fsum(parts)


def count_ball_fast(x: RadiusPoint, r2: R2Table) -> int:
    """Exact N(x) = sum_{m <= x^2} r2(m) * (2*floor(sqrt(x^4 - m^2)) + 1) (_ball_pass);
    agrees with count_ball_brute everywhere both run."""
    return _ball_pass(x, r2, sawtooth=False)[0]


def sawtooth_ball_sum(x: RadiusPoint, r2: R2Table) -> tuple[int, float]:
    """(N(x), sum_{1 <= m <= x^2} r2(m) * psi(sqrt(x^4 - m^2))) with psi(t) = t - [t] - 1/2.

    One pass: N(x) is count_ball_fast's, from the floors that give psi.  psi
    evaluates to -1/2 at exact integer arguments (the literal formula).  The
    sawtooth excludes m = 0: the series convention starts at m = 1.  The sum
    is correctly rounded, with psi from integers in the fixup band (_ball_pass).
    """
    return _ball_pass(x, r2, sawtooth=True)


def _psi_exact(v: int, q2: int) -> float:
    """psi(sqrt(v)/q2) for big ints v, q2: tb // q2, tb = isqrt(v), is the exact
    integer part, and three Newton steps from tb give the fraction.  Its
    domain is the fixup band, v = 0 or sqrt(v)/q2 within _BAND of a positive
    integer; there it is within 2^-50 (1 + sqrt(v)/q2) for every q2, and off
    it need not be (v = 3, q2 = 1 reads 1.75 for sqrt 3)."""
    tb = math.isqrt(v)
    if tb * tb == v and tb % q2 == 0:
        return -0.5
    s1 = tb + (v - tb * tb) / (2.0 * tb)
    s1 = 0.5 * (s1 + v / s1)
    s1 = 0.5 * (s1 + v / s1)
    frac = ((tb % q2) + (s1 - tb)) / q2
    return frac - 0.5


def snap_outer_radius(x: RadiusPoint, gap: float) -> tuple[RadiusPoint, float]:
    """(outer, realised gap): x + gap rounded to the nearest multiple of
    1/(Q * 2**OUTER_REFINE_SHIFT), and outer - x, the gap that radius realises.

    A gap below half that step realises 0: outer is x and the shell is empty
    (a gap width near a root of its construction does this).  Negative gaps
    are a domain error.
    """
    if not gap >= 0:
        raise ValueError(f"gap width must be nonnegative, not {gap}")
    inner = x.refined()
    ko = max(inner.k, round((x.value + gap) * inner.Q))
    return RadiusPoint(k=ko, Q=inner.Q), (ko - inner.k) / inner.Q


@dataclass(frozen=True)
class ShellSample:
    """One exact shell measurement at inner radius x and snapped gap omega_x.

    Fast-mode sampling rows reuse this record with the counts set to None.
    sawtooth, the shell's sawtooth correction, is set only by sawtooth=True.
    """

    x: float
    omega_x: float
    n_inner: int | None
    n_outer: int | None
    shell_count: int | None
    error: float
    normalized: float
    sawtooth: float | None = None


def _shell_volume(x: float, gap: float) -> float:
    return BALL_VOLUME * sum(math.comb(4, j) * x ** (4 - j) * gap ** j
                             for j in (1, 2, 3, 4))


def shell_sample(x: RadiusPoint, gap: float, r2: R2Table, sawtooth: bool = False) -> ShellSample:
    """Exact shell count and error term at inner radius x and gap width
    gap = omega(x).

    The outer radius x + gap is snapped onto the refined grid; the same
    snapped gap is used in the volume subtraction, so the reported error is
    an exact algebraic identity in the realised radii.  Each ball takes one
    pass: sawtooth_ball_sum with sawtooth=True, else count_ball_fast.  A gap
    that realises 0 takes one pass: the outer ball is the inner one.
    """
    if not gap > 0:
        raise ValueError(f"omega(x) = {gap} must be positive at x = {x.value}")
    outer, snapped_gap = snap_outer_radius(x, gap)
    ball = sawtooth_ball_sum if sawtooth else lambda p, table: (count_ball_fast(p, table), None)
    n_inner, saw_in = ball(x, r2)
    n_outer, saw_out = ball(outer, r2) if snapped_gap else (n_inner, saw_in)
    shell = n_outer - n_inner
    err = shell - _shell_volume(x.value, snapped_gap)
    return ShellSample(
        x=x.value,
        omega_x=snapped_gap,
        n_inner=n_inner,
        n_outer=n_outer,
        shell_count=shell,
        error=err,
        normalized=err / (x.value * x.value),
        sawtooth=saw_out - saw_in if sawtooth else None,
    )
