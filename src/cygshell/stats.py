"""Sampling the normalized shell error over a dyadic window and comparing its
empirical distribution against the Gaussian / Gaussian-mixture predictions.

Sampling is a deterministic midpoint-style grid (no RNG); "seeds" are grid
phase offsets.  Snapped radii are kept on the finest denominator class (odd
numerators) so that no sample sits on a low-denominator rational, where the
trigonometric expansion picks up phase-locked square classes that Lebesgue
sampling almost surely never sees.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .arith import R2Table
from .counting import RadiusPoint, ShellSample, shell_sample
from .gapwidth import GapWidth, midpoint_grid
from .spectra import DensitySpec, _mixture_sum, mixture_components
from .voronoi import _thread_count, series_with_gap

__all__ = [
    "SampleGrid",
    "EmpiricalDistribution",
    "fast_cutoff",
    "sample_shells",
    "sample_errors",
    "variance_sigma2",
    "m_j",
    "ks_distance",
    "normal_cdf",
    "mixture_cdf",
    "write_csv",
    "write_samples_csv",
    "write_distribution_csv",
    "dump_json",
]

FAST_CUTOFF_FLOOR = 10_000


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SampleGrid:
    """S deterministic radii equidistributed over (X, 2X), snapped to the
    1/Q lattice.

    Positions follow the golden-ratio Kronecker sequence (sorted), and the
    snapped numerators are forced odd.  Equispaced snapped grids can freeze
    every sample into one or two numerator residue classes mod Q; the
    square-index frequencies of the error term then lock phase across the
    whole sample and bias every uncentred statistic (measured at X = 2000,
    S = 1000: the frozen-grid mean of the normalized error is about +2 and
    the uncentred variance doubles).  The Kronecker placement covers all odd
    residues uniformly, so those phase-locked classes cancel the way they do
    under Lebesgue sampling.  `phase` rotates the sequence (the experiment
    "seed"); growing S extends the same sequence, so estimates are stable
    under refinement.

    Numerators stay odd and inside (XQ, 2XQ): a colliding numerator moves up
    to the next odd one, and a top point pushed past the window moves down to
    the greatest odd numerator below 2XQ, moving its neighbours down likewise.
    """

    X: float
    S: int
    Q: int = 64
    phase: float = 0.5
    points: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.S < 10:
            raise ValueError("need at least 10 samples")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")
        if not 0.0 <= self.phase < 1.0:
            raise ValueError("phase must lie in [0, 1)")
        if self.S > self.X * self.Q / 4:
            raise ValueError("grid denser than the snapping lattice allows")
        lo = (math.floor(self.X * self.Q) + 1) | 1    # least odd numerator above XQ
        hi = (math.ceil(2 * self.X * self.Q) - 2) | 1  # greatest odd numerator below 2XQ
        RadiusPoint(k=hi, Q=self.Q)  # the exactness cap, checked before any point is built
        ks = []
        for i in range(self.S):
            u = ((i + 1) * _GOLDEN + self.phase) % 1.0
            ks.append(max(lo, round(self.X * (1.0 + u) * self.Q) | 1))
        ks.sort()
        for i in range(1, self.S):
            ks[i] = max(ks[i], ks[i - 1] + 2)
        ks[-1] = min(ks[-1], hi)
        for i in range(self.S - 2, -1, -1):
            ks[i] = min(ks[i], ks[i + 1] - 2)
        object.__setattr__(self, "points", tuple(RadiusPoint(k=k, Q=self.Q) for k in ks))

    @property
    def xs(self) -> np.ndarray:
        return np.array([p.value for p in self.points])


def fast_cutoff(X: float) -> int:
    """The main series cutoff of fast-mode samples on the window (X, 2X):
    max(10^4, floor(X)), and so the least r2 table limit they need."""
    return max(FAST_CUTOFF_FLOOR, int(X))


def sample_shells(omega: GapWidth, grid: SampleGrid, r2: R2Table, mode: str,
                  threads: int | None, sawtooth: bool = False) -> list[ShellSample]:
    """One ShellSample per grid point, in grid order.

    omega is taken for the whole grid with one GapWidth.on_grid call, so a
    gap width that is not positive and finite fails before any row.
    threads is the most threads the call may use, in both modes, as
    voronoi._thread_count reads it.  No call starts more threads than there
    are points, and every thread is joined before it returns.  Each row
    depends only on its own point, so the thread count cannot change the
    output.

    exact: two exact ball counts per point, and the shell's sawtooth when
    sawtooth is set.  On more than one thread the points go to the pool
    largest first, so the pool's idle tail is one small shell.
    fast: the truncated main series at cutoff fast_cutoff(X), no sawtooth
    term; opt-in bias documented by the exact-vs-fast tests.  Fast rows
    carry the unsnapped omega(x) and no counts (n_inner, n_outer,
    shell_count and sawtooth are None).  One series call takes the whole
    grid and splits its points once over the threads.
    """
    workers = min(_thread_count(threads), len(grid.points))
    xs = grid.xs
    gaps = omega.on_grid(xs)
    if mode == "fast":
        vs = series_with_gap(xs, gaps, r2, fast_cutoff(grid.X), workers).tolist()
        return [ShellSample(x=x, omega_x=gap, n_inner=None, n_outer=None,
                            shell_count=None, error=v * x * x, normalized=v)
                for x, gap, v in zip(xs.tolist(), gaps.tolist(), vs)]
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    jobs = list(zip(grid.points, gaps.tolist()))
    if workers > 1:
        # grid points ascend in k, so reversed is largest first
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(lambda job: shell_sample(*job, r2, sawtooth), jobs[::-1]))
        return rows[::-1]
    return [shell_sample(p, gap, r2, sawtooth) for p, gap in jobs]


def sample_errors(omega: GapWidth, grid: SampleGrid, r2: R2Table,
                  mode: str = "exact", threads: int | None = None) -> np.ndarray:
    """Normalized shell errors at every grid point: the `normalized` column
    of sample_shells."""
    return np.array([s.normalized for s in sample_shells(omega, grid, r2, mode, threads)])


def variance_sigma2(samples: Sequence[float]) -> float:
    """Uncentered variance: the plain mean of squares (no mean subtraction)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty sample vector")
    return float(np.mean(arr * arr))


def m_j(omega: GapWidth, X: float, S: int, j: int) -> float:
    """Grid average of (omega(x) log omega(x))^j over (X, 2X).

    Requires omega < 1 on the grid, and on_grid's rule, so log omega < 0.
    """
    xs = midpoint_grid(X, S)
    w = omega.on_grid(xs)
    if np.any(w >= 1):
        raise ValueError(f"omega(x) outside (0, 1) at x = {xs[w >= 1][0]}")
    return float(np.mean((w * np.log(w)) ** j))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Self-normalized empirical distribution of the sampled errors."""

    sigma: float
    normalized: np.ndarray        # sorted samples / sigma
    moments: dict

    @classmethod
    def from_samples(cls, raw: Sequence[float], j_max: int = 8) -> "EmpiricalDistribution":
        arr = np.asarray(raw, dtype=np.float64)
        sigma = math.sqrt(variance_sigma2(arr))
        normalized = np.sort(arr / sigma)
        moments = {j: float(np.mean(normalized ** j)) for j in range(1, j_max + 1)}
        return cls(sigma=sigma, normalized=normalized, moments=moments)


def normal_cdf(alpha):
    """Standard normal CDF via math.erf, elementwise for an array (a float
    for a scalar)."""
    if np.ndim(alpha):
        return np.array([normal_cdf(a) for a in np.asarray(alpha, dtype=np.float64).tolist()])
    return 0.5 * (1.0 + math.erf(alpha / math.sqrt(2.0)))


_KS_STRIDE = 64     # the first cdf call takes every 64th sorted point and the last
_KS_PARTS = 8       # each later call cuts every live run into about 8 parts
_KS_MARGIN = 1e-12  # a run is skipped only when its bound is this far below the max


def ks_distance(dist: EmpiricalDistribution,
                cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the ECDF and a reference CDF at the sample points:
    the max over sorted points i of |F_i - i/n| and |F_i - (i+1)/n|.

    `cdf` must be elementwise and nondecreasing; it is called several times,
    each on a sorted subset of the samples.  The first call takes every 64th
    point and the last.  Between evaluated points j < k, monotonicity bounds
    every skipped term by max(F_k - (j+1)/n, k/n - F_j).  A run whose bound
    is below the max so far by more than _KS_MARGIN = 1e-12 (far above the
    rounding in the bound and the CDFs' ulp-level non-monotonicity) cannot
    hold the supremum and is never evaluated; each later call cuts every
    remaining run into about 8 parts.  So the result is the max of the same
    per-point terms as over every point, bit for bit, a NaN sample gives
    nan and an empty one raises ValueError."""
    values = dist.normalized
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    idx = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    ref = np.asarray(cdf(values[idx]), dtype=np.float64)
    while True:
        best = np.maximum(np.abs(ref - idx / n), np.abs(ref - (idx + 1) / n)).max()
        j, k = idx[:-1], idx[1:]
        bound = np.maximum(ref[1:] - (j + 1) / n, k / n - ref[:-1])
        live = (k - j > 1) & ~(bound < best - _KS_MARGIN)  # a NaN bound stays live
        if not live.any():
            return float(best)
        j, width = j[live, None], (k - j)[live, None]
        cuts = j + width * np.arange(_KS_PARTS) // _KS_PARTS  # column 0 is j
        new = cuts[:, 1:][np.diff(cuts) > 0]                  # ascending, each once
        at = np.searchsorted(idx, new)
        idx = np.insert(idx, at, new)
        ref = np.insert(ref, at, np.asarray(cdf(values[new]), dtype=np.float64))


# Cephes ndtr.c rational approximations, highest power first.  erf(x) =
# x T(x^2)/U(x^2) on |x| < 1; erfc(x) = e^{-x^2} P(x)/Q(x) on [1, 8), with
# U and Q monic.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_CLAMP = 8.0  # erfc(8)/2 < 6e-30: below that tail the CDF is 0 to within it


def _normal_cdf(a: np.ndarray, sig=None) -> np.ndarray:
    """Standard normal CDF after Cephes' ndtr, written into a and returned:
    1/2 + erf(x)/2 for |x| < 1 and erfc(|x|)/2 or 1 - erfc(|x|)/2 beyond,
    x = a/sqrt 2.  It is within 4.5e-16 absolute of 0.5 (1 + math.erf(x)).
    Both rationals run over every element, in the float64 operations of
    oracles.ndtr_two_branch, and np.copyto picks each element's branch, so
    the bits are the oracle's.  As a _mixture_sum kernel it ignores `sig`."""

    def horner(v, coeffs, monic=False):  # highest power first, an implied leading 1 when monic
        out = v + coeffs[0] if monic else v * coeffs[0] + coeffs[1]
        for c in coeffs[1 if monic else 2:]:
            out *= v
            out += c
        return out

    x = a
    x *= math.sqrt(0.5)
    z = np.abs(x)
    np.minimum(z, _ERFC_CLAMP, out=z)
    sq = z * z                                    # clamped, so finite
    tail = horner(z, _ERFC_P)
    tail /= horner(z, _ERFC_Q, monic=True)
    centre = horner(sq, _ERF_T)
    centre /= horner(sq, _ERF_U, monic=True)
    centre *= x
    centre *= 0.5
    centre += 0.5                                 # (1 + erf(x))/2
    np.negative(sq, out=sq)
    tail *= np.exp(sq, out=sq)
    tail *= 0.5                                   # erfc(|x|)/2 = Phi(-|a|)
    neg = x < 0.0
    np.subtract(1.0, tail, out=x)
    np.copyto(x, tail, where=neg)
    np.copyto(x, centre, where=z < 1.0)
    return x


def mixture_cdf(spec: DensitySpec, alpha):
    """CDF of the limiting Gaussian mixture, quadrature-weighted normal CDFs:
    a float for a scalar alpha, elementwise for an array.  _normal_cdf runs
    in place on each block of the call, one column per distinct sigma in
    ascending order, which _mixture_sum gathers back into component order."""
    weights, sigmas, _ = mixture_components(spec)
    return _mixture_sum(weights, sigmas, alpha, _normal_cdf)


# ---------------------------------------------------------------------------
# artifact serialization (17 significant digits, deterministic)
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, header: Sequence[str], rows) -> None:
    """A CSV artifact: the header line, then one line per row, a float in 17
    significant digits, an int in digits and None as an empty field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) if isinstance(v, int) else _fmt(v)
                              for v in row) + "\n")


def write_samples_csv(path, rows) -> None:
    """Per-sample dump: x, omega_x, shell_count, error, normalized.

    Rows are ShellSample objects; fast-mode rows carry an empty shell_count.
    """
    write_csv(path, ("x", "omega_x", "shell_count", "error", "normalized"),
              ((s.x, s.omega_x, s.shell_count, s.error, s.normalized) for s in rows))


def write_distribution_csv(path, dist: EmpiricalDistribution) -> None:
    write_csv(path, ("normalized",), ((v,) for v in dist.normalized.tolist()))


def dump_json(obj) -> str:
    """The artifact JSON form of obj: keys sorted, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True)
