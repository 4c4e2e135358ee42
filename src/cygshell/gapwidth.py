"""Gap-width functions omega(x) = h(log x) with first and second derivatives.

Each family supplies only the jet of h in L = log x: the built-in slowly
varying families, and the almost-periodic product/sum constructions
phi_l(lambda_l L^A) L^(-A), whose jets come from the factors' derivative
values by the Leibniz rule.  One chain rule turns the L-jet into omega' and
omega''.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import arith, spectra
from .spectra import DensitySpec, phi_from_poly

__all__ = [
    "GapWidth",
    "AlmostPeriodicGap",
    "OmegaDiagnostics",
    "make_slowly_varying",
    "make_almost_periodic",
    "midpoint_grid",
    "omega_diagnostics",
    "gap_from_json",
    "density_spec_from_json",
    "SLOWLY_VARYING_KINDS",
]

X_MIN = 3.0  # lower end of the domain on which every gap width is defined
_ROOT_FLOOR = 1e-9


@dataclass(frozen=True)
class GapWidth:
    """A positive gap width omega(x) = h(log x).

    jet(L, order) returns [h(L), ..., h^(order)(L)] for order <= 2; it and
    the methods accept scalars or numpy arrays.
    """

    name: str
    jet: Callable = field(repr=False)
    spec: "AlmostPeriodicGap | None" = None

    def value(self, x):
        """omega(x); an array call equals the calls per point bit for bit."""
        return self.jet(np.log(x), 0)[0]

    def on_grid(self, xs: np.ndarray) -> np.ndarray:
        """value(xs), unchanged; ValueError at the first x where omega(x) is
        not positive and finite, outside the domain of E(x; omega)."""
        with np.errstate(over="ignore", invalid="ignore"):  # the error names the nan or inf
            w = self.value(xs)
        bad = ~((w > 0) & (w < math.inf))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"omega(x) = {w[i]} must be positive and finite at x = {xs[i]}")
        return w

    def derivatives(self, x):
        """(omega'(x), omega''(x)) = (h'/x, (h'' - h')/x^2) from one order-2 jet in L."""
        x = np.asarray(x, dtype=np.float64)
        _, h1, h2 = self.jet(np.log(x), 2)
        return h1 / x, (h2 - h1) / (x * x)


# kind -> (h, h', h'') as functions of L = log x, in the order --omega lists them
_SLOWLY_VARYING = {
    "inv_loglog": (lambda L: 1.0 / np.log(L),
                   lambda L: -1.0 / (L * np.log(L) ** 2),
                   lambda L: (np.log(L) + 2.0) / (L * L * np.log(L) ** 3)),
    "inv_log": (lambda L: 1.0 / L,
                lambda L: -1.0 / L ** 2,
                lambda L: 2.0 / L ** 3),
    "exp_neg_sqrt_log": (lambda L: np.exp(-np.sqrt(L)),
                         lambda L: -np.exp(-np.sqrt(L)) / (2.0 * np.sqrt(L)),
                         lambda L: (np.exp(-np.sqrt(L)) * (np.sqrt(L) + 1.0)
                                    / (4.0 * L * np.sqrt(L)))),
}
SLOWLY_VARYING_KINDS = tuple(_SLOWLY_VARYING)


def make_slowly_varying(kind: str) -> GapWidth:
    """One of the built-in slowly varying families: 1/log log x, 1/log x,
    exp(-sqrt(log x))."""
    if kind not in _SLOWLY_VARYING:
        raise ValueError(f"unknown slowly varying kind {kind!r}")
    terms = _SLOWLY_VARYING[kind]
    return GapWidth(name=kind, jet=lambda L, order: [t(L) for t in terms[:order + 1]])


@dataclass(frozen=True)
class AlmostPeriodicGap:
    """Construction data for omega_x / omega_+: squared-modulus factors phi_l,
    frequencies lambda_l, exponent A > 1 and the combination mode."""

    polys: tuple            # tuple of coefficient tuples (exact complex input)
    lambdas: tuple          # tuple[float, ...]
    exponent: int
    mode: str               # "product" | "sum"

    def __post_init__(self):
        if self.mode not in ("product", "sum"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.exponent < 2:
            raise ValueError("the exponent A must be an integer >= 2")
        if len(self.polys) != len(self.lambdas) or not self.polys:
            raise ValueError("need one lambda per polynomial")

    def to_phis(self) -> tuple:
        """The factors phi_l = |p_l|^2, built exactly."""
        return tuple(phi_from_poly(c) for c in self.polys)


def _leibniz(c: list, f: list) -> list:
    """The jet (up to order 2) of a product from the jets of its two factors."""
    out = [c[0] * f[0]]
    if len(c) > 1:
        out.append(c[1] * f[0] + c[0] * f[1])
    if len(c) > 2:
        out.append(c[2] * f[0] + 2.0 * c[1] * f[1] + c[0] * f[2])
    return out


def make_almost_periodic(spec: AlmostPeriodicGap) -> GapWidth:
    """omega(x) = h(L) = C(u) * L^(-A), L = log x, u = L^A, where C combines
    the factors phi_l(lambda_l u).

    The jet (C, C', C'') is folded from the factor jets
    (phi_l, lambda_l phi_l', lambda_l^2 phi_l'') at lambda_l u; the jet of h
    follows from it by the chain and product rules in L.

    ValueError when a factor phi_l is at most _ROOT_FLOOR at a cell midpoint
    (i + 1/2)/4096: any multiple root, a simple root only within ~5e-6 of one.
    """
    phis = spec.to_phis()
    t = (np.arange(4096) + 0.5) / 4096
    if min(float(phi.values(t).min()) for phi in phis) <= _ROOT_FLOOR:
        raise ValueError("a factor polynomial is (numerically) zero on the unit circle")
    A = spec.exponent
    lambdas = spec.lambdas

    def _jet(u, order):
        """[C(u), ..., C^(order)(u)] for order <= 2."""
        jet = None
        for phi, lam in zip(phis, lambdas):
            t = np.asarray(lam * u, dtype=np.float64)
            f = [phi.values(t)]
            for k in range(1, order + 1):
                f.append(lam ** k * phi.values(t, k))
            if jet is None:
                jet = f
            elif spec.mode == "product":
                jet = _leibniz(jet, f)
            else:
                jet = [c + g for c, g in zip(jet, f)]
        return jet

    def _h(L, order):
        """[h(L), ..., h^(order)(L)] for order <= 2."""
        # float_power, not **: an array ** may take a SIMD power that rounds
        # unlike the scalar pow, and value() must not depend on the shape
        u = np.float_power(L, A)
        c = _jet(u, order)
        h = [c[0] * np.float_power(L, -A)]
        if order > 0:
            w = u * c[1] - c[0]
            h.append(w * (A / np.float_power(L, A + 1)))
        if order > 1:
            h.append((A * u * u * c[2] - (A + 1) * w) * (A / np.float_power(L, A + 2)))
        return h

    mark = "x" if spec.mode == "product" else "+"
    return GapWidth(name=f"almost_periodic_{mark}_n{len(phis)}_A{A}", jet=_h, spec=spec)


@dataclass(frozen=True)
class OmegaDiagnostics:
    """Numerical membership diagnostics for the regularity class, sampled on
    an equispaced scan of [X, 2X]."""

    X: float
    u_count: int                 # sign changes of omega' (zero-count estimate)
    v_count: int                 # sign changes of omega''
    cond3a_ratio: float          # u_count * max omega / sqrt(X)
    m2: float
    tau_estimate: float          # least-squares slope of log M2 vs log X (dyadic)
    lj_estimates: dict           # j -> M_j / M_2^(j/2), even j in {2,4,6,8}
    carleman_partial: tuple      # partial sums of m_j^(-1/j) over even j <= 40


def midpoint_grid(X: float, n: int) -> np.ndarray:
    """The n cell midpoints X (1 + (i + 1/2)/n), 0 <= i < n, of the window (X, 2X)."""
    return X * (1.0 + (np.arange(n) + 0.5) / n)


def _sign_changes(vals: np.ndarray) -> int:
    s = np.sign(vals)
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


# Peak bytes per omega_diagnostics scan point, traced at 10^6 points, X = 1000:
# product and sum constructions 152 (the heaviest), slowly varying kinds 64-80.
_SCAN_BYTES_PER_POINT = 152


def omega_diagnostics(omega: GapWidth, X: float, scan_points: int = 10_000) -> OmegaDiagnostics:
    """Sampled zero counts of omega', omega'' and the moment-ratio
    diagnostics; MemoryError before the first scan when its estimated peak
    exceeds physical memory."""
    if not (math.isfinite(X) and X >= X_MIN):
        raise ValueError(f"X = {X} must be finite and >= the domain bound {X_MIN}")
    if scan_points < 1000:
        raise ValueError("scan_points must be >= 1000")
    arith._require_memory(scan_points * _SCAN_BYTES_PER_POINT, f"a scan of {scan_points} points")
    xs = midpoint_grid(X, scan_points)
    w = omega.on_grid(xs)
    wlw = w * np.log(w)
    moments = {j: float(np.mean(wlw ** j)) for j in range(2, 41, 2)}
    m2 = moments[2]
    if not (moments[40] > 0.0 and m2 ** 20 > 0.0):  # then every m_j and m2^(j/2) is > 0
        raise ValueError(f"the moments m_j = mean((omega log omega)^j) over (X, 2X) underflow "
                         f"(m2 = {m2:g}; the ratios m_j / m2^(j/2) up to j = 40 need m40 and "
                         f"m2^20 above 0); the largest gap width on the scan is "
                         f"{float(w.max()):.3g}")
    u_count, v_count = (_sign_changes(d) for d in omega.derivatives(xs))
    ratios = {j: m / m2 ** (j / 2) for j, m in moments.items()}
    logm2 = [math.log(m2)]
    for mult in (2, 4, 8):
        wm = omega.on_grid(midpoint_grid(mult * X, scan_points))
        logm2.append(math.log(float(np.mean((wm * np.log(wm)) ** 2))))
    slope = np.polyfit([math.log(mult * X) for mult in (1, 2, 4, 8)], logm2, 1)[0]
    partials = itertools.accumulate((spectra.gauss_moment(j) * r) ** (-1.0 / j)
                                    for j, r in ratios.items())
    return OmegaDiagnostics(
        X=X,
        u_count=u_count,
        v_count=v_count,
        cond3a_ratio=u_count * float(w.max()) / math.sqrt(X),
        m2=m2,
        tau_estimate=float(slope),
        lj_estimates={j: ratios[j] for j in (2, 4, 6, 8)},
        carleman_partial=tuple(partials),
    )


# ---------------------------------------------------------------------------
# JSON schema shared by gap widths and density specs
# ---------------------------------------------------------------------------

def _numbers(values, field: str, shape: str, length: int | None = None) -> list:
    """A JSON array of numbers as finite floats, with `length` entries when
    given.  JSON's true and false are no numbers, though Python's bools are
    ints; a ValueError names the field, its expected shape and the value."""
    if (not isinstance(values, (list, tuple)) or length not in (None, len(values))
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise ValueError(f'"{field}" must be {shape}, not {values!r}')
    try:
        floats = [float(v) for v in values]
    except OverflowError:  # an integer past the float range
        floats = [math.inf]
    if not all(math.isfinite(v) for v in floats):
        raise ValueError(f'"{field}" must be finite, not {values!r}')
    return floats


def _parse_polys(obj) -> tuple:
    """The "polys" field: a list of polynomials, each a list of finite [re, im] pairs."""
    shape = "a list of lists of [re, im] number pairs"
    if not isinstance(obj, (list, tuple)) or not all(isinstance(cs, (list, tuple)) for cs in obj):
        raise ValueError(f'"polys" must be {shape}, not {obj!r}')
    return tuple(tuple(complex(*_numbers(pair, "polys", shape, 2)) for pair in cs) for cs in obj)


def _field(obj, name: str):
    """The field `name` of a JSON spec object; a ValueError names what is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"a spec must be a JSON object, not {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f'the spec has no "{name}" field')
    return obj[name]


def gap_from_json(obj: dict) -> GapWidth:
    """Build a gap width from the JSON spec: slowly varying kinds need only
    "kind"; product/sum kinds carry polys, lambdas and A, whose numbers must
    be finite.  Other keys are ignored; a ValueError names a missing field."""
    kind = _field(obj, "kind")
    if kind in SLOWLY_VARYING_KINDS:
        return make_slowly_varying(kind)
    if kind in ("product", "sum"):
        lambdas = tuple(_numbers(_field(obj, "lambdas"), "lambdas", "a list of numbers"))
        exponent = _field(obj, "A")
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise ValueError(f'"A" must be an integer, not {exponent!r}')
        spec = AlmostPeriodicGap(polys=_parse_polys(_field(obj, "polys")), lambdas=lambdas,
                                 exponent=exponent, mode=kind)
        return make_almost_periodic(spec)
    raise ValueError(f"unknown gap-width kind {kind!r}")


def density_spec_from_json(obj: dict, quad_points: int) -> DensitySpec:
    """The density-side reading of the same schema (lambdas and A do not enter
    the limiting density); quad_points is the tensor quadrature size."""
    kind = _field(obj, "kind")
    if kind not in ("product", "sum"):
        raise ValueError("density specs require a product or sum kind")
    phis = tuple(phi_from_poly(c) for c in _parse_polys(_field(obj, "polys")))
    return DensitySpec(mode=kind, phis=phis, quad_points=quad_points)
