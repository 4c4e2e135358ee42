"""Exact Fourier algebra for squared trigonometric polynomials.

phi(t) = |p(e^{2 pi i t})|^2 expands as a Laurent polynomial in e^{2 pi i t}
whose coefficients are the autocorrelation of p's coefficients.  Everything
here (moments, constrained frequency sums, limit ratios) is computed in exact
rational arithmetic; floats only appear when evaluating densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import arith

__all__ = [
    "TrigPolyModulus",
    "DensitySpec",
    "phi_from_poly",
    "phi_moment",
    "construction_moment",
    "constrained_frequency_sum",
    "l_j",
    "gauss_moment",
    "predicted_moment",
    "density_eval",
    "density_moment",
    "mixture_components",
]

_COEFF_SPAN_CAP = 10_000

def _cx(value) -> tuple[Fraction, Fraction]:
    """Coerce an int/float/complex/pair into an exact (re, im) pair.

    Floats convert exactly (binary fractions), so integer and dyadic inputs
    stay exact end to end.
    """
    if isinstance(value, tuple):
        return Fraction(value[0]), Fraction(value[1])
    if isinstance(value, complex):
        return Fraction(value.real), Fraction(value.imag)
    return Fraction(value), Fraction(0)


@dataclass(frozen=True)
class TrigPolyModulus:
    """phi(t) = sum_{|m| <= degree} a_m e^{2 pi i m t}, a real nonnegative
    trigonometric polynomial arising as |p|^2 on the unit circle.

    a_m = (re + i im) / den: `coeffs[m + degree]` is the Gaussian integer
    (re, im), a pair of Python ints over the one common denominator
    `den`, so the exact algebra multiplies plain ints and divides once.
    """

    degree: int
    coeffs: tuple  # tuple[tuple[int, int], ...], length 2*degree + 1
    den: int = 1

    def values(self, t: np.ndarray, order: int = 0) -> np.ndarray:
        """The order-th derivative of phi on a float grid: the real part of
        sum_m (2 pi i m)^order a_m e^{2 pi i m t} (the imaginary part is zero
        by the reality symmetry)."""
        acc = np.zeros_like(t, dtype=np.complex128)
        for m, a in zip(range(-self.degree, self.degree + 1), self._float_coeffs):
            if order:
                a *= (2j * math.pi * m) ** order
            acc += a * np.exp(2j * math.pi * m * t)
        return acc.real

    @cached_property
    def _float_coeffs(self) -> tuple:
        return tuple(complex(re / self.den, im / self.den) for re, im in self.coeffs)


def phi_from_poly(coeffs: Sequence) -> TrigPolyModulus:
    """Autocorrelation a_m = sum_k c_{k+m} conj(c_k) of the polynomial coefficients.

    Exact arithmetic makes phi real (a_{-m} = conj(a_m)), nonnegative
    (|p|^2) and of positive mean (a_0 = sum |c_k|^2) by construction.
    """
    cs = [_cx(c) for c in coeffs]
    if not any(x for c in cs for x in c):
        raise ValueError("polynomial must have a nonzero coefficient")
    den = math.lcm(*(x.denominator for c in cs for x in c))
    cs = [(int(re * den), int(im * den)) for re, im in cs]
    d = len(cs) - 1
    out = []
    for m in range(-d, d + 1):  # c_{k+m} conj(c_k) = (a + ib)(c - ie)
        pairs = [(cs[k + m], cs[k]) for k in range(max(0, -m), min(d, d - m) + 1)]
        out.append((sum(a * c + b * e for (a, b), (c, e) in pairs),
                    sum(b * c - a * e for (a, b), (c, e) in pairs)))
    return TrigPolyModulus(degree=d, coeffs=tuple(out), den=den * den)


def _power_centre(terms: dict[int, tuple[int, int]], j: int, den: int) -> Fraction:
    """Constant term of (sum_e c_e z^e / den)^j for j >= 0, exactly, from the
    Gaussian integers c_e = (re, im) and their common denominator den.

    Kronecker substitution: the real and the imaginary parts become base-2^w
    digits of two Python ints, and j Gaussian-integer products raise the pair
    to the j-th power.  Every digit of the power is below
    (sum |re| + |im|)^j < 2^(w - 2) in magnitude, so the centre digit reads
    back as the balanced residue once half the lower span is added and the
    lower digits are shifted out; it is divided by den^j once, at the end.
    """
    w = j * sum(abs(a) + abs(b) for a, b in terms.values()).bit_length() + 2
    lo = min(0, *terms)
    re = sum(a << (w * (e - lo)) for e, (a, _) in terms.items())
    im = sum(b << (w * (e - lo)) for e, (_, b) in terms.items())
    pr, pi = 1, 0
    for _ in range(j):
        pr, pi = pr * re - pi * im, pr * im + pi * re
    shift = -j * lo * w
    half, top = (1 << shift) >> 1, 1 << (w - 1)
    centre = [(v + half) >> shift for v in (pr, pi)]
    real, imag = ((c + top) % (2 * top) - top for c in centre)
    if imag:
        raise AssertionError("constant term has a nonzero imaginary part")
    return Fraction(real, den ** j)


def phi_moment(phi: TrigPolyModulus, j: int) -> Fraction:
    """Exact integral of phi(t)^j over one period: the constant coefficient of
    the j-th power of phi's Laurent polynomial."""
    if j < 0:
        raise ValueError("moment order must be >= 0")
    if j * phi.degree > _COEFF_SPAN_CAP:
        raise ValueError("coefficient span too large")
    return _power_centre(dict(enumerate(phi.coeffs, -phi.degree)), j, phi.den)


# Bytes per tensor quadrature node: float64 weights, sigmas and one row of
# the mixture evaluator's block buffer (a block is a whole row once nodes >
# _MIXTURE_BLOCK), the distinct sigmas, their int64 inverse index and their
# block row, then the normal CDF's five float64 temporaries for that row.
# tracemalloc reads 88.05 B per node for a mixture_cdf call on 90 000 nodes
# with all sigmas distinct and 88.03 with all but one, weights and sigmas
# included.  The grid's construction and np.unique's transient (about 49 B
# beside weights and sigmas) stay below.
_GRID_BYTES_PER_NODE = 6 * 8 + 5 * 8


@dataclass(frozen=True)
class DensitySpec:
    """A product or sum construction over independent torus coordinates, with
    the quadrature controls for its limiting Gaussian-mixture density."""

    mode: str                         # "product" | "sum"
    phis: tuple                       # tuple[TrigPolyModulus, ...]
    quad_points: int = 64

    def __post_init__(self):
        if self.mode not in ("product", "sum"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= len(self.phis) <= 4:
            raise ValueError("1 to 4 factors supported (tensor quadrature)")
        if self.quad_points < 16:
            raise ValueError("quad_points must be >= 16")

    @cached_property
    def _components(self):
        """mixture_components(self), computed once per spec; MemoryError
        before allocating a grid estimated past physical memory."""
        nodes = self.quad_points ** len(self.phis)
        arith._require_memory(nodes * _GRID_BYTES_PER_NODE, f"a quadrature grid of {nodes} nodes")
        t, w = _torus_nodes(self.quad_points)
        combine = np.multiply.outer if self.mode == "product" else np.add.outer
        field_vals, weights = self.phis[0].values(t), w
        for phi in self.phis[1:]:
            field_vals = combine(field_vals, phi.values(t)).ravel()
            weights = np.multiply.outer(weights, w).ravel()
        if float(field_vals.min()) < _SINGULAR_NODE_FLOOR:
            raise ValueError("construction vanishes at a quadrature node (singular mixture)")
        norm2 = math.sqrt(float(construction_moment(self, 2)))
        return weights, field_vals / norm2, norm2

    @cached_property
    def _moment_rule(self):
        """density_moment's beta rule and f(beta^2) on its nodes, once per spec."""
        _, sigmas, _ = self._components
        beta, wb = _gl_nodes(_ALPHA_NODES, 0.0, math.sqrt(12.0 * float(sigmas.max())))
        dens = density_eval(self, beta * beta)
        dens.setflags(write=False)
        return beta, wb, dens


def construction_moment(spec: DensitySpec, j: int) -> Fraction:
    """Exact j-th moment of the construction over the torus.

    Product mode: prod_l int phi_l^j.  Sum mode: E[(phi_1 + ... + phi_n)^j]
    over independent coordinates, folded in one factor at a time by the
    binomial expansion of the per-factor moments.
    """
    if j < 0:
        raise ValueError("moment order must be >= 0")
    if spec.mode == "product":
        return math.prod((phi_moment(phi, j) for phi in spec.phis), start=Fraction(1))
    moms = [Fraction(1)] + [Fraction(0)] * j
    for phi in spec.phis:
        m = [phi_moment(phi, k) for k in range(j + 1)]
        moms = [sum(math.comb(k, i) * moms[i] * m[k - i] for i in range(k + 1))
                for k in range(j + 1)]
    return moms[j]


def constrained_frequency_sum(spec: DensitySpec, j: int) -> Fraction:
    """Sum of prod_i a_{f_i} over j-tuples of frequency vectors summing to zero.

    Frequencies are integer vectors (one exponent per coordinate).  Each is
    packed into one integer with mixed-radix strides prod_{l' < l}(2 j d_l' + 1),
    so a sum of j of them packs to 0 exactly when it is the zero vector, and
    the tuple sum is the constant term of a 1-D power.
    """
    if spec.mode != "product":
        raise ValueError("constrained frequency sums are defined for product specs")
    if j < 0:
        raise ValueError("j must be >= 0")
    terms, den, stride = {0: (1, 0)}, 1, 1
    for phi in spec.phis:
        terms = {e + m * stride: (a * c - b * f, a * f + b * c)
                 for e, (a, b) in terms.items() for m, (c, f) in enumerate(phi.coeffs, -phi.degree)}
        den *= phi.den
        stride *= 2 * j * phi.degree + 1
    return _power_centre(terms, j, den)


def l_j(spec: DensitySpec, j: int) -> Fraction:
    """The limiting moment ratio (||.||_j / ||.||_2)^j = m_j / m_2^(j/2), exact."""
    if j < 2 or j % 2:
        raise ValueError("l_j is defined for even j >= 2")
    mj = construction_moment(spec, j)
    m2 = construction_moment(spec, 2)
    return mj / m2 ** (j // 2)


def gauss_moment(j: int) -> int:
    """Standard Gaussian moments: (j-1)!! for even j, 0 for odd j."""
    if j < 0:
        raise ValueError("moment order must be >= 0")
    if j % 2:
        return 0
    h = j // 2
    return math.factorial(j) // (2 ** h * math.factorial(h))


def predicted_moment(spec: DensitySpec | None, j: int) -> float:
    """j-th moment of the limiting distribution: gauss_moment(j) * L_j.

    Pass spec=None for the slowly varying case (L_j = 1, standard Gaussian).
    """
    if j % 2:
        return 0.0
    g = gauss_moment(j)
    if spec is None or j == 0:
        return float(g)
    return float(g * l_j(spec, j))


# ---------------------------------------------------------------------------
# Gaussian-mixture density machinery
# ---------------------------------------------------------------------------

_SINGULAR_NODE_FLOOR = 1e-9
_ALPHA_NODES = 768  # Gauss-Legendre nodes of the density_moment integral


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=8)
def _legendre_rule(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only arrays.

    Newton iteration on the recurrence from the guesses
    cos(pi (i - 1/4)/(n + 1/2)) for the nonnegative roots, as in fast
    Gauss-Legendre rules (Hale & Townsend), instead of a dense eigensolve;
    the weights are 2/((1 - x^2) P_n'(x)^2) and the rule is mirrored, so
    it is exactly symmetric."""
    i = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))  # descending; x[-1] = 0 for odd n
    for _ in range(20):  # about 5 steps from these guesses
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() < 1e-12:  # quadratic convergence: x is now exact to rounding
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n = {n} did not converge")
    if n % 2:
        x[-1] = 0.0
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_nodes(n: int, a: float, b: float):
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _torus_nodes(n: int):
    # Gauss-Legendre at moderate sizes; the integrands are smooth and
    # periodic, so beyond that the equal-weight midpoint rule converges
    # superalgebraically and avoids the O(n^2) node solve.
    if n <= 1024:
        return _gl_nodes(n, 0.0, 1.0)
    t = (np.arange(n) + 0.5) / n
    return t, np.full(n, 1.0 / n)


def mixture_components(spec: DensitySpec):
    """Quadrature weights and mixture standard deviations sigma(t) = F(t)/||F||_2.

    The construction F is evaluated on the tensor quadrature grid over
    [0,1)^n; results are cached on the spec.
    """
    return spec._components


_MIXTURE_BLOCK = 1 << 16  # (alpha, component) pairs per _mixture_sum block


def _mixture_sum(weights, sigmas, alpha, kernel):
    """sum_i weights[i] kernel(alpha / sigmas[i], sigmas[i]), a float for a
    scalar alpha, elementwise for an array.  `kernel(z, sig)` maps a block
    of alpha/sig, one row per alpha and one column per distinct sig
    (ascending), to its values (in place or not); np.take gathers the
    columns back into component order, so each keeps its bits.  Each row is
    summed on its own, so the bits do not depend on the block; the block
    buffers are made once per call, since fresh 512 KB arrays fault in new
    pages."""
    a = np.asarray(alpha, dtype=np.float64)
    flat = a.reshape(-1)
    out = np.empty(flat.size)
    distinct, inverse = np.unique(sigmas, return_inverse=True)
    rows = max(1, _MIXTURE_BLOCK // sigmas.size)
    buf = np.empty((min(rows, flat.size), sigmas.size))
    cols = np.empty((buf.shape[0], distinct.size))
    with np.errstate(over="ignore"):  # a huge alpha/sigma is inf: both kernels take it to a limit
        for lo in range(0, flat.size, rows):
            z = np.divide(flat[lo:lo + rows, None], distinct, out=cols[:flat.size - lo])
            vals = kernel(z, distinct)
            # mode="clip" writes into buf; "raise" would buffer a copy
            vals = np.take(vals, inverse, axis=1, out=buf[:flat.size - lo], mode="clip")
            vals *= weights
            vals.sum(axis=1, out=out[lo:lo + rows])  # not np.dot, which spins BLAS threads
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def density_eval(spec: DensitySpec, alpha):
    """The limiting density, a weight-averaged mixture of centred normals with
    standard deviations sigma(t): a float for a scalar alpha, elementwise
    for an array."""
    weights, sigmas, _ = mixture_components(spec)

    def kernel(z, sig):  # exp(-z^2/2)/sig, in place
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        z /= sig
        return z

    return _mixture_sum(weights, sigmas, alpha, kernel) / math.sqrt(2 * math.pi)


def density_moment(spec: DensitySpec, j: int) -> float:
    """Numerical integral of alpha^j against the density.

    One Gauss-Legendre rule in beta over [0, sqrt A], A = 12 max sigma, with
    alpha = beta^2, which absorbs the |alpha|^(-1/2)-type peak a unit-circle
    root of p would create.  Even j (and the mass j = 0) integrate
    2 f(beta^2).  Odd j are exactly 0, since f is a mixture of centred
    normals; the rule is still built, so a singular or oversized spec raises.
    """
    if j < 0:
        raise ValueError("moment order must be >= 0")
    beta, wb, dens = spec._moment_rule
    if j % 2:
        return 0.0
    return float(np.dot(wb, beta ** (2 * j) * (2.0 * dens) * 2.0 * beta))
