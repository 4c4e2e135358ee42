"""Independent oracles that only the tests use.

The full-plane r2 sieve with a full-size compression index (cross-checks
arith.build_r2's half-plane sieve and block-wise compression), the
partial sums of r2 over the compressed view, a
pure-integer ball count (cross-checks counting.count_ball_fast above the
brute-force cap, on sieved tables and on tables of chosen slices up to the
float exactness bound), the j = 2 diagonal sum in its plain-sum form and in the
literal square-free pair regrouping (both cross-check d2 of voronoi.diagonal_sum),
d4 with each core's constant term taken from np.convolve
(cross-checks the circle mean in voronoi.diagonal_sum),
the Fourier-side evaluation of an almost-periodic gap width and of its
first two derivatives (cross-check the factor-value evaluation in gapwidth),
the constrained frequency sum as a j-fold tensor convolution over the
frequency lattice (cross-checks the packed power in spectra), the sum-mode
construction moment by the multinomial expansion over per-factor moments
(cross-checks the binomial fold in spectra), the sawtooth correction,
from its own unchunked float sqrt, psi and fixup band, with psi in the band
from integers only (cross-checks the chunk loop of counting._ball_pass,
chunk offsets included, and counting._psi_exact), and the main
series, both summed by math.fsum over a Python list of every product or
term (cross-check the exact partial sums of arith.exact_parts bit for bit),
and the normal CDF that evaluates both Cephes rationals over every element
and picks one with np.where (pins the gathered tail of stats._NormalCdf bit
for bit), and the Gaussian-mixture sum with one kernel column per component
and its density kernel (cross-check the columns that spectra._mixture_sum
shares between bit-equal sigmas, bit for bit); also three helpers that
only the tests call: the r2^2 partial-sum trend of criterion 9,
stats._NormalCdf as a function of a new array and the exact coefficient
a_m of a spectra.TrigPolyModulus.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from cygshell.arith import R2Table
from cygshell.counting import _BAND, RadiusPoint
from cygshell.gapwidth import AlmostPeriodicGap, GapWidth, midpoint_grid
from cygshell.spectra import DensitySpec, phi_moment
from cygshell.stats import _ERF_T, _ERF_U, _ERFC_CLAMP, _ERFC_P, _ERFC_Q, _NormalCdf
from cygshell.voronoi import SERIES_PREFACTOR, _cores_upto


def r2_full_plane(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, nonzero_m, nonzero_values) of the r2 table to limit: np.add.at
    over every a >= 0 and b >= 0 with weight 4 (2 on an axis, 1 at the
    origin), then one int64 index of all nonzero m >= 1."""
    values = np.zeros(limit + 1, dtype=np.uint16)
    for a in range(math.isqrt(limit) + 1):
        b = np.arange(math.isqrt(limit - a * a) + 1, dtype=np.int64)
        weights = np.full(b.shape, 4 if a > 0 else 2, dtype=np.uint16)
        weights[0] //= 2  # b == 0 contributes half the sign choices
        np.add.at(values, a * a + b * b, weights)
    idx = np.flatnonzero(values[1:]) + 1
    return values, idx.astype(np.uint32), values[idx]


def r2_sum_upto(r2: R2Table, y: int) -> int:
    """Sum of r2(m) for 0 <= m <= y (exact): r2(0) = 1 plus the compressed
    counts with 1 <= m <= y."""
    if y > r2.limit:
        raise ValueError(f"r2 table limit {r2.limit} < requested {y}")
    return 1 + int(r2.nonzero_values[:r2.nonzero_count_upto(y)].sum(dtype=np.int64))


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


def count_ball_isqrt(x: RadiusPoint, r2: R2Table) -> int:
    """N(x) = sum_{m <= x^2} r2(m) (2 isqrt(k^4 - m^2 Q^4) // Q^2 + 1), in
    integers only: the m = 0 slice, then every compressed slice m <= x^2,
    picked by a mask (the kernel's own count of them is not used).  It reads
    only the table's arrays, so a test can build a table of chosen slices."""
    if x.floor_sq > r2.limit:
        raise ValueError(f"r2 table limit {r2.limit} < floor(x^2) = {x.floor_sq}")
    k4, Q2 = x.k ** 4, x.Q * x.Q
    Q4 = Q2 * Q2
    keep = r2.nonzero_m <= x.floor_sq
    slices = zip([0] + r2.nonzero_m[keep].tolist(), [1] + r2.nonzero_values[keep].tolist())
    return sum(r * (2 * (math.isqrt(k4 - m * m * Q4) // Q2) + 1) for m, r in slices)


def float_s(x: RadiusPoint, m: np.ndarray) -> np.ndarray:
    """s = sqrt((k^2 - mQ^2)(k^2 + mQ^2)) / Q^2 at the slices m, in the count
    kernel's float64 operations."""
    fk2, mq2 = float(x.k * x.k), m * float(x.Q * x.Q)
    return np.sqrt((fk2 - mq2) * (mq2 + fk2)) * (1.0 / (x.Q * x.Q))


def psi_isqrt(v: int, q2: int) -> float:
    """psi(sqrt(v)/q2) = frac(sqrt(v)/q2) - 1/2 from integers only, rounded
    once: isqrt(v 4^80) = floor(sqrt(v) 2^80), so its residue mod q2 2^80,
    over q2 2^80, is the fraction to within 2^-80 / q2."""
    den = q2 << 80
    return float(Fraction(math.isqrt(v << 160) % den, den) - Fraction(1, 2))


def sawtooth_ball_sum_fsum(x: RadiusPoint, r2: R2Table, band_psi=psi_isqrt) -> float:
    """The sawtooth sum of counting.sawtooth_ball_sum over every slice as one
    unchunked array: s from float_s, psi = s - [s] - 1/2, set to
    band_psi(k^4 - m^2 Q^4, Q^2) on the band of s within _BAND of an integer
    (psi_isqrt, or counting._psi_exact to compare the chunk loop bit for
    bit), then one fsum over the list of every product r2(m) psi."""
    k4, Q2 = x.k ** 4, x.Q * x.Q
    n = r2.nonzero_count_upto(x.floor_sq)
    m, v = r2.nonzero_m[:n], r2.nonzero_values[:n]
    s = float_s(x, m)
    psi = s - np.floor(s) - 0.5
    for i in np.flatnonzero(np.abs(np.rint(s) - s) < _BAND).tolist():
        psi[i] = band_psi(k4 - int(m[i]) ** 2 * Q2 * Q2, Q2)
    return math.fsum((v * psi).tolist())


def series_with_gap_fsum(x: float, gap: float, r2: R2Table, cutoff: int) -> float:
    """voronoi.series_with_gap with fsum over the list of its terms."""
    n = r2.nonzero_count_upto(cutoff)
    m = r2.nonzero_m[:n].astype(np.float64)
    amp = r2.nonzero_values[:n] / m
    s = np.sqrt(m)
    terms = amp * np.sin(math.pi * s * gap) * np.sin(math.pi * s * (2.0 * x + gap))
    return SERIES_PREFACTOR * math.fsum(terms.tolist())


def diagonal_sum_direct_j2(omega: GapWidth, X: float, Y: int, r2: R2Table,
                           samples: int) -> float:
    """Grid average of -2 sum_{n <= Y} (r2(n)/n)^2 sin^2(pi sqrt(n) omega(x)),

    the plain-sum form of the j = 2 diagonal (before the sign-weighted
    prefactor)."""
    xs = midpoint_grid(X, samples)
    om = np.asarray(omega.value(xs), dtype=np.float64)
    acc = np.zeros(samples)
    for i in range(r2.nonzero_count_upto(Y)):
        m = int(r2.nonzero_m[i])
        w = float(r2.nonzero_values[i]) / m
        acc += (w * np.sin(math.pi * math.sqrt(m) * om)) ** 2
    return float(np.mean(-2.0 * acc))


def grouped_pair_sum_j2(omega: GapWidth, X: float, Y: int, r2: R2Table,
                        samples: int) -> float:
    """The same j = 2 diagonal computed through the square-free regrouping:
    for each square-free core enumerate signed pairs (e1 k1, e2 k2) with
    e1 k1 + e2 k2 = 0, literally."""
    xs = midpoint_grid(X, samples)
    om = np.asarray(omega.value(xs), dtype=np.float64)
    cores = _cores_upto(Y, r2)
    acc = np.zeros(samples)
    for core, rows in cores.items():
        sq = math.sqrt(core)
        for k1, w1 in rows:
            s1 = w1 * np.sin(math.pi * sq * k1 * om)
            for k2, w2 in rows:
                s2 = w2 * np.sin(math.pi * sq * k2 * om)
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        if e1 * k1 + e2 * k2 == 0:
                            acc += (e1 * e2) * s1 * s2
    return float(np.mean(acc))


def diagonal_sum_convolve_j4(omega: GapWidth, X: float, Y: int, r2: R2Table,
                             samples: int) -> float:
    """d4 of voronoi.diagonal_sum, with [z^0] g_c^2 and [z^0] g_c^4 read
    from np.convolve of the coefficient array of g_c (exponents -kmax..kmax)
    at every sample point."""
    om = np.asarray(omega.value(midpoint_grid(X, samples)), dtype=np.float64)
    p2, p4, s22 = np.zeros(samples), np.zeros(samples), np.zeros(samples)
    for core, rows in _cores_upto(Y, r2).items():
        kmax = max(k for k, _ in rows)
        for i, o in enumerate(om):
            g = np.zeros(2 * kmax + 1)
            for k, w in rows:
                wk = w * math.sin(math.pi * math.sqrt(core) * k * o)
                g[kmax + k] += wk
                g[kmax - k] -= wk
            sq = np.convolve(g, g)
            p2[i] += sq[2 * kmax]
            s22[i] += sq[2 * kmax] ** 2
            p4[i] += np.convolve(sq, sq)[4 * kmax]
    return (math.sqrt(2.0) / math.pi) ** 4 * float(np.mean(p4 + 3.0 * (p2 * p2 - s22)))


_IMAG_TOL = 1e-10


def coeff(phi, m: int) -> tuple[Fraction, Fraction]:
    """a_m of the TrigPolyModulus phi as an exact (re, im) pair of Fractions,
    (0, 0) past the degree."""
    re, im = phi.coeffs[m + phi.degree] if abs(m) <= phi.degree else (0, 0)
    return Fraction(re, phi.den), Fraction(im, phi.den)


def _fourier_terms(spec: AlmostPeriodicGap):
    """Flatten the construction into [(frequency, complex coefficient)] terms
    of u -> construction(lambda * u)."""
    factors = []  # the nonzero (frequency, coefficient) terms of each phi_l(lambda_l u)
    for phi, lam in zip(spec.to_phis(), spec.lambdas):
        row = []
        for m in range(-phi.degree, phi.degree + 1):
            c = coeff(phi, m)
            cc = complex(float(c[0]), float(c[1]))
            if cc != 0:
                row.append((m * lam, cc))
        factors.append(row)
    if spec.mode == "product":
        stack = [(0.0, 1 + 0j)]
        for row in factors:
            stack = [(freq + f, a * cc) for freq, a in stack for f, cc in row]
    else:
        stack = [term for row in factors for term in row]
    terms: dict[float, complex] = {}
    for freq, a in stack:
        terms[freq] = terms.get(freq, 0j) + a
    return sorted(terms.items())


def _real(z, scale=0.0):
    if np.max(np.abs(z.imag)) > _IMAG_TOL * (1.0 + np.max(np.abs(z.real)) + scale):
        raise AssertionError("Fourier evaluation lost reality symmetry")
    return z.real


def fourier_value(gap: GapWidth, x) -> np.ndarray:
    """Evaluate an almost-periodic gap through its Fourier representation
    (cross-check against the direct product/sum evaluation)."""
    if gap.spec is None:
        raise ValueError("not an almost-periodic gap")
    terms = _fourier_terms(gap.spec)
    x = np.asarray(x, dtype=np.float64)
    L = np.log(x)
    u = L ** gap.spec.exponent
    acc = np.zeros_like(u, dtype=np.complex128)
    for f, c in terms:
        acc += c * np.exp(2j * math.pi * f * u)
    return _real(acc) * L ** (-gap.spec.exponent)


def fourier_derivatives(gap: GapWidth, x) -> tuple[np.ndarray, np.ndarray]:
    """(omega'(x), omega''(x)) of an almost-periodic gap by term-wise
    differentiation of its Fourier representation sum_f c_f e(f u) L^(-A),
    u = L^A, L = log x: each term contributes
    A/(x L^(A+1)) (2 pi i f u - 1) and
    -A/(x^2 L^(A+2)) ((A + 1 + L)(2 pi i f u - 1) + A u^2 (2 pi f)^2)."""
    if gap.spec is None:
        raise ValueError("not an almost-periodic gap")
    A = gap.spec.exponent
    terms = _fourier_terms(gap.spec)
    freqs = np.array([f for f, _ in terms])
    coeffs = np.array([c for _, c in terms])
    scale = float(np.max(np.abs(coeffs)))
    x = np.asarray(x, dtype=np.float64)
    L = np.log(x)
    u = L ** A
    phase = coeffs * np.exp(2j * math.pi * np.multiply.outer(u, freqs))
    slope = np.multiply.outer(u, 2j * math.pi * freqs) - 1.0
    d1 = (phase * slope).sum(axis=-1) * (A / (x * L ** (A + 1)))
    bracket = ((A + 1.0 + L)[..., None] * slope
               + A * np.multiply.outer(u * u, (2 * math.pi * freqs) ** 2))
    d2 = (phase * bracket).sum(axis=-1) * (-A / (x * x * L ** (A + 2)))
    return _real(d1, scale), _real(d2, scale)


def _cadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _cmul(a, b):
    """The exact product of two (re, im) Fraction pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


_CZERO = (Fraction(0), Fraction(0))


def _dict_convolve(a: dict, b: dict) -> dict:
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            key = tuple(x + y for x, y in zip(va, vb))
            out[key] = _cadd(out.get(key, _CZERO), _cmul(ca, cb))
    return {k: v for k, v in out.items() if v != _CZERO}


def constrained_sum_convolution(spec: DensitySpec, j: int) -> Fraction:
    """Sum of prod_i a_{f_i} over j-tuples of frequency vectors f_i summing
    to zero, for j >= 1, as a j-fold tensor convolution of the product
    construction's coefficients keyed by the frequency vectors themselves."""
    base = {}
    for mvec in itertools.product(*(range(-phi.degree, phi.degree + 1) for phi in spec.phis)):
        c = (Fraction(1), Fraction(0))
        for phi, m in zip(spec.phis, mvec):
            c = _cmul(c, coeff(phi, m))
        if c != _CZERO:
            base[mvec] = c
    acc = base
    for _ in range(j - 1):
        acc = _dict_convolve(acc, base)
    val = acc.get((0,) * len(spec.phis), _CZERO)
    if val[1] != 0:
        raise AssertionError("constrained sum has a nonzero imaginary part")
    return val[0]


def construction_moment_multinomial(spec: DensitySpec, j: int) -> Fraction:
    """E[(phi_1 + ... + phi_n)^j] over independent coordinates: the sum over
    compositions j_1 + ... + j_n = j of j!/(j_1! ... j_n!) prod_l int phi_l^j_l."""
    moments = [[phi_moment(phi, k) for k in range(j + 1)] for phi in spec.phis]
    total = Fraction(0)
    for comp in itertools.product(range(j + 1), repeat=len(spec.phis)):
        if sum(comp) != j:
            continue
        term = Fraction(math.factorial(j))
        for jl, phi_moms in zip(comp, moments):
            term = term / math.factorial(jl) * phi_moms[jl]
        total += term
    return total


def _horner(x: np.ndarray, coeffs, monic: bool = False) -> np.ndarray:
    """The polynomial with the given coefficients (highest power first, with
    an implied leading 1 when monic) at x, in one buffer."""
    if monic:
        out = x + coeffs[0]
        rest = coeffs[1:]
    else:
        out = x * coeffs[0]
        out += coeffs[1]
        rest = coeffs[2:]
    for c in rest:
        out *= x
        out += c
    return out


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array (stats._NormalCdf), as a new array; a
    is not written."""
    return _NormalCdf()(np.array(a, dtype=np.float64))


def ndtr_two_branch(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of ndtr with both branches over every
    element: the erfc rational on min(|x|, 8) and the erf rational on its
    square, x = a/sqrt 2, then np.where picks the erf side where |x| < 1.
    Each element sees the same float64 operations in the same order as in
    ndtr, which evaluates the erfc side only where it is picked."""
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    np.minimum(z, _ERFC_CLAMP, out=z)
    tail = _horner(z, _ERFC_P)
    tail /= _horner(z, _ERFC_Q, monic=True)
    sq = z * z
    np.negative(sq, out=sq)
    np.exp(sq, out=sq)
    tail *= sq
    tail *= 0.5
    np.multiply(z, z, out=sq)
    centre = _horner(sq, _ERF_T)
    centre /= _horner(sq, _ERF_U, monic=True)
    centre *= x
    centre *= 0.5
    centre += 0.5
    out = np.where(x < 0.0, tail, 1.0 - tail)
    return np.where(z < 1.0, centre, out)


def mixture_sum_per_component(weights, sigmas, alpha, kernel):
    """sum_i weights[i] kernel(alpha / sigmas[i], sigmas[i]) with one kernel
    column per component, bit-equal sigmas or not: blocks of about 2^16
    (alpha, component) pairs, each row weighted and summed on its own.  A
    float for a scalar alpha, elementwise for an array (cross-checks the
    columns spectra._mixture_sum shares between bit-equal sigmas)."""
    a = np.asarray(alpha, dtype=np.float64)
    flat = a.reshape(-1)
    out = np.empty(flat.size)
    rows = max(1, (1 << 16) // sigmas.size)
    with np.errstate(over="ignore"):
        for lo in range(0, flat.size, rows):
            vals = kernel(flat[lo:lo + rows, None] / sigmas, sigmas)
            vals *= weights
            vals.sum(axis=1, out=out[lo:lo + rows])
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def normal_density_over_sigma(z: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """exp(-z^2/2)/sig as a new array: the unnormalised density kernel of
    spectra.density_eval."""
    return np.exp(-0.5 * (z * z)) / sig
