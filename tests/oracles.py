"""Independent oracles that only the tests use.

The full-plane r2 sieve with a full-size compression index (cross-checks
arith.build_r2's half-plane sieve and block-wise compression), the
partial sums of r2 over the compressed view, a
pure-integer ball count (cross-checks counting.count_ball_fast above the
brute-force cap), the j = 2 diagonal sum in its plain-sum form and in the
literal square-free pair regrouping (both cross-check voronoi.diagonal_sum),
the j = 4 diagonal sum with each core's constant term taken from np.convolve
(cross-checks the circle mean in voronoi.diagonal_sum),
the Fourier-side evaluation of an almost-periodic gap width and of its
first two derivatives (cross-check the factor-value evaluation in gapwidth),
the constrained frequency sum as a j-fold tensor convolution over the
frequency lattice (cross-checks the packed power in spectra), the sum-mode
construction moment by the multinomial expansion over per-factor moments
(cross-checks the binomial fold in spectra), the sawtooth correction,
from its own unchunked float sqrt, psi and fixup band (cross-checks the
chunk loop of counting._ball_pass, chunk offsets included), and the main
series, both summed by math.fsum over a Python list of every product or
term (cross-check the exact partial sums of arith.exact_parts bit for bit).
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from cygshell.arith import R2Table
from cygshell.counting import _BAND, RadiusPoint, _psi_exact
from cygshell.gapwidth import AlmostPeriodicGap, GapWidth, midpoint_grid
from cygshell.spectra import DensitySpec, _cmul, phi_moment
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


def count_ball_isqrt(x: RadiusPoint, r2: R2Table) -> int:
    """N(x) = sum_{m <= x^2} r2(m) (2 isqrt(k^4 - m^2 Q^4) // Q^2 + 1), in
    integers only: every slice of the dense table, m = 0 included."""
    if x.floor_sq > r2.limit:
        raise ValueError(f"r2 table limit {r2.limit} < floor(x^2) = {x.floor_sq}")
    k4, Q2 = x.k ** 4, x.Q * x.Q
    Q4 = Q2 * Q2
    ms = np.flatnonzero(r2.values[:x.floor_sq + 1])
    return sum(r * (2 * (math.isqrt(k4 - m * m * Q4) // Q2) + 1)
               for m, r in zip(ms.tolist(), r2.values[ms].tolist()))


def sawtooth_ball_sum_fsum(x: RadiusPoint, r2: R2Table) -> float:
    """The sawtooth sum of counting.sawtooth_ball_sum over every slice as one
    unchunked array: s = sqrt((k^2 - mQ^2)(k^2 + mQ^2)) / Q^2 in the kernel's
    float64 operations, psi = s - [s] - 1/2 and the band of s within _BAND
    of an integer, then one fsum over the list of every product r2(m) psi,
    then the band corrections in slice order."""
    k4, Q2 = x.k ** 4, x.Q * x.Q
    n = r2.nonzero_count_upto(x.floor_sq)
    m, v = r2.nonzero_m[:n], r2.nonzero_values[:n]
    fk2, mq2 = float(x.k * x.k), m * float(Q2)
    s = np.sqrt((fk2 - mq2) * (mq2 + fk2)) * (1.0 / Q2)
    psi = s - np.floor(s) - 0.5
    band = np.flatnonzero(np.abs(np.rint(s) - s) < _BAND).tolist()
    corrections = [float(v[i]) * (_psi_exact(k4 - int(m[i]) ** 2 * Q2 * Q2, Q2) - psi[i])
                   for i in band]
    total = math.fsum((v * psi).tolist())
    for c in corrections:
        total += c
    return total


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
    """voronoi.diagonal_sum at j = 4, with [z^0] g_c^2 and [z^0] g_c^4 read
    from np.convolve of the coefficient array of g_c (exponents -kmax..kmax)
    at every sample point."""
    om = np.asarray(omega.value(midpoint_grid(X, samples)), dtype=np.float64)
    p2, p4, s22 = np.zeros(samples), np.zeros(samples), np.zeros(samples)
    for core, rows in _cores_upto(Y, r2).items():
        kmax = max(k for k, _ in rows)
        for i, o in enumerate(om):
            coeff = np.zeros(2 * kmax + 1)
            for k, w in rows:
                wk = w * math.sin(math.pi * math.sqrt(core) * k * o)
                coeff[kmax + k] += wk
                coeff[kmax - k] -= wk
            sq = np.convolve(coeff, coeff)
            p2[i] += sq[2 * kmax]
            s22[i] += sq[2 * kmax] ** 2
            p4[i] += np.convolve(sq, sq)[4 * kmax]
    return (math.sqrt(2.0) / math.pi) ** 4 * float(np.mean(p4 + 3.0 * (p2 * p2 - s22)))


_IMAG_TOL = 1e-10


def _fourier_terms(spec: AlmostPeriodicGap):
    """Flatten the construction into [(frequency, complex coefficient)] terms
    of u -> construction(lambda * u)."""
    factors = []  # the nonzero (frequency, coefficient) terms of each phi_l(lambda_l u)
    for phi, lam in zip(spec.to_phis(), spec.lambdas):
        row = []
        for m in range(-phi.degree, phi.degree + 1):
            c = phi.coeff(m)
            cc = complex(float(c[0]), float(c[1]))
            if cc != 0:
                row.append((m * lam, cc))
        factors.append(row)
    if spec.mode == "product":
        stack = [(0.0, 1 + 0j)]
        for row in factors:
            stack = [(freq + f, coeff * cc) for freq, coeff in stack for f, cc in row]
    else:
        stack = [term for row in factors for term in row]
    terms: dict[float, complex] = {}
    for freq, coeff in stack:
        terms[freq] = terms.get(freq, 0j) + coeff
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
            c = _cmul(c, phi.coeff(m))
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
