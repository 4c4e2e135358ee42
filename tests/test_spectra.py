import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cygshell import spectra
from cygshell.spectra import (DensitySpec, construction_moment,
                              constrained_frequency_sum, density_eval,
                              density_moment, gauss_moment, l_j,
                              mixture_components, phi_from_poly, phi_moment,
                              predicted_moment)

from oracles import coeff, constrained_sum_convolution, construction_moment_multinomial


def spec_1plusz(n=1, quad=64):
    phi = phi_from_poly([1, 1])
    return DensitySpec(mode="product", phis=tuple(phi for _ in range(n)),
                       quad_points=quad)


def test_autocorrelation_fixtures():
    phi = phi_from_poly([1, 1])
    assert phi.degree == 1
    assert coeff(phi, 0) == (Fraction(2), Fraction(0))
    assert coeff(phi, 1) == (Fraction(1), Fraction(0))
    assert coeff(phi, -1) == (Fraction(1), Fraction(0))
    assert coeff(phi_from_poly([1]), 0) == (Fraction(1), Fraction(0))
    shifted = phi_from_poly([0, 1])
    assert coeff(shifted, 0) == (Fraction(1), Fraction(0))
    assert coeff(shifted, 1) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        phi_from_poly([0, 0])


def test_phi_moment_central_binomials():
    phi = phi_from_poly([1, 1])
    for j in range(0, 7):
        assert phi_moment(phi, j) == math.comb(2 * j, j)


def test_phi_moment_trivial_cases():
    one = phi_from_poly([1])
    for j in range(0, 9):
        assert phi_moment(one, j) == 1
    assert phi_moment(phi_from_poly([1, 1]), 0) == 1


def test_phi_moment_span_guard():
    phi = phi_from_poly([1, 1, 1, 1])
    with pytest.raises(ValueError):
        phi_moment(phi, 5000)
    with pytest.raises(ValueError, match=">= 0"):
        phi_moment(phi, -1)


def test_phi_moment_matches_quadrature():
    grid = (np.arange(4096) + 0.5) / 4096
    for coeffs in ([1, 1], [1, 2, 1], [1, 1j], [2, 0, 1]):
        phi = phi_from_poly(coeffs)
        vals = phi.values(grid)
        for j in (1, 2, 3):
            quad = float(np.mean(vals ** j))
            exact = float(phi_moment(phi, j))
            assert abs(quad - exact) <= 1e-8 * max(1.0, abs(exact))


def test_construction_moment_product():
    spec = spec_1plusz(n=2)
    assert construction_moment(spec, 2) == 36
    assert construction_moment(spec, 1) == 4
    with pytest.raises(ValueError, match=">= 0"):
        construction_moment(spec, -1)


def test_construction_moment_sum():
    phi = phi_from_poly([1, 1])
    spec = DensitySpec(mode="sum", phis=(phi, phi))
    assert construction_moment(spec, 1) == 4
    # E[(X+Y)^2] = EX^2 + 2 EX EY + EY^2 = 6 + 8 + 6
    assert construction_moment(spec, 2) == 20
    # E[(X+Y)^4] = 70 + 4*20*2 + 6*6*6 + 4*2*20 + 70
    assert construction_moment(spec, 4) == 676
    with pytest.raises(ValueError, match=">= 0"):
        construction_moment(spec, -1)


SUM_SPECS = {
    "one_thirds_and_fifths": ([(Fraction(1, 3), 0), (Fraction(-2, 3), Fraction(1, 5))],),
    "two_dyadic_and_quadratic": ([0.5, 1 + 0.25j], [1, 2, 1]),
    "three_complex_and_gapped": ([1, 1], [1, 1j], [2, 0, 1]),
    "four_linear": ([1, 1], [2, 1], [1, -1], [3, 1]),
    "four_mixed_degree": ([1, 2, 1], [1, 0, 1, 1], [2, 1], [1, 1j]),
    "four_high_degree": tuple([Fraction((-1) ** k * (k % 5 + 1), k % 3 + 1) for k in range(d + 1)]
                              for d in (20, 15, 12, 10)),
}


@pytest.mark.parametrize("name", sorted(SUM_SPECS))
def test_sum_moment_matches_multinomial_oracle(name):
    spec = DensitySpec(mode="sum", phis=tuple(phi_from_poly(p) for p in SUM_SPECS[name]))
    t0 = time.process_time()
    moments = [construction_moment(spec, j) for j in range(9)]
    # per-factor moments keep the cost polynomial in the degrees and the
    # factor count (about 0.04 s CPU for the high-degree case)
    assert time.process_time() - t0 < 2.0
    assert moments == [construction_moment_multinomial(spec, j) for j in range(9)]


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_rationals, _rationals), min_size=1, max_size=5)
       .filter(lambda cs: any(c != (0, 0) for c in cs)))
def test_phi_invariants_hold_by_construction(coeffs):
    # phi_from_poly checks none of these at run time: the reality symmetry,
    # a positive mean a_0 = sum |c_k|^2, and phi = |p|^2 >= 0
    phi = phi_from_poly(coeffs)
    for m in range(phi.degree + 1):
        re, im = coeff(phi, m)
        assert coeff(phi, -m) == (re, -im)
    a0 = sum(re * re + im * im for re, im in coeffs)
    assert coeff(phi, 0) == (a0, 0) and a0 > 0
    t = (np.arange(64) + 0.5) / 64
    z = np.exp(2j * math.pi * t)
    p = sum(complex(re, im) * z ** k for k, (re, im) in enumerate(coeffs))
    assert np.abs(phi.values(t) - np.abs(p) ** 2).max() <= 1e-12 * float(a0)


def test_constrained_sum_fixtures():
    assert constrained_frequency_sum(spec_1plusz(), 2) == 6
    one = DensitySpec(mode="product", phis=(phi_from_poly([1]),))
    for j in (2, 4, 6):
        assert constrained_frequency_sum(one, j) == 1
    assert constrained_frequency_sum(spec_1plusz(n=2), 2) == 36


def test_constrained_sum_equals_construction_moment():
    polys = ([1, 1], [1, 2, 1], [1, 0, 1, 1], [2, 1])
    for pa in polys:
        for pb in polys:
            spec = DensitySpec(mode="product",
                               phis=(phi_from_poly(pa), phi_from_poly(pb)))
            for j in (2, 4, 6):
                assert constrained_frequency_sum(spec, j) == construction_moment(spec, j)


ORACLE_SPECS = {
    "dyadic_three_factor": ([0.5, 1 + 0.25j], [1, -0.75j, 0.5], [3, 1]),
    "thirds_and_fifths": ([(Fraction(1, 3), 0), (Fraction(-2, 3), Fraction(1, 5))],),
    "double_root_times_complex": ([1, -2, 1], [1, 1j]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
@pytest.mark.parametrize("j", (1, 2, 3, 5, 6))
def test_packed_power_matches_convolution_oracle(name, j):
    phis = tuple(phi_from_poly(p) for p in ORACLE_SPECS[name])
    spec = DensitySpec(mode="product", phis=phis)
    assert constrained_frequency_sum(spec, j) == constrained_sum_convolution(spec, j)
    for phi in phis:
        one = DensitySpec(mode="product", phis=(phi,))
        assert phi_moment(phi, j) == constrained_sum_convolution(one, j)


def test_constrained_sum_literal_enumeration_small():
    # cross-check the packed power against literal tuple enumeration
    spec = spec_1plusz(n=1)
    phi = spec.phis[0]
    for j in (2, 3, 4):
        total = Fraction(0)
        rng = range(-phi.degree, phi.degree + 1)
        def rec(depth, acc_m, acc_c):
            nonlocal total
            if depth == j:
                if acc_m == 0:
                    total += acc_c
                return
            for m in rng:
                c = coeff(phi, m)[0]
                if c:
                    rec(depth + 1, acc_m + m, acc_c * c)
        rec(0, 0, Fraction(1))
        assert constrained_frequency_sum(spec, j) == total


def test_constrained_sum_guards():
    spec = DensitySpec(mode="sum", phis=(phi_from_poly([1, 1]),))
    with pytest.raises(ValueError):
        constrained_frequency_sum(spec, 2)
    with pytest.raises(ValueError, match=">= 0"):
        constrained_frequency_sum(spec_1plusz(), -1)


def test_l_j_fixtures():
    spec = spec_1plusz()
    assert l_j(spec, 2) == 1
    assert l_j(spec, 4) == Fraction(70, 36)
    one = DensitySpec(mode="product", phis=(phi_from_poly([1]),))
    for j in (2, 4, 6, 8):
        assert l_j(one, j) == 1
    with pytest.raises(ValueError):
        l_j(spec, 3)


def test_power_mean_monotonicity():
    for coeffs in ([1, 1], [1, 2], [1, 1, 1], [3, 0, 1]):
        spec = DensitySpec(mode="product", phis=(phi_from_poly(coeffs),))
        for j in (2, 4, 6):
            assert l_j(spec, j) >= 1


def test_predicted_moments():
    assert [predicted_moment(None, j) for j in (2, 4, 6)] == [1.0, 3.0, 15.0]
    assert predicted_moment(None, 3) == 0.0
    assert predicted_moment(spec_1plusz(), 5) == 0.0
    assert abs(predicted_moment(spec_1plusz(), 4) - 3 * 70 / 36) < 1e-12


def test_gauss_moment_ladder():
    for j in (2, 4, 6, 8, 10):
        assert gauss_moment(j) == (j - 1) * gauss_moment(j - 2)
    assert gauss_moment(3) == 0
    with pytest.raises(ValueError, match=">= 0"):
        gauss_moment(-1)


def test_density_collapses_to_normal():
    one = DensitySpec(mode="product", phis=(phi_from_poly([1]),))
    for a in (0.0, 1.0, 2.0):
        expected = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
        assert abs(density_eval(one, a) - expected) < 1e-12


def test_density_even_in_alpha():
    spec = spec_1plusz(quad=64)
    for a in (0.3, 1.7, 4.1):
        assert abs(density_eval(spec, a) - density_eval(spec, -a)) < 1e-12


def test_density_mass_and_moments_nonsingular():
    phi = phi_from_poly([2, 1])  # no root near the unit circle
    spec = DensitySpec(mode="product", phis=(phi,), quad_points=128)
    assert abs(density_moment(spec, 0) - 1.0) < 1e-9
    assert abs(density_moment(spec, 2) - 1.0) < 1e-9
    l4 = float(l_j(spec, 4))
    assert abs(density_moment(spec, 4) - 3 * l4) < 1e-7
    assert abs(density_moment(spec, 1)) < 1e-10
    assert abs(density_moment(spec, 3)) < 1e-10


def _product_spec_64():
    """(1 + z)(2 + z) on 64^2 nodes: the mixture benchmark's and CLI's spec."""
    return DensitySpec(mode="product", phis=(phi_from_poly([1, 1]), phi_from_poly([2, 1])))


@pytest.mark.parametrize("spec", [
    _product_spec_64(),  # 4096 components: 16 alpha per block
    DensitySpec(mode="sum", phis=(phi_from_poly([1, 1]),) * 2, quad_points=256),  # one per block
], ids=["product-64x64", "sum-256x256"])
def test_density_array_equals_scalar_calls(spec):
    alpha = np.linspace(-6.0, 6.0, 301)
    batch = density_eval(spec, alpha)
    assert batch.shape == alpha.shape
    scalar = [density_eval(spec, a).hex() for a in alpha.tolist()]
    assert [v.hex() for v in batch.tolist()] == scalar
    assert type(density_eval(spec, 0.5)) is float


def test_density_moment_bits():
    # pinned bits: a reordered density evaluation or moment quadrature moves them
    spec = _product_spec_64()
    assert [density_moment(spec, j).hex() for j in (0, 2, 4)] == [
        "0x1.0000000000000p+0", "0x1.ffffffffffff9p-1", "0x1.4947db03aed16p+3"]


# evals: density_eval calls for the first moment asked; odd j cost the same as even j
@pytest.mark.parametrize("j, evals", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])
def test_density_moment_is_one_array_rule(monkeypatch, j, evals):
    spec = _product_spec_64()
    mixture_components(spec)  # its torus rule is not the moment's
    calls = {"density_eval": [], "_gl_nodes": 0}
    density, rule = spectra.density_eval, spectra._gl_nodes

    def counted_density(spec, alpha):
        calls["density_eval"].append(np.shape(alpha))
        return density(spec, alpha)

    def counted_rule(*args):
        calls["_gl_nodes"] += 1
        return rule(*args)

    monkeypatch.setattr(spectra, "density_eval", counted_density)
    monkeypatch.setattr(spectra, "_gl_nodes", counted_rule)
    density_moment(spec, j)
    assert calls == {"density_eval": [(spectra._ALPHA_NODES,)] * evals, "_gl_nodes": 1}
    for k in range(7):  # the rule and f(beta^2) are cached on the spec
        density_moment(spec, k)
    assert calls == {"density_eval": [(spectra._ALPHA_NODES,)] * evals, "_gl_nodes": 1}


def test_odd_density_moments_are_zero_and_still_check_the_spec(monkeypatch):
    spec = _product_spec_64()
    assert [density_moment(spec, j).hex() for j in (1, 3, 5, 7)] == ["0x0.0p+0"] * 4
    with pytest.raises(ValueError, match=">= 0"):
        density_moment(spec, -1)
    # an odd node count puts a node exactly on the root of 1 + z at t = 1/2
    singular = DensitySpec(mode="product", phis=(phi_from_poly([1, 1]),), quad_points=65)
    with pytest.raises(ValueError, match="singular"):
        density_moment(singular, 1)
    monkeypatch.setattr(spectra.arith, "_physical_memory", lambda: 1 << 10)
    with pytest.raises(MemoryError):  # a 64^2 grid needs about 296 KiB
        density_moment(_product_spec_64(), 1)


def test_density_singular_node_guard():
    # an odd node count puts a node exactly on the root of 1 + z at t = 1/2
    spec = DensitySpec(mode="product", phis=(phi_from_poly([1, 1]),), quad_points=65)
    with pytest.raises(ValueError):
        mixture_components(spec)


def test_density_spec_validation():
    phi = phi_from_poly([1, 1])
    with pytest.raises(ValueError):
        DensitySpec(mode="ratio", phis=(phi,))
    with pytest.raises(ValueError):
        DensitySpec(mode="product", phis=tuple(phi for _ in range(5)))
    with pytest.raises(ValueError):
        DensitySpec(mode="product", phis=(phi,), quad_points=8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4)
       .filter(lambda c: any(c)))
def test_random_poly_moment_identity(coeffs):
    phi = phi_from_poly(coeffs)
    spec = DensitySpec(mode="product", phis=(phi,))
    for j in (2, 4):
        assert constrained_frequency_sum(spec, j) == construction_moment(spec, j)
        assert l_j(spec, j) >= 1
    grid = (np.arange(2048) + 0.5) / 2048
    vals = phi.values(grid)
    quad = float(np.mean(vals ** 2))
    assert abs(quad - float(phi_moment(phi, 2))) <= 1e-7 * max(1.0, quad)


@pytest.mark.parametrize("n", [16, 64, 256, 768, 1024])
def test_legendre_rule_matches_leggauss(n):
    x, w = spectra._legendre_rule(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - xr).max() <= 4e-16
    # relative to the largest weight: leggauss's own end weights are off by
    # about 1e-9 relative at n = 768 (test_legendre_rule_end_weights)
    assert np.abs(w - wr).max() <= 1e-10 * wr.max()
    assert abs(w.sum() - 2.0) <= 1e-15
    assert abs(np.dot(w, x ** (2 * n - 2)) - 2.0 / (2 * n - 1)) <= 1e-13


def test_legendre_rule_odd_and_symmetric():
    for n in (1, 2, 17):
        x, w = spectra._legendre_rule(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and abs(w.sum() - 2.0) <= 1e-15
    assert spectra._legendre_rule(17)[0][8] == 0.0
    with pytest.raises(ValueError):
        spectra._legendre_rule(17)[0][0] = 1.0  # the cached rule is read-only


def test_legendre_rule_end_weights():
    mpmath = pytest.importorskip("mpmath")
    n = 768
    x, w = spectra._legendre_rule(n)
    with mpmath.workdps(40):
        for i in (0, 1, 5):
            r = mpmath.mpf(float(x[i]))
            for _ in range(3):  # Newton on P_n in 40 digits
                p, q = mpmath.legendre(n, r), mpmath.legendre(n - 1, r)
                dp = n * (q - r * p) / (1 - r * r)
                r -= p / dp
            q = mpmath.legendre(n - 1, r)
            dp = n * q / (1 - r * r)
            exact = 2 / ((1 - r * r) * dp * dp)
            assert abs(float(r) - x[i]) <= 1e-16
            assert abs(w[i] / float(exact) - 1.0) <= 1e-11
