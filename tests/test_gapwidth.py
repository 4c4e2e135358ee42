import math

import numpy as np
import pytest

from cygshell.gapwidth import (AlmostPeriodicGap, GapWidth, gap_from_json, make_almost_periodic,
                               make_slowly_varying, omega_diagnostics)
from cygshell.spectra import phi_from_poly
from cygshell.stats import SampleGrid
from oracles import fourier_derivatives, fourier_value


def one_plus_z_product(lambdas=(1.0,), exponent=2):
    return make_almost_periodic(AlmostPeriodicGap(
        polys=tuple((1, 1) for _ in lambdas),
        lambdas=tuple(lambdas),
        exponent=exponent,
        mode="product",
    ))


ALL_GAPS = None


def _all_gaps():
    global ALL_GAPS
    if ALL_GAPS is None:
        ALL_GAPS = [
            make_slowly_varying("inv_log"),
            make_slowly_varying("inv_loglog"),
            make_slowly_varying("exp_neg_sqrt_log"),
            one_plus_z_product(),
            make_almost_periodic(AlmostPeriodicGap(
                polys=((1, 1), (1, 0.5)), lambdas=(1.0, math.sqrt(2)),
                exponent=2, mode="sum")),
        ]
    return ALL_GAPS


def _array_scalar_gaps():
    """The slowly varying kinds, the (1 + z)(2 + z) product at A = 2 and
    A = 20, and a sum at A = 3."""
    def product(A):
        return make_almost_periodic(AlmostPeriodicGap(
            polys=((1, 1), (2, 1)), lambdas=(1.0, math.sqrt(2)), exponent=A, mode="product"))
    return {
        **{kind: make_slowly_varying(kind) for kind in ("inv_loglog", "inv_log", "exp_neg_sqrt_log")},
        "product-A2": product(2),
        "sum-A3": make_almost_periodic(AlmostPeriodicGap(
            polys=((1, 1), (1, 0.5)), lambdas=(1.0, math.sqrt(2)), exponent=3, mode="sum")),
        "product-A20": product(20),
    }


@pytest.mark.parametrize("name", ["inv_loglog", "inv_log", "exp_neg_sqrt_log",
                                  "product-A2", "sum-A3", "product-A20"])
def test_array_value_equals_scalar_calls_bit_for_bit(name):
    # 12 000 points.  The array form of L ** -A (NumPy's SIMD power on an
    # AVX-512 CPU) rounded about 5 % of them differently from the scalar pow;
    # np.float_power rounds both like the scalar
    gap = _array_scalar_gaps()[name]
    for phase in (0.25, 0.5, 0.75):
        xs = SampleGrid(X=2000.0, S=4000, phase=phase).xs
        want = [float(gap.value(x)).hex() for x in xs.tolist()]
        assert [v.hex() for v in gap.value(xs).tolist()] == want


def test_on_grid_returns_the_value_bits():
    xs = SampleGrid(X=2000.0, S=4000).xs
    for name, gap in _array_scalar_gaps().items():
        assert gap.on_grid(xs).tobytes() == gap.value(xs).tobytes(), name


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf], ids=repr)
def test_on_grid_names_the_first_bad_point(bad):
    # omega is bad at every x past 10.5: the message names x = 11
    gap = GapWidth(name="bad", jet=lambda L, order: [np.where(L > math.log(10.5), bad, 0.25)])
    with pytest.raises(ValueError) as err:
        gap.on_grid(np.array([10.0, 11.0, 12.0]))
    assert str(err.value) == f"omega(x) = {bad} must be positive and finite at x = 11.0"


def test_closed_form_fixtures():
    inv_log = make_slowly_varying("inv_log")
    assert abs(float(inv_log.value(math.e)) - 1.0) < 1e-12
    assert abs(float(inv_log.derivatives(math.e)[0]) + 1.0 / math.e) < 1e-12
    ens = make_slowly_varying("exp_neg_sqrt_log")
    assert abs(float(ens.value(math.e ** 4)) - math.exp(-2.0)) < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_slowly_varying("linear")


def _check_against_fd(direct, numeric):
    # relative 1e-5 away from critical points; near zeros of the derivative a
    # relative test is vacuous, so fall back to 1e-5 of the grid scale
    scale = float(np.max(np.abs(direct)))
    near_zero = np.abs(direct) < 0.01 * scale
    rel_ok = np.abs(direct - numeric) <= 1e-5 * np.abs(direct)
    abs_ok = np.abs(direct - numeric) <= 1e-5 * scale
    assert np.all(np.where(near_zero, abs_ok, rel_ok))


def _fd4(fn, xs, h):
    # fourth-order centered stencil at step h (Richardson of the 2-point rule)
    return (8 * (fn(xs + h) - fn(xs - h)) - (fn(xs + 2 * h) - fn(xs - 2 * h))) / (12 * h)


@pytest.mark.parametrize("idx", range(5))
def test_derivative_consistency(idx):
    gap = _all_gaps()[idx]
    xs = np.exp(np.linspace(math.log(10.0), math.log(1e6), 200))
    h = 1e-4 * xs
    d1, d2 = gap.derivatives(xs)
    _check_against_fd(d1, _fd4(gap.value, xs, h))
    _check_against_fd(d2, _fd4(lambda v: gap.derivatives(v)[0], xs, h))


@pytest.mark.parametrize("idx", range(5))
def test_positivity_and_small_slope(idx):
    gap = _all_gaps()[idx]
    xs = np.exp(np.linspace(math.log(100.0), math.log(1e8), 2000))
    vals = np.asarray(gap.value(xs))
    assert np.all(vals > 0)
    assert np.all(np.abs(gap.derivatives(xs)[0]) < 0.5)


def test_product_trivial_factor_is_inverse_log_power():
    gap = make_almost_periodic(AlmostPeriodicGap(
        polys=((1,),), lambdas=(1.0,), exponent=2, mode="product"))
    for x in (10.0, 100.0, 12345.0):
        assert abs(float(gap.value(x)) - math.log(x) ** -2) < 1e-14


def test_product_one_plus_z_at_integer_arguments():
    gap = one_plus_z_product()
    for n in (2, 3, 7, 11):
        x = math.exp(math.sqrt(n))  # (log x)^2 == n up to float rounding
        expected = 4.0 / math.log(x) ** 2
        assert abs(float(gap.value(x)) - expected) < 1e-8


def test_fourier_representation_matches_direct():
    for gap in _all_gaps()[3:]:
        xs = np.exp(np.linspace(math.log(50.0), math.log(1e5), 400))
        direct = np.asarray(gap.value(xs))
        four = fourier_value(gap, xs)
        assert np.all(np.abs(direct - four) <= 1e-9 * np.abs(direct))


def test_derivatives_match_fourier_oracle():
    three = make_almost_periodic(AlmostPeriodicGap(
        polys=((1, 1), (2, 1), (1, 0.5j, -0.25)), lambdas=(1.0, math.sqrt(2), math.sqrt(5)),
        exponent=3, mode="product"))
    gaps = [g for g in _all_gaps() if g.spec is not None] + [three]
    xs = np.exp(np.linspace(math.log(10.0), math.log(1e6), 2000))
    for gap in gaps:
        for direct, four in zip(gap.derivatives(xs), fourier_derivatives(gap, xs)):
            assert np.all(np.abs(direct - four) <= 1e-9 * np.max(np.abs(four)))


def test_phi_derivative_values():
    phi = phi_from_poly([1, 1])  # |1 + z|^2 = 2 + 2 cos 2 pi t
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(phi.values(t, 1) + 4 * math.pi * np.sin(2 * math.pi * t))) < 1e-12


def test_almost_periodic_rejects_bad_specs():
    with pytest.raises(ValueError):
        AlmostPeriodicGap(polys=((1, 1),), lambdas=(1.0,), exponent=1, mode="product")
    with pytest.raises(ValueError):
        AlmostPeriodicGap(polys=((1, 1),), lambdas=(1.0, 2.0), exponent=2, mode="product")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        AlmostPeriodicGap(polys=((1, 1),), lambdas=(1.0,), exponent=2, mode="bogus")
    # (z - 1)^2 has a double root on the circle: |p|^2 stays below the floor
    # over the whole grid neighbourhood of t = 0
    with pytest.raises(ValueError):
        make_almost_periodic(AlmostPeriodicGap(
            polys=((1, -2, 1),), lambdas=(1.0,), exponent=2, mode="product"))


@pytest.mark.parametrize("c, ok", [(0.995, False), (0.99, True)])
def test_root_floor_edge(c, ok):
    # |1 - c z|^4 has its least midpoint value 6.5e-10 at c = 0.995, below the
    # floor 1e-9, and 1.0e-8 at c = 0.99, above it
    spec = AlmostPeriodicGap(polys=((1, -2 * c, c * c),), lambdas=(1.0,), exponent=2,
                             mode="product")
    if ok:
        assert make_almost_periodic(spec).value(1000.0) > 0
    else:
        with pytest.raises(ValueError, match="zero on the unit circle"):
            make_almost_periodic(spec)


def test_diagnostics_inv_log():
    diag = omega_diagnostics(make_slowly_varying("inv_log"), 1000.0, 2000)
    assert diag.u_count == 0
    assert diag.v_count == 0
    assert diag.m2 > 0
    assert abs(diag.lj_estimates[2] - 1.0) < 1e-12


def test_diagnostics_lj_trend_to_one():
    inv_log = make_slowly_varying("inv_log")
    diag = omega_diagnostics(inv_log, 1e6, 2000)
    assert 0.9 <= diag.lj_estimates[4] <= 1.1
    # the pair (X, 2X) is tighter than (X/2, X) for j in {4, 6}
    for j in (4, 6):
        def ratio(X):
            d = omega_diagnostics(inv_log, X, 2000)
            return d.lj_estimates[j]
        assert abs(ratio(2e5) - ratio(4e5)) <= abs(ratio(1e5) - ratio(2e5))


def test_diagnostics_product_zero_counts():
    gap = one_plus_z_product()
    X = 1000.0
    diag = omega_diagnostics(gap, X, 4000)
    xs = X * (1.0 + (np.arange(4000) + 0.5) / 4000)
    max_omega = float(np.max(np.asarray(gap.value(xs))))
    assert diag.u_count * max_omega <= 10.0 * math.sqrt(X)
    assert diag.u_count > 0  # the oscillating factor does create critical points


def test_diagnostics_carleman_partials_increase():
    diag = omega_diagnostics(make_slowly_varying("inv_log"), 1000.0, 2000)
    partials = diag.carleman_partial
    assert len(partials) == 20
    assert all(b > a for a, b in zip(partials, partials[1:]))


def test_diagnostics_domain_checks(inv_log):
    with pytest.raises(ValueError):
        omega_diagnostics(inv_log, 2.0, 2000)
    with pytest.raises(ValueError):
        omega_diagnostics(inv_log, 1000.0, 10)


def test_json_spec_ignores_other_keys():
    assert gap_from_json({"kind": "inv_log", "A": 2}).name == "inv_log"
    spec = gap_from_json({
        "kind": "sum", "polys": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]],
        "lambdas": [1.0, 1.4142135623730951], "A": 3, "independent": False,
        "quad_points": 16}).spec
    assert spec == AlmostPeriodicGap(polys=((1, 1), (1, 0.5)),
                                     lambdas=(1.0, math.sqrt(2)), exponent=3, mode="sum")


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gap_from_json({"kind": "bogus"})
