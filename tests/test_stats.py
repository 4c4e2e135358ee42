import math
import threading
import tracemalloc

import numpy as np
import pytest

from cygshell import arith, gapwidth, spectra, stats, voronoi
from cygshell.counting import shell_sample
from cygshell.stats import (EmpiricalDistribution, SampleGrid, ks_distance,
                            m_j, mixture_cdf, normal_cdf, sample_errors,
                            variance_sigma2)
from oracles import (ks_distance_full, mixture_sum_per_component, ndtr, ndtr_two_branch,
                     normal_density_over_sigma, series_with_gap_fsum)


def test_grid_points_inside_window():
    grid = SampleGrid(X=100.0, S=100, Q=64)
    xs = grid.xs
    assert xs.shape == (100,)
    assert np.all((xs > 100.0) & (xs < 200.0))
    assert np.all(np.diff(xs) > 0)
    # resonance-avoiding snap keeps every numerator odd
    assert all(p.k % 2 == 1 for p in grid.points)


@pytest.mark.parametrize("X, S, phase", [
    (200.0, 250, 0.41947929721557387),
    (2000.0, 4000, 0.39145232115408746),
    (2000.0, 4000, 0.5670483060350264),
])
def test_grid_top_point_stays_in_window(X, S, phase):
    # each of these phases rounds its top point to the numerator 2XQ
    grid = SampleGrid(X=X, S=S, Q=64, phase=phase)
    ks = [p.k for p in grid.points]
    assert ks[-1] == 2 * X * 64 - 1
    assert all(a < b for a, b in zip(ks, ks[1:]))


@pytest.mark.parametrize("X, S, Q", [(100.0, 100, 64), (37.3, 40, 7), (10.0, 10, 4)])
def test_grid_phase_sweep_odd_increasing_inside(X, S, Q):
    for i in range(2000):
        ks = [p.k for p in SampleGrid(X=X, S=S, Q=Q, phase=i / 2000).points]
        assert len(ks) == S
        assert all(k % 2 == 1 for k in ks)
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert X * Q < ks[0] and ks[-1] < 2 * X * Q


def test_grid_phase_offsets_differ():
    a = SampleGrid(X=500.0, S=100, Q=64, phase=0.25).xs
    b = SampleGrid(X=500.0, S=100, Q=64, phase=0.75).xs
    assert not np.allclose(a, b)


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(X=100.0, S=5, Q=64)
    with pytest.raises(ValueError):
        SampleGrid(X=100.0, S=100, Q=64, phase=1.5)
    with pytest.raises(ValueError):
        SampleGrid(X=10.0, S=4000, Q=64)  # denser than the odd-snap resolution
    with pytest.raises(ValueError, match="denser"):
        SampleGrid(X=10.0, S=11, Q=4)  # one past XQ/4 = 10, which the phase sweep accepts
    with pytest.raises(ValueError, match="Q must be >= 1"):
        SampleGrid(X=100.0, S=10, Q=0)


def test_sample_errors_contract(r2_200k, inv_log):
    grid = SampleGrid(X=60.0, S=40, Q=64)
    vals = sample_errors(inv_log, grid, r2_200k, mode="exact")
    assert vals.shape == (40,)
    assert np.all(np.isfinite(vals))
    threaded = sample_errors(inv_log, grid, r2_200k, mode="exact", threads=2)
    assert np.array_equal(vals, threaded)
    with pytest.raises(ValueError):
        sample_errors(inv_log, grid, r2_200k, mode="approx")


def test_sample_shells_rows(r2_200k, inv_log):
    grid = SampleGrid(X=60.0, S=20, Q=64)
    exact = stats.sample_shells(inv_log, grid, r2_200k, "exact", 2)
    assert exact == [shell_sample(p, float(inv_log.value(p.value)), r2_200k) for p in grid.points]
    fast = stats.sample_shells(inv_log, grid, r2_200k, "fast", None)
    assert [s.x for s in fast] == [p.value for p in grid.points]
    assert all(s.shell_count is None and s.n_inner is None for s in fast)
    assert np.array_equal(sample_errors(inv_log, grid, r2_200k, mode="fast"),
                          [s.normalized for s in fast])


@pytest.mark.parametrize("spec", ["inv_log", "product_gap"])
def test_fast_rows_equal_the_per_point_formula(request, r2_10k, spec):
    omega = request.getfixturevalue(spec)
    grid = SampleGrid(X=2000.0, S=100, Q=64, phase=0.3)
    want = []
    for p in grid.points:
        x = p.value
        gap = float(omega.value(x))
        v = series_with_gap_fsum(x, gap, r2_10k, stats.FAST_CUTOFF_FLOOR)
        want.append((x.hex(), gap.hex(), (v * x * x).hex(), v.hex()))
    fast = stats.sample_shells(omega, grid, r2_10k, "fast", None)
    assert [(s.x.hex(), s.omega_x.hex(), s.error.hex(), s.normalized.hex())
            for s in fast] == want


def test_fast_omega_column_equals_scalar_calls(r2_10k, product_gap):
    # fast mode takes omega with one array call per grid
    grid = SampleGrid(X=2000.0, S=4000, Q=64)
    fast = stats.sample_shells(product_gap, grid, r2_10k, "fast", None)
    assert ([s.omega_x.hex() for s in fast]
            == [float(product_gap.value(p.value)).hex() for p in grid.points])


@pytest.mark.parametrize("spec", ["inv_log", "product_gap"])
def test_fast_rows_keep_their_bits_on_two_threads(request, r2_10k, spec):
    omega = request.getfixturevalue(spec)
    grid = SampleGrid(X=2000.0, S=100, Q=64, phase=0.3)
    rows = {}
    for threads in (1, 2):
        before = threading.active_count()
        rows[threads] = [(s.x.hex(), s.omega_x.hex(), s.error.hex(), s.normalized.hex())
                         for s in stats.sample_shells(omega, grid, r2_10k, "fast", threads)]
        assert threading.active_count() == before  # the call joins every thread it starts
    assert rows[2] == rows[1]


def test_exact_points_go_to_the_pool_largest_first(monkeypatch, r2_200k, inv_log):
    submitted = []

    class RecordingPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            points = list(points)
            submitted.extend(p.k for p, _ in points)
            return map(fn, points)

    monkeypatch.setattr(stats, "ThreadPoolExecutor", RecordingPool)
    grid = SampleGrid(X=60.0, S=20, Q=64)
    rows = stats.sample_shells(inv_log, grid, r2_200k, "exact", 2)
    assert submitted == sorted((p.k for p in grid.points), reverse=True)
    assert rows == [shell_sample(p, float(inv_log.value(p.value)), r2_200k) for p in grid.points]


def test_exact_sample_shells_makes_one_jet_call(r2_200k, inv_log):
    shapes = []
    counted = gapwidth.GapWidth(name="counted",
                                jet=lambda L, order: shapes.append(np.shape(L)) or inv_log.jet(L, order))
    grid = SampleGrid(X=60.0, S=20, Q=64)
    rows = stats.sample_shells(counted, grid, r2_200k, "exact", 2)
    assert shapes == [(20,)]
    assert rows == stats.sample_shells(inv_log, grid, r2_200k, "exact", 1)


def test_m_j_rejects_a_nan_gap_width():
    nan_gap = gapwidth.GapWidth(name="nan", jet=lambda L, order: [L * math.nan])
    with pytest.raises(ValueError, match=r"omega\(x\) = nan must be positive and finite at x = "):
        m_j(nan_gap, 100.0, 50, 2)


@pytest.mark.parametrize("threads", [0, -1, 33, 1.5, True, "2"])
def test_sample_shells_rejects_bad_threads(r2_200k, inv_log, threads):
    # and so do the series calls, all before any thread starts
    grid = SampleGrid(X=60.0, S=20, Q=64)
    rows = stats.sample_shells(inv_log, grid, r2_200k, "exact", 1, sawtooth=True)
    before = threading.active_count()
    for mode in ("exact", "fast"):
        with pytest.raises(ValueError, match="threads"):
            stats.sample_shells(inv_log, grid, r2_200k, mode, threads)
    with pytest.raises(ValueError, match="threads"):
        voronoi.series_with_gap(grid.xs, np.array([s.omega_x for s in rows]), r2_200k, 3600,
                                threads)
    with pytest.raises(ValueError, match="threads"):
        voronoi.expansion_rhs(rows, 60.0, r2_200k, threads)
    assert threading.active_count() == before


def test_threads_none_means_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(voronoi.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert voronoi._thread_count(None) == 3
    monkeypatch.setattr(voronoi.os, "sched_getaffinity", lambda pid: set(range(100)), raising=False)
    assert voronoi._thread_count(None) == voronoi.MAX_THREADS
    assert voronoi._thread_count(5) == 5


def test_exact_vs_fast_bias(r2_200k, inv_log):
    grid = SampleGrid(X=100.0, S=50, Q=64)
    exact = sample_errors(inv_log, grid, r2_200k, mode="exact")
    fast = sample_errors(inv_log, grid, r2_200k, mode="fast")
    assert float(np.mean(np.abs(exact - fast))) <= 0.1


def test_fast_vs_exact_at_acceptance_scale(inv_log):
    # the fast-mode oracle at X = 500, S = 400: fast mode drops the sawtooth
    # and truncates the series, so it tracks the exact errors only closely
    grid = SampleGrid(X=500.0, S=400, Q=64, phase=0.5)
    r2 = arith.build_r2(1001 * 1001)  # every outer radius on (500, 1000) lies below 1001
    exact, fast = (np.array([s.normalized for s in stats.sample_shells(inv_log, grid, r2, mode, 2)])
                   for mode in ("exact", "fast"))
    rms = math.sqrt(np.mean((fast - exact) ** 2) / variance_sigma2(exact))
    assert rms <= 0.03  # measured 0.0168 (sigma = 1.967): margin 1.8x
    a, b = (EmpiricalDistribution.from_samples(v).normalized for v in (exact, fast))
    both = np.concatenate([a, b])
    ks = np.max(np.abs(np.searchsorted(a, both, side="right") / a.size
                       - np.searchsorted(b, both, side="right") / b.size))
    # measured 0.020: margin 2.5x; the two-sample 5 % critical value at
    # n = m = 400 is 0.096, so a bound of 0.05 is stricter than that test
    assert ks <= 0.05


def test_sigma_grid_stability(r2_10k, inv_log):
    s1 = sample_errors(inv_log, SampleGrid(X=500.0, S=1000, Q=64), r2_10k, mode="fast")
    s2 = sample_errors(inv_log, SampleGrid(X=500.0, S=2000, Q=64), r2_10k, mode="fast")
    v1, v2 = variance_sigma2(s1), variance_sigma2(s2)
    assert abs(math.sqrt(v2) - math.sqrt(v1)) <= 0.05 * math.sqrt(v1)


def test_variance_fixtures():
    assert variance_sigma2([3.0] * 7) == 9.0
    assert variance_sigma2([1.0, -1.0] * 8) == 1.0
    with pytest.raises(ValueError):
        variance_sigma2([])


def test_mj_fixtures(inv_log):
    assert m_j(inv_log, 1000.0, 500, 0) == 1.0
    assert m_j(inv_log, 1000.0, 500, 2) > 0
    assert m_j(inv_log, 1000.0, 500, 4) > 0
    ratio = m_j(inv_log, 1e6, 500, 4) / m_j(inv_log, 1e6, 500, 2) ** 2
    assert 0.9 <= ratio <= 1.1


def test_mj_holder_chain(inv_log):
    for X in (100.0, 1000.0, 1e5):
        m2 = m_j(inv_log, X, 400, 2)
        for j in (4, 6, 8):
            assert m_j(inv_log, X, 400, j) >= m2 ** (j / 2) * (1 - 1e-12)


def test_mj_domain_guard():
    loglog = gapwidth.make_slowly_varying("inv_loglog")
    with pytest.raises(ValueError):
        m_j(loglog, 10.0, 100, 2)  # omega > 1 there
    # omega == 1 exactly: omega log omega = 0, so 1 is outside the domain too
    one = gapwidth.GapWidth(name="one", jet=lambda L, order: [np.ones_like(L)] * (order + 1))
    with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
        m_j(one, 100.0, 50, 2)


def test_empirical_distribution_self_normalized():
    rng = np.random.default_rng(7)
    dist = EmpiricalDistribution.from_samples(rng.normal(size=4000) * 2.5)
    assert abs(dist.moments[2] - 1.0) < 1e-12
    assert np.all(np.diff(dist.normalized) >= 0)


def _normal_quantile(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_quantiles(n):
    return EmpiricalDistribution.from_samples(
        [_normal_quantile((i + 0.5) / n) for i in range(n)])


def test_ks_of_exact_quantiles():
    n = 1000
    dist = _exact_quantiles(n)
    # self-normalization rescales by sigma ~= 1; allow that drift
    sigma_shift = abs(dist.sigma - 1.0)
    assert sigma_shift < 0.01
    ks = ks_distance(dist, normal_cdf)
    assert ks <= 1 / (2 * n) + 0.5 * sigma_shift + 1e-6


@pytest.fixture(scope="module")
def fast_dists(r2_10k, product_gap, inv_log):
    """Fast-mode samples at S = 4000 by (gap width, X, phase): the mixture
    workload's at three phases, and inv_log's, whose KS against the normal
    sits at the noise floor."""
    cases = [("product", 2000.0, p) for p in (0.25, 0.5, 0.75)]
    cases += [("inv_log", X, 0.5) for X in (500.0, 2000.0)]
    gaps = {"product": product_gap, "inv_log": inv_log}
    return {(g, X, p): EmpiricalDistribution.from_samples(sample_errors(
        gaps[g], SampleGrid(X=X, S=4000, Q=64, phase=p), r2_10k, mode="fast"))
        for g, X, p in cases}


def _workload_cdf():
    spec = _workload_mixture_spec()
    return lambda a: mixture_cdf(spec, a)


# name -> (the fast_dists key, or exact normal quantiles at n = 1000, and the CDF)
_KS_CASES = {
    **{f"product-{p}-{c}": (("product", 2000.0, p), c)
       for p in (0.25, 0.5, 0.75) for c in ("mixture", "normal")},
    **{f"inv_log-{X:g}-normal": (("inv_log", X, 0.5), "normal") for X in (500.0, 2000.0)},
    "quantiles-normal": ("quantiles", "normal"),
}


@pytest.mark.parametrize("name", _KS_CASES)
def test_ks_distance_bit_equals_the_full_oracle(fast_dists, name):
    case, cdf = _KS_CASES[name]
    dist = _exact_quantiles(1000) if case == "quantiles" else fast_dists[case]
    cdf = _workload_cdf() if cdf == "mixture" else normal_cdf
    assert ks_distance(dist, cdf).hex() == ks_distance_full(dist, cdf).hex()


def test_ks_distance_bit_equals_the_full_oracle_on_random_samples():
    # n from 10 (below the stride) to 5000; every third sample is rounded
    # to one decimal, so it has ties
    for seed in range(240):
        rng = np.random.default_rng(seed)
        n = int(10 ** rng.uniform(1.0, math.log10(5000.0)))
        raw = rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0), size=n)
        if seed % 3 == 0:
            raw = np.round(raw, 1)
        dist = EmpiricalDistribution.from_samples(raw)
        got, want = ks_distance(dist, normal_cdf), ks_distance_full(dist, normal_cdf)
        assert got.hex() == want.hex(), (seed, n)


def test_ks_distance_nan_and_empty():
    values = np.sort(np.r_[np.random.default_rng(1).normal(size=999), np.nan])
    dist = EmpiricalDistribution(sigma=1.0, normalized=values, moments={})
    assert math.isnan(ks_distance(dist, normal_cdf))
    assert math.isnan(ks_distance_full(dist, normal_cdf))
    with pytest.raises(ValueError):
        ks_distance(EmpiricalDistribution(sigma=1.0, normalized=np.array([]), moments={}),
                    normal_cdf)


def test_ks_distance_evaluates_a_run_whose_bound_is_within_the_margin():
    # n = 65: the first call takes points 0 and 64 only.  F is 0.5 at 0, v on
    # 1..63 with v - 1/65 just above 0.5, and two ulps below v at 64, so the
    # run's bound F_64 - 1/65 is below the max 0.5 by less than _KS_MARGIN
    # while the skipped term at 1, v - 1/65, is above it
    n = 65
    v = 0.5 + 1 / n
    while v - 1 / n <= 0.5:
        v = np.nextafter(v, 1.0)
    table = np.r_[0.5, np.full(n - 2, v), np.nextafter(np.nextafter(v, 0.0), 0.0)]
    dist = EmpiricalDistribution(sigma=1.0, normalized=np.arange(n, dtype=np.float64), moments={})
    cdf = lambda a: table[a.astype(np.int64)]
    assert table[-1] - 1 / n < 0.5 < ks_distance_full(dist, cdf)
    assert ks_distance(dist, cdf).hex() == ks_distance_full(dist, cdf).hex()


def _cdf_calls(dist, cdf):
    """ks_distance(dist, cdf) and the sorted-sample indices of each cdf call."""
    calls = []

    def counted(a):
        calls.append(np.searchsorted(dist.normalized, a))
        return cdf(a)

    return ks_distance(dist, counted), calls


def test_ks_distance_evaluates_only_where_the_supremum_can_be(fast_dists):
    cdf = _workload_cdf()
    dist = fast_dists[("product", 2000.0, 0.5)]
    assert np.all(np.diff(dist.normalized) > 0)  # an index per value
    calls = _cdf_calls(dist, cdf)[1]
    assert len(calls) <= 6 and sum(c.size for c in calls) <= 600
    seen = np.concatenate(calls)
    assert all(np.all(np.diff(c) > 0) for c in calls)
    assert np.unique(seen).size == seen.size  # no index twice
    # at exact quantiles every term is about 1/(2n): nothing is pruned
    dist = _exact_quantiles(1000)
    assert sum(c.size for c in _cdf_calls(dist, normal_cdf)[1]) == 1000


def test_normal_cdf_fixture():
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1.5e-7
    assert abs(normal_cdf(0.0) - 0.5) < 1e-16


def test_mixture_cdf_fixtures():
    one = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1]),))
    assert abs(mixture_cdf(one, 0.0) - 0.5) < 1e-12
    assert abs(mixture_cdf(one, 1.96) - 0.9750021048517795) < 1e-5
    spec = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1, 1]),))
    assert abs(mixture_cdf(spec, 0.0) - 0.5) < 1e-12
    grid = np.arange(-5.0, 5.01, 0.1)
    vals = [mixture_cdf(spec, float(a)) for a in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


def test_mixture_cdf_consistent_with_density():
    spec = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([2, 1]),),
                               quad_points=128)
    # numeric derivative of the CDF returns the density
    for a in (0.4, 1.3):
        h = 1e-5
        deriv = (mixture_cdf(spec, a + h) - mixture_cdf(spec, a - h)) / (2 * h)
        assert abs(deriv - spectra.density_eval(spec, a)) < 1e-6


def test_ndtr_matches_math_erf():
    grid = np.linspace(-40.0, 40.0, 400_001)
    want = np.array([0.5 * (1.0 + math.erf(a / math.sqrt(2.0))) for a in grid.tolist()])
    assert np.abs(ndtr(grid) - want).max() <= 4.5e-16


def test_ndtr_matches_scipy_in_both_tails():
    scipy_ndtr = pytest.importorskip("scipy.special").ndtr
    # up to the erfc clamp at |x| = 8, where Cephes changes its approximation
    lower = np.linspace(-11.3, -1.0, 20_001)
    assert np.abs(ndtr(lower) / scipy_ndtr(lower) - 1.0).max() <= 2e-15
    assert np.abs((1.0 - ndtr(-lower)) - scipy_ndtr(lower)).max() <= 2.3e-16
    # past the erfc clamp at |x| = 8 the lower tail reads erfc(8)/2 < 6e-30
    far = np.linspace(-40.0, -8.0 * math.sqrt(2.0), 101)
    assert np.all(ndtr(far) < 6e-30) and np.all(ndtr(-far) == 1.0)


def _ndtr_regimes():
    """Arguments a in every regime of the normal CDF, x = a/sqrt 2: |x| < 1,
    [1, 8), past the clamp at 8, the boundary |x| = 1 and its neighbours,
    huge and infinite a, and signed zeros."""
    rng = np.random.default_rng(21)
    edge = math.sqrt(2.0)
    edges = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 4.0), 8.0 * edge]
    special = edges + [-e for e in edges] + [1e200, -1e200, np.inf, -np.inf, 0.0, -0.0]
    return np.concatenate([rng.uniform(-edge, edge, 3000), rng.uniform(edge, 8 * edge, 3000),
                           -rng.uniform(edge, 8 * edge, 3000), rng.uniform(-40.0, 40.0, 3000),
                           special])


def test_ndtr_bit_equals_two_branch_oracle():
    a = _ndtr_regimes()
    before = a.copy()
    with np.errstate(over="ignore"):
        got = ndtr(a)
    assert np.array_equal(a, before)  # the argument is not written
    assert np.array_equal(got, ndtr_two_branch(a))
    assert got[a == 0.0].tolist() == [0.5, 0.5]  # 0.0 and -0.0


def test_mixture_cdf_bit_equals_two_branch_oracle():
    # the spec of the benchmark's mixture workload: (1 + z)(2 + z), lambda = (1, sqrt 2)
    gap = gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
        polys=((1, 1), (2, 1)), lambdas=(1.0, math.sqrt(2.0)), exponent=2, mode="product"))
    spec = spectra.DensitySpec(mode="product", phis=gap.spec.to_phis(), quad_points=64)
    weights, sigmas, _ = spectra.mixture_components(spec)
    alpha = np.concatenate([np.sort(np.random.default_rng(7).normal(scale=1.5, size=600)),
                            [1e200, -1e200, np.inf, -np.inf, 0.0, -0.0]])
    want = spectra._mixture_sum(weights, sigmas, alpha, lambda z, sig: ndtr_two_branch(z))
    assert np.array_equal(mixture_cdf(spec, alpha), want)
    assert np.array_equal([mixture_cdf(spec, a) for a in alpha.tolist()], want)


def _workload_mixture_spec():
    # the benchmark's mixture workload: (1 + z)(2 + z), lambda = (1, sqrt 2)
    gap = gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
        polys=((1, 1), (2, 1)), lambdas=(1.0, math.sqrt(2.0)), exponent=2, mode="product"))
    return spectra.DensitySpec(mode="product", phis=gap.spec.to_phis(), quad_points=64)


def _two_poly_spec(mode, *polys):
    return spectra.DensitySpec(mode=mode, phis=tuple(spectra.phi_from_poly(p) for p in polys))


# spec -> (its builder, distinct sigmas among its components)
_MIXTURE_SPECS = {
    "workload": (_workload_mixture_spec, 1855),
    "product": (lambda: _two_poly_spec("product", [2, 1], [1, 0, 1j]), 2751),
    "sum": (lambda: _two_poly_spec("sum", [2, 1], [1, 0, 1j]), 2724),
    "one-factor": (lambda: _two_poly_spec("product", [1, 1j]), 64),
    "all-distinct": (lambda: _two_poly_spec("product", [1, 1j, 0.5], [2, 1j]), 4096),
}


def _distinct_sigmas(sigmas):
    """The distinct sigmas, ascending."""
    return np.unique(sigmas)


def _mixture_alphas(shape):
    edges = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e308, -1e308]
    rng = np.random.default_rng(33)
    alpha = np.concatenate([np.sort(rng.normal(scale=1.5, size=293)), edges])
    return {"1-d": alpha, "empty": np.array([]), "2-d": alpha.reshape(12, 25),
            "scalars": edges}[shape]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", ["1-d", "empty", "2-d", "scalars"])
@pytest.mark.parametrize("name", list(_MIXTURE_SPECS))
def test_mixture_cdf_and_density_bit_equal_the_per_component_oracle(name, shape):
    build, distinct = _MIXTURE_SPECS[name]
    spec = build()
    weights, sigmas, _ = spectra.mixture_components(spec)
    assert _distinct_sigmas(sigmas).size == distinct
    alpha = _mixture_alphas(shape)

    def cdf_kernel(z, sig):
        return ndtr_two_branch(z)

    def want(kernel, a):
        return mixture_sum_per_component(weights, sigmas, a, kernel)

    if shape == "scalars":
        for a in alpha:
            got = mixture_cdf(spec, a)
            assert type(got) is float and _same_bits(got, want(cdf_kernel, a)), a
            want_density = want(normal_density_over_sigma, a) / math.sqrt(2 * math.pi)
            assert _same_bits(spectra.density_eval(spec, a), want_density), a
        return
    assert _same_bits(mixture_cdf(spec, alpha), want(cdf_kernel, alpha))
    want_density = want(normal_density_over_sigma, alpha) / math.sqrt(2 * math.pi)
    assert _same_bits(spectra.density_eval(spec, alpha), want_density)


@pytest.mark.parametrize("name", ["workload", "all-distinct"])
def test_mixture_kernel_runs_once_per_distinct_sigma(name):
    # the workload's 4000 alpha: 4000 x 1855 = 7 420 000 (alpha, sigma) pairs,
    # not 4000 x 4096 = 16 384 000 as with one column per component
    build, distinct = _MIXTURE_SPECS[name]
    spec = build()
    weights, sigmas, _ = spectra.mixture_components(spec)
    columns = _distinct_sigmas(sigmas)
    alpha = np.sort(np.random.default_rng(0).normal(scale=1.5, size=4000))
    evaluated = []

    def kernel(z, sig):
        assert z.shape[1] == distinct and _same_bits(sig, columns)
        evaluated.append(z.size)
        return stats._normal_cdf(z, sig)

    got = spectra._mixture_sum(weights, sigmas, alpha, kernel)
    assert sum(evaluated) == 4000 * distinct
    assert _same_bits(got, mixture_cdf(spec, alpha))


def test_grid_memory_guard_counts_the_cdf_scratch(monkeypatch):
    # 300^2 nodes > _MIXTURE_BLOCK, so a block is one row of nodes and the
    # normal CDF's temporaries for it are as large as the grid's own arrays
    nodes = 300 ** 2
    assert nodes > spectra._MIXTURE_BLOCK

    def spec():
        return spectra.DensitySpec(mode="product", quad_points=300, phis=(
            spectra.phi_from_poly([2, 1]), spectra.phi_from_poly([1, 0, 1j])))

    tracemalloc.start()
    try:
        mixture_cdf(spec(), np.array([-3.0, 0.1, 2.0, 30.0]))
        peak = tracemalloc.get_traced_memory()[1]
        # the estimate covers the call; the grid and one block row alone do not
        assert nodes * 4 * 8 < peak <= nodes * spectra._GRID_BYTES_PER_NODE + (1 << 16)
        monkeypatch.setattr(spectra.arith, "_physical_memory", lambda: nodes * 4 * 8 + 1)
        tracemalloc.reset_peak()
        with pytest.raises(MemoryError, match="physical memory"):
            mixture_cdf(spec(), 0.1)
        assert tracemalloc.get_traced_memory()[1] < 100_000  # refused before the grid
    finally:
        tracemalloc.stop()


def test_grid_memory_guard_holds_with_all_but_one_sigma_distinct():
    # the estimate's worst case, with all sigmas distinct or all but one: the
    # distinct sigmas, their inverse index and their block row all exist
    # beside a block row of every node; the estimate covers the peak and is
    # within 2 B per node of it
    nodes = 90_000
    weights = np.full(nodes, 1.0 / nodes)
    alpha = np.array([-3.0, 0.1, 2.0, 30.0])
    for repeats in (0, 1):
        sigmas = np.linspace(0.5, 2.0, nodes)
        sigmas[nodes - repeats:] = sigmas[0]
        tracemalloc.start()
        try:
            got = spectra._mixture_sum(weights, sigmas, alpha, stats._normal_cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(got) > 0.0)
        used = peak + weights.nbytes + sigmas.nbytes
        assert nodes * (spectra._GRID_BYTES_PER_NODE - 2) < used, repeats
        assert used <= nodes * spectra._GRID_BYTES_PER_NODE + (1 << 16), repeats


def _two_factor_spec():
    return spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1, 1]),
                                                     spectra.phi_from_poly([2, 1])))


@pytest.mark.parametrize("n", [1, 17, 4000])
def test_mixture_cdf_array_equals_scalar_calls(n):
    # 4096 components: 16 alpha per block, so 4000 alpha span 250 blocks
    spec = _two_factor_spec()
    alpha = np.sort(np.random.default_rng(n).normal(scale=1.5, size=n))
    batch = mixture_cdf(spec, alpha)
    assert batch.shape == (n,)
    assert np.array_equal(batch, [mixture_cdf(spec, a) for a in alpha.tolist()])


def test_mixture_cdf_scalar_returns_float():
    spec = _two_factor_spec()
    for a in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(mixture_cdf(spec, a)) is float
    assert mixture_cdf(spec, np.array([[0.3]])).shape == (1, 1)


def test_huge_finite_alpha_is_the_clamped_limit():
    # no overflow warning (the suite makes RuntimeWarning an error): past the
    # erfc clamp the CDF is constant, and the density underflows to 0
    spec = _two_factor_spec()
    huge, far = ndtr(np.array([1e200, -1e200])), ndtr(np.array([40.0, -40.0]))
    assert huge.tolist() == far.tolist()
    for a in (1e200, -1e200):
        assert mixture_cdf(spec, a).hex() == mixture_cdf(spec, math.copysign(40.0, a)).hex()
        assert spectra.density_eval(spec, a) == 0.0


def test_normal_cdf_array_equals_scalar_calls():
    alpha = np.random.default_rng(5).normal(size=257)
    assert np.array_equal(normal_cdf(alpha), [normal_cdf(a) for a in alpha.tolist()])
    assert type(normal_cdf(0.3)) is float


def test_csv_and_json_determinism(tmp_path, r2_10k, inv_log):
    grid = SampleGrid(X=30.0, S=20, Q=64)
    vals = sample_errors(inv_log, grid, r2_10k, mode="exact")
    dist = EmpiricalDistribution.from_samples(vals, j_max=4)
    rows = [shell_sample(p, float(inv_log.value(p.value)), r2_10k) for p in grid.points]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    stats.write_samples_csv(out_a, rows)
    stats.write_samples_csv(out_b, rows)
    assert out_a.read_bytes() == out_b.read_bytes()
    stats.write_distribution_csv(tmp_path / "d.csv", dist)
    text = (tmp_path / "d.csv").read_text().splitlines()
    assert len(text) == 21 and text[0] == "normalized"


def test_distinguishing_experiment_logged(r2_10k):
    """Mixture prediction vs plain Gaussian for an oscillating gap width.

    Logged only: at this scale the ordering is expected but not enforced.
    """
    gap = gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
        polys=((1, 1),), lambdas=(1.0,), exponent=2, mode="product"))
    spec = spectra.DensitySpec(mode="product", phis=(spectra.phi_from_poly([1, 1]),))
    ks_mix = []
    ks_norm = []
    for phase in (0.25, 0.5, 0.75):
        grid = SampleGrid(X=2000.0, S=1500, Q=64, phase=phase)
        vals = sample_errors(gap, grid, r2_10k, mode="fast")
        dist = EmpiricalDistribution.from_samples(vals)
        ks_mix.append(ks_distance(dist, lambda a: mixture_cdf(spec, a)))
        ks_norm.append(ks_distance(dist, normal_cdf))
    print(f"\n[distinguishing] ks_mixture median {np.median(ks_mix):.4f} "
          f"vs ks_normal median {np.median(ks_norm):.4f} "
          f"(mixture smaller: {np.median(ks_mix) < np.median(ks_norm)})")
