"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line with the measured quantities (run pytest with -s or -rA to see
all of them).

Two checks are known to fail at desk scale and are kept failing on purpose;
their printed lines carry the measured values and the constants that would
hold.  See the README section on the verification suite.
"""

import itertools
import math
import time


import numpy as np
import pytest

from cygshell import arith, counting, gapwidth, spectra, stats, voronoi
from cygshell.counting import RadiusPoint
from oracles import diagonal_sum_direct_j2, grouped_pair_sum_j2, r2_squared_partial_sum_check

CRITERION_TIMEOUTS = {
    1: 30, 2: 120, 3: 600, 4: 600, 5: 10, 6: 10, 7: 1, 8: 120, 9: 30, 10: 30, 11: 10, 12: 40,
}


@pytest.fixture(scope="module")
def r2_big():
    # covers exact sampling up to X = 2000 (outer radii < 4001) and y = 10^6
    return arith.build_r2((2 * 2000 + 2) ** 2)


@pytest.fixture(scope="module")
def inv_log():
    return gapwidth.make_slowly_varying("inv_log")


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> bool:
    # elapsed is process CPU time (time.process_time), so another job sharing
    # the cores does not move it; threaded criteria count every thread's time
    state = "PASS" if ok else "FAIL"
    cap = CRITERION_TIMEOUTS[num]
    print(f"\nACCEPTANCE {num:2d} {name}: {state} ({detail}) [{elapsed:.1f}s CPU / cap {cap}s]")
    assert elapsed < cap, f"criterion {num} exceeded its runtime cap"
    return ok


def test_criterion_01_counting_oracle_equivalence(r2_big):
    t0 = time.process_time()
    mismatches = []
    for k in range(1, 201):
        p = RadiusPoint(k, 7)
        fast = counting.count_ball_fast(p, r2_big)
        brute = counting.count_ball_brute(p)
        if fast != brute:
            mismatches.append((k, fast, brute))
    ok = not mismatches
    assert _report(1, "counting oracle equivalence", ok,
                   f"200 radii k/7, mismatches={mismatches[:3]}", time.process_time() - t0)


def _expansion_residuals(X: float, r2, omega, S: int = 100) -> np.ndarray:
    grid = stats.SampleGrid(X=X, S=S, Q=64)
    rows = stats.sample_shells(omega, grid, r2, "exact", 1, sawtooth=True)
    return np.abs(np.array([s.normalized for s in rows]) - voronoi.expansion_rhs(rows, X, r2))


def test_criterion_02_expansion_envelope(r2_big, inv_log):
    """Known-failing: the truncated expansion's remainder at X = 100 sits
    near 8.0e-2 at the 95th percentile, an implied constant near 5 (5.04),
    not the 0.5 the envelope asks for."""
    t0 = time.process_time()
    X = 100.0
    res = _expansion_residuals(X, r2_big, inv_log)
    envelope = 0.5 * X ** -0.9
    frac = float(np.mean(res <= envelope))
    needed = float(np.quantile(res, 0.95) / X ** -0.9)
    ok = frac >= 0.95
    _report(2, "expansion envelope (0.5 X^-0.9, 95%)", ok,
            f"within-envelope fraction {frac:.2f}, q95 {np.quantile(res, 0.95):.3e}, "
            f"envelope {envelope:.3e}, constant needed {needed:.2f}",
            time.process_time() - t0)
    assert ok, (f"only {frac:.0%} of residuals within 0.5*X^-0.9; the measured "
                f"95th-percentile constant is {needed:.2f}")


def test_criterion_02_expansion_trend(r2_big, inv_log):
    t0 = time.process_time()
    med100 = float(np.median(_expansion_residuals(100.0, r2_big, inv_log)))
    med200 = float(np.median(_expansion_residuals(200.0, r2_big, inv_log)))
    ok = med200 <= med100
    assert _report(2, "expansion residual trend", ok,
                   f"median X=100: {med100:.3e}, X=200: {med200:.3e}",
                   time.process_time() - t0)


def test_criterion_03_variance_law(r2_big, inv_log):
    t0 = time.process_time()

    def ratio(X: float) -> float:
        grid = stats.SampleGrid(X=X, S=1000, Q=64)
        vals = [s.normalized for s in stats.sample_shells(inv_log, grid, r2_big, "exact", 2)]
        s2 = stats.variance_sigma2(vals)
        return s2 / (32.0 * stats.m_j(inv_log, X, 1000, 2))

    r2000 = ratio(2000.0)
    r500 = ratio(500.0)
    ok = 0.4 <= r2000 <= 2.5 and abs(r2000 - 1.0) < abs(r500 - 1.0)
    assert _report(3, "variance law sigma^2 / (32 M2)", ok,
                   f"ratio X=2000: {r2000:.3f}, X=500: {r500:.3f}",
                   time.process_time() - t0)


def _ks_median(X: float, r2, inv_log) -> float:
    out = []
    for phase in (0.25, 0.5, 0.75):
        grid = stats.SampleGrid(X=X, S=4000, Q=64, phase=phase)
        vals = [s.normalized for s in stats.sample_shells(inv_log, grid, r2, "fast", None)]
        dist = stats.EmpiricalDistribution.from_samples(vals)
        out.append(stats.ks_distance(dist, stats.normal_cdf))
    return float(np.median(out))


def test_criterion_04_ks_gaussian_level(r2_big, inv_log):
    t0 = time.process_time()
    ks = _ks_median(2000.0, r2_big, inv_log)
    ok = ks <= 0.15
    assert _report(4, "KS vs standard normal at X=2000", ok,
                   f"median over 3 grid phases: {ks:.4f}", time.process_time() - t0)


def test_criterion_04_ks_trend(r2_big, inv_log):
    """Known-failing by a hair: all three KS medians sit at the S = 4000
    Kolmogorov sampling floor (E[D | H0] ~ 0.86/sqrt(4000) = 0.0136), i.e.
    each empirical distribution is Gaussian to within the test's resolving
    power, and the ordering among the three is sampling noise.  The strict
    non-increase demanded here is a coin flip at this sample size, and this
    deterministic draw loses it on the last step."""
    t0 = time.process_time()
    meds = {X: _ks_median(X, r2_big, inv_log) for X in (500.0, 1000.0, 2000.0)}
    ok = meds[1000.0] <= meds[500.0] and meds[2000.0] <= meds[1000.0]
    _report(4, "KS trend across X in {500,1000,2000}", ok,
            "medians " + ", ".join(f"X={int(X)}: {v:.4f}" for X, v in meds.items())
            + "; all at the S=4000 noise floor ~0.0136",
            time.process_time() - t0)
    assert ok, (f"KS medians {meds} are each at the sampling noise floor; "
                f"their ordering is not resolvable at S=4000")


def test_criterion_05_exact_frequency_identity():
    t0 = time.process_time()
    polys = ([1], [1, 1], [1, 2, 1], [2, 1], [1, 0, 1], [1, 1, 0, 1], [1, 1j])
    checked = 0
    for pa in polys:
        phis_a = spectra.phi_from_poly(pa)
        for pb in [None] + list(polys[:5]):
            phis = (phis_a,) if pb is None else (phis_a, spectra.phi_from_poly(pb))
            spec = spectra.DensitySpec(mode="product", phis=phis)
            for j in (2, 4, 6):
                lhs = spectra.constrained_frequency_sum(spec, j)
                rhs = spectra.construction_moment(spec, j)
                assert lhs == rhs, (pa, pb, j)
                checked += 1
    phi = spectra.phi_from_poly([1, 1])
    binomials = [spectra.phi_moment(phi, j) for j in (1, 2, 3, 4)]
    ok = binomials == [2, 6, 20, 70]
    assert _report(5, "exact frequency identity", ok,
                   f"{checked} (spec, j) pairs exact; central binomials {binomials}",
                   time.process_time() - t0)


def test_criterion_06_density_consistency():
    t0 = time.process_time()
    product = spectra.DensitySpec(
        mode="product", phis=(spectra.phi_from_poly([1, 1]),), quad_points=8192)
    twosum = spectra.DensitySpec(
        mode="sum", phis=(spectra.phi_from_poly([1, 1]),) * 2, quad_points=256)
    details = []
    ok = True
    for name, spec in (("product", product), ("sum", twosum)):
        mass = spectra.density_moment(spec, 0)
        m2 = spectra.density_moment(spec, 2)
        m4 = spectra.density_moment(spec, 4)
        l4 = float(spectra.l_j(spec, 4))
        odd = max(abs(spectra.density_moment(spec, 1)),
                  abs(spectra.density_moment(spec, 3)))
        ok &= abs(mass - 1) <= 1e-6 and abs(m2 - 1) <= 1e-6
        ok &= abs(m4 - 3 * l4) <= 1e-4 and odd <= 1e-10
        details.append(f"{name}: mass err {abs(mass - 1):.1e}, m2 err {abs(m2 - 1):.1e}, "
                       f"m4 err {abs(m4 - 3 * l4):.1e}, odd {odd:.1e}")
    assert float(spectra.l_j(product, 4)) == pytest.approx(70 / 36)
    assert _report(6, "density internal consistency", bool(ok),
                   "; ".join(details), time.process_time() - t0)


def test_criterion_07_gaussian_moment_ladder():
    t0 = time.process_time()
    vals = [spectra.predicted_moment(None, j) for j in (2, 4, 6)]
    ok = vals == [1.0, 3.0, 15.0]
    assert _report(7, "Gaussian moment ladder", ok, f"j=2,4,6 -> {vals}",
                   time.process_time() - t0)


def test_criterion_08_diagonal_sum(r2_big, inv_log):
    t0 = time.process_time()
    X = 1000.0
    grouped = grouped_pair_sum_j2(inv_log, X, 50, r2_big, samples=1024)
    direct = diagonal_sum_direct_j2(inv_log, X, 50, r2_big, samples=1024)
    identity_ok = abs(grouped - direct) <= 1e-10 * abs(direct)
    diag = voronoi.diagonal_sum(inv_log, X, 200, r2_big, samples=2048)[0]
    m2 = stats.m_j(inv_log, X, 2048, 2)
    ratio = diag / (32.0 * m2)
    band_ok = 0.5 <= ratio <= 2.0
    ok = identity_ok and band_ok
    assert _report(8, "diagonal-sum diagnostic (j=2)", ok,
                   f"regrouping rel err {abs(grouped - direct) / abs(direct):.1e}, "
                   f"ratio to 32*M2: {ratio:.3f}", time.process_time() - t0)


def test_criterion_09_r2_squared_trend(r2_big):
    t0 = time.process_time()
    r4 = r2_squared_partial_sum_check(10 ** 4, r2_big)
    r6 = r2_squared_partial_sum_check(10 ** 6, r2_big)
    ok = abs(r6 - 1.0) < abs(r4 - 1.0)
    assert _report(9, "r2^2 partial-sum trend", ok,
                   f"ratio at 1e4: {r4:.4f}, at 1e6: {r6:.4f}", time.process_time() - t0)


def _zero_tuple_count(j: int, M: int) -> int:
    """Combinatorial oracle: the number of (signs, ms) tuples of length j with
    m_i <= M whose signed square roots cancel, via per-core generating
    polynomials in the signed k-sum."""
    kmax_by_core: dict[int, int] = {}
    for m in range(1, M + 1):
        core, k = arith.squarefree_core(m)
        kmax_by_core[core] = max(kmax_by_core.get(core, 0), k)

    def z_count(kmax: int, t: int) -> int:
        # [z^0] of (sum_{k<=kmax} z^k + z^-k)^t
        poly = np.zeros(2 * kmax + 1, dtype=np.int64)
        poly[:kmax] = 1
        poly[kmax + 1:] = 1
        acc = poly
        for _ in range(t - 1):
            acc = np.convolve(acc, poly)
        return int(acc[(len(acc) - 1) // 2])

    cores = sorted(kmax_by_core)
    if j == 2:
        return sum(z_count(kmax_by_core[c], 2) for c in cores)
    if j == 3:
        return sum(z_count(kmax_by_core[c], 3) for c in cores)
    if j == 4:
        z2 = [z_count(kmax_by_core[c], 2) for c in cores]
        z4 = sum(z_count(kmax_by_core[c], 4) for c in cores)
        s2 = sum(z2)
        s22 = sum(v * v for v in z2)
        return z4 + 6 * (s2 * s2 - s22) // 2
    return 0


def test_criterion_10_zero_relation_exactness():
    """Exhaustive j <= 4, m_i <= 50.  float64 classifies |sum| < 1e-9 as zero
    and |sum| >= 1e-3 as nonzero; the band in between (the smallest genuine
    nonzero magnitude here is 1.4e-5, at sqrt13 + sqrt30 - 3 - sqrt37) is
    adjudicated by 60-digit evaluation.  A combinatorial count of the zero
    tuples confirms nothing was missed."""
    import mpmath

    t0 = time.process_time()
    M = 50
    roots = np.sqrt(np.arange(M + 1, dtype=np.float64))
    mpmath.mp.dps = 60
    mp_roots = [mpmath.sqrt(m) for m in range(M + 1)]
    total_zero_float = 0
    checked_zero = 0
    checked_band = 0
    checked_nonzero = 0
    for j in (1, 2, 3, 4):
        expected_zero = _zero_tuple_count(j, M)
        found = 0
        for signs in itertools.product((1.0, -1.0), repeat=j):
            acc = np.zeros((M,) * j)
            for axis, e in enumerate(signs):
                shape = [1] * j
                shape[axis] = M
                acc = acc + e * roots[1:].reshape(shape)
            mags = np.abs(acc)
            es = [int(e) for e in signs]
            zero_idx = np.argwhere(mags < 1e-9)
            found += len(zero_idx)
            for idx in zero_idx:
                ms = [int(v) + 1 for v in idx]
                assert voronoi.sum_sqrt_is_zero(es, ms), (es, ms)
                checked_zero += 1
            for idx in np.argwhere((mags >= 1e-9) & (mags < 1e-3)):
                ms = [int(v) + 1 for v in idx]
                high = abs(mpmath.fsum(e * mp_roots[m] for e, m in zip(es, ms)))
                assert high > mpmath.mpf("1e-50"), (es, ms)
                assert not voronoi.sum_sqrt_is_zero(es, ms), (es, ms)
                checked_band += 1
            nonzero_idx = np.argwhere(mags >= 1e-3)
            for idx in nonzero_idx[::max(1, len(nonzero_idx) // 500)]:
                ms = [int(v) + 1 for v in idx]
                assert not voronoi.sum_sqrt_is_zero(es, ms), (es, ms)
                checked_nonzero += 1
        assert found == expected_zero, (j, found, expected_zero)
        total_zero_float += found
    ok = True
    assert _report(10, "zero-relation exactness", ok,
                   f"{total_zero_float} zero tuples matched the combinatorial "
                   f"count; {checked_zero} exact-positive, {checked_band} "
                   f"band (high-precision) and {checked_nonzero} sampled "
                   f"negative checks", time.process_time() - t0)


def test_criterion_11_finite_x_moments_from_diagonal_sums(r2_big, inv_log):
    """The sampled variance ratio sigma^2/(32 M2) and fourth moment m4 at
    X = 500 (criterion 3's exact grid) against the truncated diagonal sums
    at Y = 6400: d2/(32 M2) and d4/d2^2.  The standard errors come from the
    sample's own moments, treating the S errors as independent: sigma^2 has
    relative error sqrt((m4 - 1)/S) and m4 error sqrt((m8 - m4^2)/S).  The
    ratio's band must exclude 1, so it tells the finite-X law from the
    limiting one."""
    t0 = time.process_time()
    X, S, Y = 500.0, 1000, 6400
    m2 = stats.m_j(inv_log, X, S, 2)
    d2, d4 = voronoi.diagonal_sum(inv_log, X, Y, r2_big, samples=S)
    pred_ratio, pred_m4 = d2 / (32.0 * m2), d4 / (d2 * d2)
    rows = stats.sample_shells(inv_log, stats.SampleGrid(X=X, S=S, Q=64), r2_big, "exact", 2)
    dist = stats.EmpiricalDistribution.from_samples([s.normalized for s in rows])
    m4, m8 = dist.moments[4], dist.moments[8]
    ratio = dist.sigma ** 2 / (32.0 * m2)
    se_ratio = ratio * math.sqrt((m4 - 1.0) / S)
    se_m4 = math.sqrt((m8 - m4 * m4) / S)
    ok = (abs(ratio - pred_ratio) <= 3.0 * se_ratio and abs(m4 - pred_m4) <= 3.0 * se_m4
          and abs(ratio - 1.0) > 3.0 * se_ratio)
    assert _report(11, "finite-X variance ratio and m4 from diagonal sums", ok,
                   f"X=500: predicted d2/(32 M2) {pred_ratio:.3f} vs sampled "
                   f"sigma^2/(32 M2) {ratio:.3f} +- {se_ratio:.3f}; predicted d4/d2^2 "
                   f"{pred_m4:.3f} vs sampled m4 {m4:.3f} +- {se_m4:.3f}",
                   time.process_time() - t0)


def test_criterion_12_finite_x_law_for_every_gap_width(r2_big):
    """Criterion 11's three conditions on the other four X = 500 rows:
    exp_neg_sqrt_log, inv_loglog, and the product and sum constructions on
    (1 + z) and (2 + z) with lambda = (1, sqrt 2) and A = 2 (exact, S = 1000,
    Q = 64, phase 0.5, Y = 6400).  Caveat, printed: the product's grid has
    zero-gap rows, where the snapped shell is empty while diagonal_sum takes
    the unsnapped omega; they stay in the sample."""
    t0 = time.process_time()
    X, S, Y = 500.0, 1000, 6400
    construction = {"polys": [[[1, 0], [1, 0]], [[2, 0], [1, 0]]],
                    "lambdas": [1.0, math.sqrt(2.0)], "A": 2}
    grid = stats.SampleGrid(X=X, S=S, Q=64, phase=0.5)
    ok, zero_rows = True, {}
    for kind in ("exp_neg_sqrt_log", "inv_loglog", "product", "sum"):
        omega = gapwidth.gap_from_json({"kind": kind, **construction})
        m2 = stats.m_j(omega, X, S, 2)
        d2, d4 = voronoi.diagonal_sum(omega, X, Y, r2_big, samples=S)
        pred_ratio, pred_m4 = d2 / (32.0 * m2), d4 / (d2 * d2)
        rows = stats.sample_shells(omega, grid, r2_big, "exact", 2)
        dist = stats.EmpiricalDistribution.from_samples([s.normalized for s in rows])
        m4, m8 = dist.moments[4], dist.moments[8]
        ratio = dist.sigma ** 2 / (32.0 * m2)
        se_ratio = ratio * math.sqrt((m4 - 1.0) / S)
        se_m4 = math.sqrt((m8 - m4 * m4) / S)
        row_ok = (abs(ratio - pred_ratio) <= 3.0 * se_ratio and abs(m4 - pred_m4) <= 3.0 * se_m4
                  and abs(ratio - 1.0) > 3.0 * se_ratio)
        ok &= row_ok
        zero_rows[kind] = sum(s.omega_x == 0.0 for s in rows)
        print(f"\n  {kind} X=500: {'PASS' if row_ok else 'FAIL'}: predicted d2/(32 M2) "
              f"{pred_ratio:.3f} vs sampled sigma^2/(32 M2) {ratio:.3f} +- {se_ratio:.3f}; "
              f"predicted d4/d2^2 {pred_m4:.3f} vs sampled m4 {m4:.3f} +- {se_m4:.3f}; "
              f"{zero_rows[kind]} zero-gap rows")
    print(f"\n  caveat: {zero_rows['product']} of the product's {S} rows realise a zero gap "
          f"(an empty snapped shell) while diagonal_sum takes the unsnapped omega; the rows "
          f"above include them")
    assert _report(12, "finite-X variance ratio and m4 for four more gap widths", ok,
                   "exp_neg_sqrt_log, inv_loglog, product, sum at X=500, Y=6400",
                   time.process_time() - t0)
