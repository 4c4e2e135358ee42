import itertools
import math

import numpy as np
import pytest

from cygshell import arith, counting, stats, voronoi
from cygshell.counting import RadiusPoint
from cygshell.voronoi import (diagonal_sum, expansion_rhs, r2_squared_partial_sum_check,
                              series_with_gap, sum_sqrt_is_zero)
from oracles import (diagonal_sum_convolve_j4, diagonal_sum_direct_j2, grouped_pair_sum_j2,
                     series_with_gap_fsum)


def test_series_empty_and_degenerate(r2_10k):
    assert series_with_gap(150.0, 1.0 / math.log(150.0), r2_10k, 0) == 0.0
    assert series_with_gap(150.0, 0.0, r2_10k, 5000) == 0.0


def test_series_window_and_cutoff_guards(r2_10k, inv_log):
    gap = float(inv_log.value(350.0))
    outside = counting.ShellSample(x=350.0, omega_x=gap, n_inner=None, n_outer=None,
                                   shell_count=None, error=0.0, normalized=0.0, sawtooth=0.0)
    with pytest.raises(ValueError):
        expansion_rhs(outside, 100.0, r2_10k)
    with pytest.raises(ValueError):
        series_with_gap(150.0, 1.0 / math.log(150.0), r2_10k, 20_000)


def test_series_matches_direct_sum(r2_10k):
    # independent slow path with Fraction-free arithmetic
    x, gap, cutoff = 141.515625, 0.19, 300
    total = 0.0
    for m in range(1, cutoff + 1):
        r = int(r2_10k.values[m])
        if r:
            total += (r / m) * math.sin(math.pi * math.sqrt(m) * gap) \
                     * math.sin(math.pi * math.sqrt(m) * (2 * x + gap))
    total *= 2 ** 1.5 / math.pi
    assert abs(series_with_gap(x, gap, r2_10k, cutoff) - total) < 1e-12


def test_series_matches_list_fsum_oracle(r2_200k, inv_log):
    # a 200-point fast-mode grid at the fast cutoff 10^4 and at expand's X^2
    X = 200.0
    grid = stats.SampleGrid(X=X, S=200, Q=64)
    for p in grid.points:
        gap = float(inv_log.value(p.value))
        for cutoff in (10_000, int(X * X)):
            got = series_with_gap(p.value, gap, r2_200k, cutoff)
            assert got.hex() == series_with_gap_fsum(p.value, gap, r2_200k, cutoff).hex(), p


def test_sum_sqrt_fixtures():
    assert sum_sqrt_is_zero([1, -1], [2, 2])
    assert sum_sqrt_is_zero([1, 1, -1], [2, 8, 18])
    assert not sum_sqrt_is_zero([1, -1], [2, 3])
    with pytest.raises(ValueError):
        sum_sqrt_is_zero([1, 2], [2, 3])
    with pytest.raises(ValueError):
        sum_sqrt_is_zero([1, -1], [2, 0])


def test_sum_sqrt_small_exhaustive_vs_float():
    roots = {m: math.sqrt(m) for m in range(1, 31)}
    for j in (1, 2, 3):
        for ms in itertools.product(range(1, 31), repeat=j):
            for es in itertools.product((1, -1), repeat=j):
                s = sum(e * roots[m] for e, m in zip(es, ms))
                exact = sum_sqrt_is_zero(es, ms)
                assert exact == (abs(s) < 1e-9), (es, ms)
                if not exact:
                    assert abs(s) > 1e-4


def test_regrouping_identity_y50(r2_10k, inv_log):
    lhs = grouped_pair_sum_j2(inv_log, 1000.0, 50, r2_10k, samples=257)
    rhs = diagonal_sum_direct_j2(inv_log, 1000.0, 50, r2_10k, samples=257)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_diagonal_j2_matches_direct_form(r2_10k, inv_log):
    val = diagonal_sum(inv_log, 1000.0, 2, 120, r2_10k, samples=181)
    direct = diagonal_sum_direct_j2(inv_log, 1000.0, 120, r2_10k, samples=181)
    expected = -(math.sqrt(2) / math.pi) ** 2 * direct
    assert abs(val - expected) <= 1e-10 * abs(expected)


def brute_diagonal(omega, X, j, Y, r2, samples):
    """Literal tuple enumeration of the zero-relation sums (tiny Y only)."""
    xs = X * (1.0 + (np.arange(samples) + 0.5) / samples)
    om = np.asarray(omega.value(xs))
    ms = [m for m in range(1, Y + 1) if r2.values[m] > 0]
    acc = np.zeros(samples)
    for tup in itertools.product(ms, repeat=j):
        weights = 1.0
        for m in tup:
            weights *= r2.values[m] / m
        sines = [np.sin(math.pi * math.sqrt(m) * om) for m in tup]
        prod_sines = np.ones(samples)
        for s in sines:
            prod_sines = prod_sines * s
        for es in itertools.product((1, -1), repeat=j):
            if sum_sqrt_is_zero(es, tup):
                acc = acc + math.prod(es) * weights * prod_sines
    sign = -1.0 if (j // 2) % 2 else 1.0
    return sign * (math.sqrt(2) / math.pi) ** j * float(np.mean(acc))


def test_diagonal_j4_matches_brute(r2_10k, inv_log):
    got = diagonal_sum(inv_log, 500.0, 4, 8, r2_10k, samples=9)
    want = brute_diagonal(inv_log, 500.0, 4, 8, r2_10k, samples=9)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_diagonal_j4_matches_brute_wider(r2_10k, inv_log):
    got = diagonal_sum(inv_log, 300.0, 4, 12, r2_10k, samples=5)
    want = brute_diagonal(inv_log, 300.0, 4, 12, r2_10k, samples=5)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_diagonal_j4_matches_convolution(r2_10k, inv_log):
    # every core up to Y = 400 (kmax = 20 at core 1); with one circle node fewer per
    # core the sum moves by 1.3e-6 relative
    got = diagonal_sum(inv_log, 1000.0, 4, 400, r2_10k, samples=256)
    want = diagonal_sum_convolve_j4(inv_log, 1000.0, 400, r2_10k, samples=256)
    assert abs(got - want) <= 1e-10 * abs(want)
    # past the old Y = 400 cap: kmax = 80 at core 1
    got = diagonal_sum(inv_log, 1000.0, 4, 6400, r2_10k, samples=16)
    want = diagonal_sum_convolve_j4(inv_log, 1000.0, 6400, r2_10k, samples=16)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_diagonal_guards(r2_10k, inv_log):
    with pytest.raises(ValueError):
        diagonal_sum(inv_log, 500.0, 6, 50, r2_10k)
    with pytest.raises(ValueError, match="r2 table limit"):
        diagonal_sum(inv_log, 500.0, 2, 10_001, r2_10k)


def test_diagonal_zero_gap(r2_10k, zero_gap):
    assert diagonal_sum(zero_gap, 500.0, 2, 50, r2_10k, samples=33) == 0.0


def test_r2_squared_fixture(r2_10k):
    n10 = sum(int(v) ** 2 for v in r2_10k.values[1:11])
    assert n10 == 208
    ratio = r2_squared_partial_sum_check(10, r2_10k)
    assert abs(ratio - 208 / (40 * math.log(10))) < 1e-12


def test_r2_squared_sum_does_not_wrap():
    # the uint16 counts square past 2^16 in their sum; the check must not wrap
    table = arith.build_r2(10 ** 6)
    for y in (10 ** 4, 10 ** 6):
        exact = sum(v * v for v in table.values[1:y + 1].tolist())
        assert exact > 2 ** 16
        assert r2_squared_partial_sum_check(y, table) == exact / (4.0 * y * math.log(y))


def test_r2_squared_trend_small(r2_10k):
    r1 = r2_squared_partial_sum_check(1000, r2_10k)
    r2v = r2_squared_partial_sum_check(10_000, r2_10k)
    assert r1 > 0 and r2v > 0
    assert abs(r2v - 1) < abs(r1 - 1)


def test_series_tail_law(r2_200k, inv_log):
    X, Y, S = 200.0, 2500, 64
    xs = X * (1.0 + (np.arange(S) + 0.5) / S)
    sq_diff = []
    for x in xs:
        gap = 1.0 / math.log(x)
        a = series_with_gap(float(x), gap, r2_200k, Y)
        b = series_with_gap(float(x), gap, r2_200k, 4 * Y)
        sq_diff.append((a - b) ** 2)
    rms = math.sqrt(float(np.mean(sq_diff)))
    assert rms <= 5.0 * Y ** (-1 / 8)


def test_expansion_rhs_consistency(r2_200k, inv_log):
    # residual against the exact normalized error is small at X = 100 scale
    X = 100.0
    resid = []
    for k in (6433, 6561, 7041, 7717, 8539, 9215, 10881, 12223):
        p = RadiusPoint(k, 64)
        s = counting.shell_sample(p, inv_log, r2_200k, sawtooth=True)
        rhs = expansion_rhs(s, X, r2_200k)
        resid.append(abs(s.normalized - rhs))
    assert np.median(resid) < 0.05
    assert max(resid) < 0.2


def test_expansion_rhs_window_guard(r2_10k, inv_log):
    with pytest.raises(ValueError):
        expansion_rhs(counting.shell_sample(RadiusPoint(50, 1), inv_log, r2_10k, sawtooth=True),
                      100.0, r2_10k)


def test_expansion_rhs_needs_the_sawtooth(r2_200k, inv_log):
    # a count-only sample inside the window: the cause is named, not a TypeError on None
    s = counting.shell_sample(RadiusPoint(6433, 64), inv_log, r2_200k)
    with pytest.raises(ValueError, match="sawtooth=True"):
        expansion_rhs(s, 100.0, r2_200k)
