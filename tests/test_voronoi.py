import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from cygshell import arith, counting, stats, voronoi
from cygshell.counting import RadiusPoint
from cygshell.gapwidth import GapWidth
from cygshell.voronoi import diagonal_sum, expansion_rhs, series_with_gap, sum_sqrt_is_zero
from oracles import (diagonal_sum_convolve_j4, diagonal_sum_direct_j2, grouped_pair_sum_j2,
                     r2_squared_partial_sum_check, series_with_gap_fsum)


def one_point(x, gap, r2, cutoff, threads=1):
    """series_with_gap at one point, as a one-point batch."""
    return series_with_gap(np.array([x]), np.array([gap]), r2, cutoff, threads)[0]


def test_series_empty_and_degenerate(r2_10k):
    assert one_point(150.0, 1.0 / math.log(150.0), r2_10k, 0) == 0.0
    assert one_point(150.0, 0.0, r2_10k, 5000) == 0.0
    xs = np.array([150.0, 151.5, 152.25])
    gaps = np.array([0.0, 0.2, 0.0])
    assert np.array_equal(series_with_gap(xs, gaps + 0.1, r2_10k, 0), np.zeros(3))
    batch = series_with_gap(xs, gaps, r2_10k, 5000)
    assert batch[0] == 0.0 and batch[2] == 0.0 and batch[1] != 0.0


def test_series_block_contract(r2_10k):
    # every call returns an array, one float64 per point, none for no points
    one = series_with_gap(np.array([150.0]), np.array([0.2]), r2_10k, 5000)
    assert isinstance(one, np.ndarray) and one.shape == (1,) and one.dtype == np.float64
    empty = series_with_gap(np.empty(0), np.empty(0), r2_10k, 5000)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("x, gap, shapes", [
    (np.array([150.0, 160.0, 170.0]), np.array([0.2]), "(3,) and (1,)"),
    (150.0, np.array([0.2, 0.3]), "() and (2,)"),
    (np.full((2, 2), 150.0), np.full((2, 2), 0.2), "(2, 2) and (2, 2)"),
    (150.0, 0.2, "() and ()"),
], ids=["lengths", "scalar-x", "2-D", "scalars"])
def test_series_rejects_unequal_shapes(r2_10k, x, gap, shapes):
    # no broadcasting: every point needs its own gap, and a block is 1-D,
    # even for one point
    with pytest.raises(ValueError, match=re.escape(shapes)):
        series_with_gap(x, gap, r2_10k, 5000)


@pytest.mark.parametrize("spec", ["inv_log", "product_gap"])
@pytest.mark.parametrize("cutoff", [10_000, 90_000])
def test_series_batch_bit_equals_fsum_oracle(request, r2_200k, spec, cutoff):
    # grids one short of, at and one past two full blocks, at the fast cutoff
    # 10^4 and at expand's X^2 (X = 300); each point must match the list fsum
    omega = request.getfixturevalue(spec)
    rows = voronoi._SERIES_BLOCK // r2_200k.nonzero_count_upto(cutoff)
    grid = stats.SampleGrid(X=300.0, S=2 * rows + 10, Q=64, phase=0.3)
    for size in (2 * rows - 1, 2 * rows, 2 * rows + 1):
        xs = [p.value for p in grid.points[:size]]
        gaps = [float(omega.value(x)) for x in xs]
        got = series_with_gap(np.array(xs), np.array(gaps), r2_200k, cutoff)
        assert got.shape == (size,)
        want = [series_with_gap_fsum(x, g, r2_200k, cutoff).hex() for x, g in zip(xs, gaps)]
        assert [v.hex() for v in got.tolist()] == want, (spec, cutoff, size)


@pytest.mark.parametrize("cutoff", [10_000, 90_000])
def test_series_threads_change_no_bit(r2_200k, product_gap, cutoff):
    # blocks of about 23 rows at 10^4 and 3 at 90 000: a partial last block,
    # one row, and fewer rows than threads, each on 1, 2 and 3 threads
    rows = voronoi._SERIES_BLOCK // r2_200k.nonzero_count_upto(cutoff)
    grid = stats.SampleGrid(X=300.0, S=2 * rows + 5, Q=64, phase=0.7)
    xs = np.array([p.value for p in grid.points])
    gaps = np.array([float(product_gap.value(x)) for x in xs])
    for size in (2 * rows + 5, 2, 1):
        got = {t: [v.hex() for v in series_with_gap(xs[:size], gaps[:size], r2_200k,
                                                    cutoff, t).tolist()]
               for t in (1, 2, 3)}
        assert got[2] == got[1] and got[3] == got[1], (cutoff, size)
    assert one_point(xs[0], gaps[0], r2_200k, cutoff, 3).hex() == got[1][0]
    with pytest.raises(ValueError, match="threads"):
        series_with_gap(xs, gaps, r2_200k, cutoff, 0)


@pytest.mark.parametrize("cutoff", [0, 10_000])
def test_series_threads_keep_zero_gaps_and_empty_cutoffs(r2_200k, product_gap, cutoff):
    # each thread rounds its own rows: two full blocks and a partial one of
    # 2 rows (at cutoff 0, no terms at all, one block of 11 rows), with
    # zero-gap points at the first row and inside the second block, on 1, 2
    # and 3 threads; every point must equal the list fsum, sign of zero included
    n = r2_200k.nonzero_count_upto(cutoff)
    size = 2 * (voronoi._SERIES_BLOCK // n) + 2 if n else 11
    grid = stats.SampleGrid(X=300.0, S=size, Q=64, phase=0.45)
    xs = np.array([p.value for p in grid.points])
    gaps = np.asarray(product_gap.value(xs), dtype=np.float64)
    gaps[[0, size // 2 + 1]] = 0.0
    want = [series_with_gap_fsum(x, g, r2_200k, cutoff).hex() for x, g in zip(xs, gaps)]
    for threads in (1, 2, 3):
        got = series_with_gap(xs, gaps, r2_200k, cutoff, threads)
        assert [v.hex() for v in got.tolist()] == want, threads



def test_series_threads_share_one_block_of_memory(r2_200k, product_gap):
    # nine blocks at cutoff 10^4: each of k threads takes buffers of
    # _SERIES_BLOCK // k pairs, so the traced peak stays at the 1-thread one
    # (about 1.06 MiB) rather than growing by a full block per thread
    grid = stats.SampleGrid(X=300.0, S=200, Q=64, phase=0.5)
    xs = grid.xs
    gaps = np.asarray(product_gap.value(xs), dtype=np.float64)
    peaks = {}
    for threads in (1, 2, 3):
        tracemalloc.start()
        try:
            series_with_gap(xs, gaps, r2_200k, 10_000, threads)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.25 * peaks[1] and peaks[3] <= 1.25 * peaks[1], peaks

def test_series_window_and_cutoff_guards(r2_10k, inv_log):
    gap = float(inv_log.value(350.0))
    outside = counting.ShellSample(x=350.0, omega_x=gap, n_inner=None, n_outer=None,
                                   shell_count=None, error=0.0, normalized=0.0, sawtooth=0.0)
    with pytest.raises(ValueError, match="dyadic window"):
        expansion_rhs([outside], 100.0, r2_10k)
    with pytest.raises(ValueError, match="cutoff 20000 exceeds"):
        one_point(150.0, 1.0 / math.log(150.0), r2_10k, 20_000)


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
    assert abs(one_point(x, gap, r2_10k, cutoff) - total) < 1e-12


def test_series_matches_list_fsum_oracle(r2_200k, inv_log):
    # a 200-point fast-mode grid at the fast cutoff 10^4 and at expand's X^2
    X = 200.0
    grid = stats.SampleGrid(X=X, S=200, Q=64)
    for p in grid.points:
        gap = float(inv_log.value(p.value))
        for cutoff in (10_000, int(X * X)):
            got = one_point(p.value, gap, r2_200k, cutoff)
            assert got.hex() == series_with_gap_fsum(p.value, gap, r2_200k, cutoff).hex(), p


def test_sum_sqrt_fixtures():
    assert sum_sqrt_is_zero([1, -1], [2, 2])
    assert sum_sqrt_is_zero([1, 1, -1], [2, 8, 18])
    assert not sum_sqrt_is_zero([1, -1], [2, 3])
    with pytest.raises(ValueError):
        sum_sqrt_is_zero([1, 2], [2, 3])
    with pytest.raises(ValueError):
        sum_sqrt_is_zero([1, -1], [2, 0])
    with pytest.raises(ValueError, match="equal length"):
        sum_sqrt_is_zero([1], [2, 3])


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
    val = diagonal_sum(inv_log, 1000.0, 120, r2_10k, samples=181)[0]
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
    got = diagonal_sum(inv_log, 500.0, 8, r2_10k, samples=9)[1]
    want = brute_diagonal(inv_log, 500.0, 4, 8, r2_10k, samples=9)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_diagonal_j4_matches_brute_wider(r2_10k, inv_log):
    got = diagonal_sum(inv_log, 300.0, 12, r2_10k, samples=5)[1]
    want = brute_diagonal(inv_log, 300.0, 4, 12, r2_10k, samples=5)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_diagonal_j4_matches_convolution(r2_10k, inv_log):
    # every core up to Y = 400 (kmax = 20 at core 1); with one circle node fewer per
    # core the sum moves by 1.3e-6 relative
    got = diagonal_sum(inv_log, 1000.0, 400, r2_10k, samples=256)[1]
    want = diagonal_sum_convolve_j4(inv_log, 1000.0, 400, r2_10k, samples=256)
    assert abs(got - want) <= 1e-10 * abs(want)
    # past the old Y = 400 cap: kmax = 80 at core 1
    got = diagonal_sum(inv_log, 1000.0, 6400, r2_10k, samples=16)[1]
    want = diagonal_sum_convolve_j4(inv_log, 1000.0, 6400, r2_10k, samples=16)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_diagonal_guards(r2_10k, inv_log):
    with pytest.raises(ValueError, match="r2 table limit"):
        diagonal_sum(inv_log, 500.0, 10_001, r2_10k)


def test_diagonal_zero_gap(r2_10k, zero_gap):
    # omega = 0 is outside E(x; omega)'s domain, as for every other grid
    # consumer: criterion 11's M2 = mean((omega log omega)^2) is not defined there
    with pytest.raises(ValueError, match=r"omega\(x\) = 0\.0 must be positive"):
        diagonal_sum(zero_gap, 500.0, 50, r2_10k, samples=33)


@pytest.mark.parametrize("bad", ["nan", "negative"])
def test_diagonal_rejects_nan_and_negative_gap_widths(r2_10k, inv_log, bad):
    # sin is odd, so without the check -1/log x would read as the d2, d4 of 1/log x
    def jet(L, order):
        h = inv_log.jet(L, order)[0]
        return [np.full_like(h, math.nan) if bad == "nan" else -h]

    with pytest.raises(ValueError, match=r"omega\(x\) = (nan|-0\.\d+) must be positive"):
        diagonal_sum(GapWidth(name=bad, jet=jet), 500.0, 50, r2_10k, samples=33)


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
        a = one_point(float(x), gap, r2_200k, Y)
        b = one_point(float(x), gap, r2_200k, 4 * Y)
        sq_diff.append((a - b) ** 2)
    rms = math.sqrt(float(np.mean(sq_diff)))
    assert rms <= 5.0 * Y ** (-1 / 8)


def test_expansion_rhs_consistency(r2_200k, inv_log):
    # residual against the exact normalized error is small at X = 100 scale
    X = 100.0
    resid = []
    for k in (6433, 6561, 7041, 7717, 8539, 9215, 10881, 12223):
        p = RadiusPoint(k, 64)
        s = counting.shell_sample(p, float(inv_log.value(p.value)), r2_200k, sawtooth=True)
        rhs = expansion_rhs([s], X, r2_200k)[0]
        resid.append(abs(s.normalized - rhs))
    assert np.median(resid) < 0.05
    assert max(resid) < 0.2


def test_expansion_residual_falls_with_the_series_cutoff(r2_200k, inv_log):
    # criterion 2's grid (X = 100, S = 100): the q95 residual is mostly the
    # series tail past X^2 (q95 / X^-0.9 reads 5.04 at X^2, 1.66 at 16 X^2)
    X = 100.0
    rows = stats.sample_shells(inv_log, stats.SampleGrid(X=X, S=100, Q=64), r2_200k,
                               "exact", 1, sawtooth=True)
    default = [abs(s.normalized - expansion_rhs([s], X, r2_200k)[0]) for s in rows]
    wide = [abs(s.normalized - (one_point(s.x, s.omega_x, r2_200k, 16 * int(X * X))
                                 - 2.0 / (s.x * s.x) * s.sawtooth)) for s in rows]
    assert np.quantile(wide, 0.95) < np.quantile(default, 0.95)


@pytest.mark.parametrize("spec, X, S, tail", [("product_gap", 60.0, 200, 17),
                                              ("inv_log", 100.0, 51, 5)],
                         ids=["product-X60", "inv-log-X100"])
def test_expansion_rhs_batch_equals_one_sample_calls(request, r2_200k, spec, X, S, tail):
    # the golden product grid (two zero-gap rows; three 61-row blocks and a
    # partial one of 17) and a grid of two 23-row blocks and a partial one
    # of 5 at cutoff 10^4; every value must equal its one-sample batch
    rows = stats.sample_shells(request.getfixturevalue(spec), stats.SampleGrid(X=X, S=S, Q=64),
                               r2_200k, "exact", 1, sawtooth=True)
    per_row = voronoi._SERIES_BLOCK // r2_200k.nonzero_count_upto(int(X * X))
    assert S % per_row == tail
    if spec == "product_gap":
        assert sum(s.omega_x == 0.0 for s in rows) == 2
    want = [expansion_rhs([s], X, r2_200k)[0].hex() for s in rows]
    for threads in (1, 2, 3):
        got = expansion_rhs(rows, X, r2_200k, threads)
        assert isinstance(got, np.ndarray) and got.shape == (S,)
        assert [v.hex() for v in got.tolist()] == want, threads


def test_expansion_rhs_of_no_samples(r2_10k):
    got = expansion_rhs([], 100.0, r2_10k)
    assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == np.float64


@pytest.mark.parametrize("bad", ["window", "sawtooth"])
def test_expansion_rhs_checks_every_sample_first(r2_200k, inv_log, monkeypatch, bad):
    # one bad sample after good ones: the error comes before any series work
    good = [counting.shell_sample(RadiusPoint(k, 64), float(inv_log.value(k / 64)), r2_200k,
                                  sawtooth=True) for k in (6433, 7041)]
    k = 12_900 if bad == "window" else 7717  # x = 201.6 lies outside (100, 200)
    last = counting.shell_sample(RadiusPoint(k, 64), float(inv_log.value(k / 64)), r2_200k,
                                 sawtooth=bad == "window")
    calls = []
    monkeypatch.setattr(voronoi, "series_with_gap", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="dyadic window" if bad == "window" else "sawtooth=True"):
        expansion_rhs(good + [last], 100.0, r2_200k)
    assert calls == []


def test_expansion_rhs_window_guard(r2_10k, inv_log):
    s = counting.shell_sample(RadiusPoint(50, 1), float(inv_log.value(50.0)), r2_10k, sawtooth=True)
    with pytest.raises(ValueError):
        expansion_rhs([s], 100.0, r2_10k)


def test_expansion_rhs_needs_the_sawtooth(r2_200k, inv_log):
    # a count-only sample inside the window: the cause is named, not a TypeError on None
    s = counting.shell_sample(RadiusPoint(6433, 64), float(inv_log.value(6433 / 64)), r2_200k)
    with pytest.raises(ValueError, match="sawtooth=True"):
        expansion_rhs([s], 100.0, r2_200k)
