import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cygshell import arith, counting, gapwidth
from cygshell.counting import RadiusPoint
from oracles import count_ball_isqrt, r2_sum_upto, sawtooth_ball_sum_fsum


def triple_loop_count(k: int, Q: int) -> int:
    """Reference oracle: literal triple loop with exact integer comparison."""
    k4 = k ** 4
    Q4 = Q ** 4
    reach = k // Q + 1
    total = 0
    for a in range(-reach, reach + 1):
        for b in range(-reach, reach + 1):
            m = a * a + b * b
            if Q4 * m * m > k4:
                continue
            c = 0
            while Q4 * (m * m + c * c) <= k4:
                total += 1 if c == 0 else 2
                c += 1
    return total


def test_ball_volume_closed_form():
    # independent oracle: Simpson quadrature of 4*pi*r*sqrt(1-r^4)
    r = np.linspace(0.0, 1.0, 20_001)
    integrand = 4 * math.pi * r * np.sqrt(np.clip(1 - r ** 4, 0, None))
    h = r[1] - r[0]
    simpson = h / 3 * (integrand[0] + integrand[-1]
                       + 4 * integrand[1:-1:2].sum() + 2 * integrand[2:-1:2].sum())
    assert abs(counting.BALL_VOLUME - simpson) < 1e-6
    assert abs(counting.BALL_VOLUME - 4.9348022005446793) < 1e-12


def test_ball_volume_contains_euclidean_ball():
    # the Cygan-Koranyi unit ball contains the Euclidean ball of radius ~0.84
    r = 0.84
    assert counting.BALL_VOLUME >= 4.0 / 3.0 * math.pi * r ** 3


def test_volume_ratio_at_50(r2_10k):
    x = RadiusPoint(50, 1)
    n = counting.count_ball_fast(x, r2_10k)
    assert abs(n / 50 ** 4 - counting.BALL_VOLUME) < 0.02 * counting.BALL_VOLUME


def test_frozen_counts(r2_10k):
    assert counting.count_ball_brute(RadiusPoint(9, 10)) == 1
    assert counting.count_ball_brute(RadiusPoint(1, 1)) == 7
    assert counting.count_ball_brute(RadiusPoint(2, 1)) == 69
    assert counting.count_ball_fast(RadiusPoint(1, 1), r2_10k) == 7
    assert counting.count_ball_fast(RadiusPoint(1, 2), r2_10k) == 1
    assert counting.count_ball_fast(RadiusPoint(2, 1), r2_10k) == 69
    assert counting.count_ball_fast(RadiusPoint(9, 4), r2_10k) == 119


def test_brute_matches_triple_loop():
    for k, Q in ((9, 10), (1, 1), (3, 2), (2, 1), (5, 2), (7, 2)):
        assert counting.count_ball_brute(RadiusPoint(k, Q)) == triple_loop_count(k, Q)


def test_brute_rejects_large_radius():
    with pytest.raises(ValueError):
        counting.count_ball_brute(RadiusPoint(61, 1))


def test_fast_equals_brute_on_sevenths(r2_10k):
    for k in range(1, 61):
        p = RadiusPoint(k, 7)
        assert counting.count_ball_fast(p, r2_10k) == counting.count_ball_brute(p), k


def test_fast_equals_isqrt_oracle():
    # the table of exact sampling at X = 2000 (outer radii < 4001)
    r2 = arith.build_r2((2 * 2000 + 2) ** 2)
    # 65 = 5 * 13: (m, c) = (20, 15) * 13^2 lies on the sphere, 65^4 = m^2 + c^2
    assert 3380 ** 2 + 2535 ** 2 == 65 ** 4
    radii = [
        RadiusPoint(61, 1), RadiusPoint(65, 1), RadiusPoint(1000, 1),  # Q = 1
        RadiusPoint(24_001, 48), RadiusPoint(7003, 7),  # Q not a power of two
        RadiusPoint(1_000_003, 64 << counting.OUTER_REFINE_SHIFT),  # refined denominator
        RadiusPoint((1 << 26) - 1, 1 << 15),  # numerator at the cap, x ~ 2048
        RadiusPoint(191_999, 48),  # x ~ 4000, Q = 48
        counting.snap_outer_radius(RadiusPoint(255_937, 64), 0.21)[0],  # x ~ 3999, Q = 64 * 2^6
        RadiusPoint(21_001, 7),  # x ~ 3000, Q = 7
    ]
    for x in radii:
        assert counting.count_ball_fast(x, r2) == count_ball_isqrt(x, r2), x


# The properties below draw radii x <= 400, so r2_200k covers every slice.
_X_MAX = 400


@functools.cache
def _sphere_radii(limit: int) -> tuple:
    """Integer radii n <= limit whose sphere carries a lattice point off the
    c = 0 plane and the c axis: 0 < m = a^2 + b^2 < n^2 with n^4 - m^2 = c^2."""
    r2 = arith.build_r2(limit * limit)
    ms = r2.nonzero_m.astype(np.int64)
    found = []
    for n in range(2, limit + 1):
        m = ms[:r2.nonzero_count_upto(n * n - 1)]
        v = n ** 4 - m * m
        t = np.rint(np.sqrt(v)).astype(np.int64)
        if np.any(t * t == v):
            found.append(n)
    return tuple(found)


@settings(max_examples=50, deadline=None)
@given(st.integers((1 << 26) - (1 << 20), 1 << 26), st.integers(1, _X_MAX))
def test_fast_matches_isqrt_near_numerator_cap(r2_200k, k, y):
    x = RadiusPoint(k, -(-k // y))  # x <= y
    assert counting.count_ball_fast(x, r2_200k) == count_ball_isqrt(x, r2_200k)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 5000).filter(lambda q: q & (q - 1)), st.data())
def test_fast_matches_isqrt_non_power_of_two_q(r2_200k, Q, data):
    x = RadiusPoint(data.draw(st.integers(Q, _X_MAX * Q)), Q)
    assert counting.count_ball_fast(x, r2_200k) == count_ball_isqrt(x, r2_200k)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((1, 7, 48, 64)), st.data(), st.floats(0.01, 1.0))
def test_fast_matches_isqrt_refined_outer_radius(r2_200k, Q, data, gap):
    x = RadiusPoint(data.draw(st.integers(Q, (_X_MAX - 1) * Q)), Q)
    outer = counting.snap_outer_radius(x, gap)[0]
    assert counting.count_ball_fast(outer, r2_200k) == count_ball_isqrt(outer, r2_200k)


@settings(max_examples=50, deadline=None)
@given(st.deferred(lambda: st.sampled_from(_sphere_radii(_X_MAX))), st.integers(1, 4096))
def test_fast_matches_isqrt_on_sphere_points(r2_200k, n, Q):
    x = RadiusPoint(n * Q, Q)
    assert counting.count_ball_fast(x, r2_200k) == count_ball_isqrt(x, r2_200k)


def test_sphere_radii_fixture():
    # 3380^2 + 2535^2 == 65^4 with 3380 = 2^2 5 13^2 a sum of two squares
    assert 65 in _sphere_radii(_X_MAX)
    assert 1 not in _sphere_radii(_X_MAX)


def _chunk_radii():
    refined_q = 64 << counting.OUTER_REFINE_SHIFT
    return [
        RadiusPoint(65, 1),  # sphere points, see test_fast_equals_isqrt_oracle
        RadiusPoint(9_631, 64), RadiusPoint(12_345, 49), RadiusPoint(299, 1),
        counting.snap_outer_radius(RadiusPoint(15_000, 64), 0.21)[0],
        # refined outer radii whose sawtooth moved with the chunk size when
        # each chunk took its own fsum (2 of 3787 random refined radii)
        RadiusPoint(528_511, refined_q), RadiusPoint(574_901, refined_q),
    ]


def test_chunk_size_does_not_change_results(monkeypatch):
    r2 = arith.build_r2(300 ** 2)
    radii = _chunk_radii()

    def results():
        return [(counting.count_ball_fast(x, r2), counting.sawtooth_ball_sum(x, r2)[1].hex())
                for x in radii]

    default = results()
    monkeypatch.setattr(counting, "_KERNEL_CHUNK", 1000)
    for x in radii:
        assert r2.nonzero_count_upto(x.floor_sq) > 1000, x
    assert results() == default


def test_kernels_do_not_allocate_per_chunk():
    r2 = arith.build_r2(10 ** 6)
    x = RadiusPoint(999 * 64 + 1, 64)
    assert r2.nonzero_count_upto(x.floor_sq) > 3 * counting._KERNEL_CHUNK
    kernels = (counting.count_ball_fast, counting.sawtooth_ball_sum)
    warm = [kernel(x, r2) for kernel in kernels]  # makes this thread's buffers
    for kernel, expected in zip(kernels, warm):
        tracemalloc.start()
        try:
            assert kernel(x, r2) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < counting._KERNEL_CHUNK * 8, kernel.__name__


def test_threads_keep_their_own_buffers():
    r2 = arith.build_r2(300 ** 2)
    radii = [RadiusPoint(k, 64) for k in range(12_000, 19_000, 500)]

    def both(x):
        n, saw = counting.sawtooth_ball_sum(x, r2)
        return counting.count_ball_fast(x, r2), n, saw.hex()

    serial = [both(x) for x in radii]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:  # more threads than cores
            assert list(ex.map(both, radii * 3, timeout=120)) == serial * 3
    finally:
        sys.setswitchinterval(interval)


def test_sawtooth_matches_list_fsum_oracle():
    r2 = arith.build_r2(300 ** 2)
    for x in _chunk_radii():
        assert counting.sawtooth_ball_sum(x, r2)[1].hex() == sawtooth_ball_sum_fsum(x, r2).hex(), x


@pytest.mark.parametrize("chunk", [counting._KERNEL_CHUNK, 1000])
def test_one_pass_kernel_matches_count_and_sawtooth_oracles(monkeypatch, chunk):
    # RadiusPoint(65, 1) has slices in the fixup band, so both band re-decisions run:
    # r2(3380) > 0 and 65^4 - 3380^2 = 2535^2, so s = 2535 is an integer
    r2 = arith.build_r2(300 ** 2)
    assert r2.nonzero_count_upto(3380) > r2.nonzero_count_upto(3379)
    assert 65 ** 4 - 3380 ** 2 == 2535 ** 2
    monkeypatch.setattr(counting, "_KERNEL_CHUNK", chunk)
    for x in _chunk_radii():
        n, saw = counting.sawtooth_ball_sum(x, r2)
        assert n == counting.count_ball_fast(x, r2) == count_ball_isqrt(x, r2), x
        assert saw.hex() == sawtooth_ball_sum_fsum(x, r2).hex(), x


def test_counts_odd_and_monotone(r2_10k):
    prev = 0
    for k in range(1, 120):
        n = counting.count_ball_fast(RadiusPoint(k, 2), r2_10k)
        assert n % 2 == 1
        assert n >= prev
        prev = n


@pytest.mark.parametrize("kernel", [counting.count_ball_fast, counting.sawtooth_ball_sum],
                         ids=lambda kernel: kernel.__name__)
def test_fast_requires_table_coverage(kernel):
    small = arith.build_r2(10)
    with pytest.raises(ValueError, match="r2 table limit"):
        kernel(RadiusPoint(10, 1), small)


def test_float_exactness_bound():
    # 4u x^2 reaches a quarter of the fixup band near x = 23 700
    counting.check_float_exactness(RadiusPoint(23_700, 1))
    small = arith.build_r2(10)
    for kernel in (counting.count_ball_fast, counting.sawtooth_ball_sum):
        with pytest.raises(ValueError, match="exactness bound"):
            kernel(RadiusPoint(24_000, 1), small)


def test_radius_cap():
    with pytest.raises(OverflowError):
        RadiusPoint((1 << 26) + 1, 1)
    with pytest.raises(ValueError):
        RadiusPoint(0, 1)


def test_shell_sample_constant_gap(r2_10k, constant_gap):
    s = counting.shell_sample(RadiusPoint(2, 1), constant_gap, r2_10k)
    n_inner = counting.count_ball_brute(RadiusPoint(2, 1))
    n_outer = counting.count_ball_brute(RadiusPoint(9, 4))
    assert s.omega_x == 0.25
    assert s.shell_count == n_outer - n_inner == 50
    assert s.n_inner == n_inner and s.n_outer == n_outer


def test_shell_error_identity(r2_200k, inv_log):
    # error == (N(outer) - vol*outer^4) - (N(inner) - vol*inner^4) at the
    # snapped radii, and the stored fields reproduce it
    for k in (6433, 7171, 9015):
        x = RadiusPoint(k, 64)
        s = counting.shell_sample(x, inv_log, r2_200k)
        outer = s.x + s.omega_x
        ball_err_diff = ((s.n_outer - counting.BALL_VOLUME * outer ** 4)
                         - (s.n_inner - counting.BALL_VOLUME * s.x ** 4))
        assert abs(s.error - ball_err_diff) < 1e-9 * max(1.0, abs(s.error))
        recompute = s.shell_count - counting.BALL_VOLUME * sum(
            math.comb(4, j) * s.x ** (4 - j) * s.omega_x ** j for j in (1, 2, 3, 4))
        assert abs(s.error - recompute) < 1e-9 * max(1.0, abs(s.error))
        assert s.normalized == s.error / s.x ** 2


def test_shell_sample_sawtooth_keeps_the_counts(r2_200k, inv_log):
    # sawtooth=True takes the counts from the one-pass kernel and adds only the sawtooth
    for k in (6433, 7171, 9015):
        x = RadiusPoint(k, 64)
        s = counting.shell_sample(x, inv_log, r2_200k, sawtooth=True)
        assert s.sawtooth is not None
        assert replace(s, sawtooth=None) == counting.shell_sample(x, inv_log, r2_200k)
        assert s.sawtooth == sawtooth_shell_sum(x, float(inv_log.value(x.value)), r2_200k)


def test_shell_rejects_nonpositive_gap(r2_10k, zero_gap):
    with pytest.raises(ValueError):
        counting.shell_sample(RadiusPoint(2, 1), zero_gap, r2_10k)


def test_sawtooth_single_ball_fixture(r2_10k):
    # at x = 1 only m = 1 contributes: r2(1) * psi(0) = 4 * (-1/2); N(1) = 7
    assert counting.sawtooth_ball_sum(RadiusPoint(1, 1), r2_10k) == (7, -2.0)


def sawtooth_shell_sum(x, gap, r2):
    """The sawtooth correction of the shell (x, x + gap] at the snapped outer radius."""
    outer, _ = counting.snap_outer_radius(x, gap)
    return counting.sawtooth_ball_sum(outer, r2)[1] - counting.sawtooth_ball_sum(x, r2)[1]


def test_sawtooth_zero_gap_cancels(r2_10k):
    for k in (64, 131, 517):
        x = RadiusPoint(k, 16)
        assert sawtooth_shell_sum(x, 0.0, r2_10k) == 0.0


def test_sawtooth_bound(r2_200k):
    for k in (640, 1215, 2751, 3199):
        x = RadiusPoint(k, 64)
        gap = 1.0 / math.log(x.value)
        xi = sawtooth_shell_sum(x, gap, r2_200k)
        outer_sq = (x.value + gap) ** 2
        bound = 0.5 * (r2_sum_upto(r2_200k, int(outer_sq)) + r2_sum_upto(r2_200k, x.floor_sq))
        assert abs(xi) <= bound
        loose = math.pi * x.value ** 2 + math.pi * (x.value + gap) ** 2 + 40 * x.value
        assert abs(xi) <= loose


def test_snap_outer_radius_refines():
    x = RadiusPoint(128, 64)
    outer, gap = counting.snap_outer_radius(x, 0.1)
    assert outer.Q == 64 << counting.OUTER_REFINE_SHIFT
    assert 0 < outer.value - x.value < 0.1 + 1.0 / outer.Q
    assert gap == (outer.k - x.refined().k) / outer.Q
    assert abs(gap - 0.1) <= 0.5 / outer.Q


def _constant_gap(value):
    return gapwidth.GapWidth(name="constant", jet=lambda L, order: (
        [np.full_like(np.asarray(L, dtype=float), value)]
        + [np.zeros_like(np.asarray(L, dtype=float))] * order))


def test_snap_outer_radius_realises_zero_gap(r2_200k):
    # the first zero-gap row of `sample --mode exact` with the product gap
    # (1+z)(2+z), lambda = (1, sqrt 2), A = 2 at X = 60: omega = 3.26e-6
    x = RadiusPoint(6605, 64)
    step = 1.0 / x.refined().Q
    for gap in (0.0, 3.262311298112491e-06, 0.49 * step):
        assert counting.snap_outer_radius(x, gap) == (x.refined(), 0.0)
    outer, gap = counting.snap_outer_radius(x, 0.51 * step)
    assert outer.k == x.refined().k + 1 and gap == step
    with pytest.raises(ValueError):
        counting.snap_outer_radius(x, -step)
    s = counting.shell_sample(x, _constant_gap(1e-6), r2_200k)
    assert (s.omega_x, s.shell_count, s.error, s.normalized) == (0.0, 0, 0.0, 0.0)
    assert s.n_outer == s.n_inner == counting.count_ball_fast(x, r2_200k)


@pytest.mark.parametrize("sawtooth", [False, True])
def test_zero_gap_row_makes_one_kernel_pass(r2_200k, monkeypatch, sawtooth):
    x = RadiusPoint(6605, 64)
    calls = []
    for name in ("count_ball_fast", "sawtooth_ball_sum"):
        kernel = getattr(counting, name)
        monkeypatch.setattr(counting, name,
                            lambda p, r2, kernel=kernel: calls.append(p) or kernel(p, r2))
    s = counting.shell_sample(x, _constant_gap(1e-6), r2_200k, sawtooth=sawtooth)
    assert calls == [x]
    assert (s.omega_x, s.shell_count, s.n_outer) == (0.0, 0, s.n_inner)
    if sawtooth:
        assert math.copysign(1.0, s.sawtooth) == 1.0 and s.sawtooth == 0.0
    calls.clear()
    step = 1.0 / x.refined().Q
    s = counting.shell_sample(x, _constant_gap(0.51 * step), r2_200k, sawtooth=sawtooth)
    assert calls == [x, RadiusPoint(x.refined().k + 1, x.refined().Q)]
    assert s.omega_x == step
