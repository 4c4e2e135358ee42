import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cygshell import arith, counting, voronoi
from conftest import r2_direct_enumeration
from oracles import r2_full_plane, r2_sum_upto


def test_r2_base_values(r2_10k):
    assert r2_10k.values[0] == 1
    assert r2_10k.values[1] == 4
    assert list(r2_10k.values[:11]) == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8]


def test_r2_examples():
    assert arith.build_r2(25).values[25] == 12
    assert arith.build_r2(10).values[3] == 0
    assert arith.build_r2(0).values[0] == 1


def test_r2_compressed_view_is_m_ge_1():
    empty = arith.build_r2(0)
    assert len(empty.nonzero_m) == 0
    assert r2_sum_upto(empty, 0) == 1
    table = arith.build_r2(25)
    assert table.nonzero_m[0] == 1
    assert r2_sum_upto(table, 0) == 1
    assert r2_sum_upto(table, 25) == int(table.values.sum())


def test_r2_divisibility(r2_10k):
    assert np.all(r2_10k.values[1:] % 4 == 0)


def test_r2_matches_enumeration(r2_10k):
    for m in range(0, 10_001):
        assert r2_10k.values[m] == r2_direct_enumeration(m), m


def test_r2_partial_sum_growth():
    table = arith.build_r2(100_000)
    for y in (1000, 10_000, 100_000):
        assert abs(r2_sum_upto(table, y) - math.pi * y) <= 10 * math.sqrt(y)


def test_r2_sum_upto_requires_coverage(r2_10k):
    with pytest.raises(ValueError):
        r2_sum_upto(r2_10k, 10_001)


def _mobius_brute(m: int) -> int:
    if m == 1:
        return 1
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def test_squarefree_core_fixtures():
    assert arith.squarefree_core(18) == (18, 2, 3)
    assert arith.squarefree_core(1) == (1, 1, 1)
    assert arith.squarefree_core(7) == (7, 7, 1)
    with pytest.raises(ValueError):
        arith.squarefree_core(0)


def test_squarefree_core_exhaustive():
    for m in range(1, 10_001):
        dec = arith.squarefree_core(m)
        assert dec.core * dec.k ** 2 == m
        p = 2
        while p * p <= dec.core:
            assert dec.core % (p * p) != 0
            p += 1


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_core_and_mobius_consistency(m):
    dec = arith.squarefree_core(m)
    assert dec.core * dec.k ** 2 == m
    # mobius vanishes exactly on the non-square-free integers
    assert (_mobius_brute(m) != 0) == (dec.k == 1)
    assert _mobius_brute(dec.core) in (-1, 1)


def test_build_r2_refuses_more_than_physical_memory(monkeypatch):
    monkeypatch.setattr(arith, "_physical_memory", lambda: 50_000)
    with pytest.raises(MemoryError, match="physical memory"):
        arith.build_r2(10_000)  # 223 KB estimated
    assert arith.build_r2(1000).limit == 1000  # 22 KB estimated
    monkeypatch.setattr(arith, "_physical_memory", lambda: None)
    assert arith.build_r2(10_000).limit == 10_000


def _table_arrays(table):
    return (table.values, table.nonzero_m, table.nonzero_values,
            table.nonzero_prefix, table.nonzero_sqrt)


def test_r2_table_dtypes(r2_10k):
    assert [a.dtype for a in _table_arrays(r2_10k)] == [
        np.uint16, np.uint32, np.uint16, np.int64, np.float64]
    m = r2_10k.nonzero_m.astype(np.int64)
    assert np.array_equal(r2_10k.nonzero_sqrt, np.sqrt(m.astype(np.float64)))
    assert np.array_equal(r2_10k.nonzero_prefix[1:],
                          np.cumsum(r2_10k.nonzero_values.astype(np.int64)))


def test_build_r2_rejects_limit_past_uint32(monkeypatch):
    monkeypatch.setattr(arith, "_physical_memory", lambda: None)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="uint32"):
            arith.build_r2(2 ** 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before the table was allocated
    # the largest uint32 limit passes this guard and meets the memory check
    monkeypatch.setattr(arith, "_physical_memory", lambda: 1)
    with pytest.raises(MemoryError):
        arith.build_r2(2 ** 32 - 1)


def test_nonzero_count_upto_outside_the_table(r2_10k):
    n = len(r2_10k.nonzero_m)
    for y in (-2 ** 40, -1, 0):
        assert r2_10k.nonzero_count_upto(y) == 0
    for y in (10_000, 10_001, 2 ** 32, 2 ** 70):
        assert r2_10k.nonzero_count_upto(y) == n
    for y in (1, 2, 3, 9_999):
        assert r2_10k.nonzero_count_upto(y) == int(np.count_nonzero(r2_10k.values[1:y + 1]))


def test_nonzero_count_upto_does_not_allocate():
    table = arith.build_r2(10 ** 6)
    ys = (1, 500_000, 999_999)
    expected = [int(np.count_nonzero(table.values[1:y + 1])) for y in ys]
    tracemalloc.start()
    try:
        counts = [table.nonzero_count_upto(y) for y in ys]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == expected
    assert peak < counting._KERNEL_CHUNK * 8


@pytest.mark.parametrize("limit", [10_000, 200_000, 10 ** 6])
def test_memory_estimate_covers_the_build(limit, monkeypatch):
    tracemalloc.start()
    try:
        table = arith.build_r2(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    eager = table.nonzero_m.nbytes + table.nonzero_values.nbytes
    on_demand = table.values.nbytes + table.nonzero_prefix.nbytes + table.nonzero_sqrt.nbytes
    assert eager <= peak
    # the estimate is at least peak + on_demand: one byte less memory refuses the table
    monkeypatch.setattr(arith, "_physical_memory", lambda: peak + on_demand - 1)
    with pytest.raises(MemoryError, match="physical memory"):
        arith.build_r2(limit)


# Block 25 puts the edge of the table to 25 on m = 25 = 3^2 + 4^2; a table of
# more than 16 blocks takes blocks of limit // 16 instead (625 = 7^2 + 24^2
# at 10 000).
@pytest.mark.parametrize("block", [7, 25, None], ids=["block7", "block25", "default"])
@pytest.mark.parametrize("limit", [0, 1, 2, 25, 10_000, 200_000])
def test_build_r2_matches_full_plane_oracle(limit, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
    table = arith.build_r2(limit)
    got = (table.values, table.nonzero_m, table.nonzero_values)
    for g, want in zip(got, r2_full_plane(limit)):
        assert g.dtype == want.dtype
        assert np.array_equal(g, want)


def test_prefix_and_sqrt_are_built_on_first_read():
    table = arith.build_r2(10_000)
    lazy = {"values", "nonzero_prefix", "nonzero_sqrt"}
    assert counting.count_ball_fast(counting.RadiusPoint(99, 1), table) > 0
    assert counting.sawtooth_ball_sum(counting.RadiusPoint(99, 1), table)[0] > 0
    voronoi.series_with_gap(40.0, 0.3, table, 2000)
    assert not lazy & table.__dict__.keys()
    prefix = table.nonzero_prefix
    assert table.__dict__.keys() & lazy == {"nonzero_prefix"}
    sqrt = table.nonzero_sqrt
    assert table.__dict__.keys() & lazy == {"nonzero_prefix", "nonzero_sqrt"}
    values = table.values
    assert lazy <= table.__dict__.keys()
    assert prefix[0] == 0
    assert np.array_equal(prefix[1:], np.cumsum(table.nonzero_values, dtype=np.int64))
    assert np.array_equal(sqrt, np.sqrt(table.nonzero_m, dtype=np.float64))
    assert values.dtype == np.uint16 and len(values) == 10_001 and values[0] == 1
    assert np.array_equal(np.flatnonzero(values[1:]) + 1, table.nonzero_m)
    assert np.array_equal(values[table.nonzero_m], table.nonzero_values)
    assert table.values is values
    assert table.nonzero_prefix is prefix and table.nonzero_sqrt is sqrt
    assert not (values.flags.writeable or prefix.flags.writeable or sqrt.flags.writeable)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.nonzero_sqrt = sqrt


def _fsum_outcome(values) -> str:
    """math.fsum's result as hex (which keeps the sign of a zero and nan),
    or the name of the exception it raises."""
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _assert_parts_match_fsum(a: np.ndarray) -> None:
    assert _fsum_outcome(arith.exact_parts(a.copy())) == _fsum_outcome(a.tolist())


@st.composite
def _mixed_arrays(draw):
    """float64 arrays up to 2^17 entries: random signs and mantissas over a
    drawn exponent range (subnormals included), optionally concatenated with
    their negation, with a drawn share of entries set to +0.0 or -0.0."""
    n = draw(st.integers(0, 1 << 17) | st.integers(0, 8))
    lo = draw(st.integers(-1080, 600))
    hi = draw(st.integers(lo, min(lo + 1200, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):
        a = rng.permutation(np.concatenate([a, -a]))
    zero_share = draw(st.sampled_from([0.0, 0.1, 1.0]))
    zeros = rng.random(a.size) < zero_share
    a[zeros] = np.where(rng.random(a.size) < 0.5, 0.0, -0.0)[zeros]
    return a


@settings(max_examples=150, deadline=None)
@given(_mixed_arrays())
def test_exact_parts_matches_list_fsum(a):
    _assert_parts_match_fsum(a)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), max_size=40))
def test_exact_parts_matches_list_fsum_on_any_floats(values):
    # every float64: nan, +-inf, +-0.0, subnormals and values near overflow
    _assert_parts_match_fsum(np.array(values, dtype=np.float64))


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
    [1e300, -1e300], [1e308, 1e308], [-1e308, -1e308, 1e308],
    [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
    [2.0 ** 900, 1.0], [2.0 ** 900 - 2.0 ** 847, 2.0 ** -1074],
    [5e-324, -5e-324, 5e-324], [2.0 ** -1022, 2.0 ** -1074, -2.0 ** -1060],
], ids=repr)
def test_exact_parts_edge_cases(values):
    _assert_parts_match_fsum(np.array(values, dtype=np.float64))


def test_exact_parts_is_short():
    rng = np.random.default_rng(7)
    p = rng.standard_normal(1 << 16) * rng.integers(4, 64, 1 << 16)
    want = math.fsum(p.tolist())
    parts = arith.exact_parts(p)
    assert len(parts) <= 4
    assert math.fsum(parts) == want
