import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cygshell import arith
from conftest import r2_direct_enumeration


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
    assert empty.sum_upto(0) == 1
    table = arith.build_r2(25)
    assert table.nonzero_m[0] == 1
    assert table.sum_upto(0) == 1
    assert table.sum_upto(25) == int(table.values.sum())


def test_r2_divisibility(r2_10k):
    assert np.all(r2_10k.values[1:] % 4 == 0)


def test_r2_matches_enumeration(r2_10k):
    for m in range(0, 10_001):
        assert r2_10k.values[m] == r2_direct_enumeration(m), m


def test_r2_partial_sum_growth():
    table = arith.build_r2(100_000)
    for y in (1000, 10_000, 100_000):
        assert abs(table.sum_upto(y) - math.pi * y) <= 10 * math.sqrt(y)


def test_r2_sum_upto_requires_coverage(r2_10k):
    with pytest.raises(ValueError):
        r2_10k.sum_upto(10_001)


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
    spf = arith.spf_sieve(10_000)
    for m in range(1, 10_001):
        dec = arith.squarefree_core(m, spf)
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
