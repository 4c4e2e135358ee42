"""Exact integer arithmetic substrate: the r2 sieve, the smallest-prime-factor
sieve and the square-free core decomposition.

All tables are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "R2Table",
    "CoreDecomposition",
    "build_r2",
    "squarefree_core",
    "spf_sieve",
]


@dataclass(frozen=True)
class R2Table:
    """Representation counts r2(m) = #{(a,b) in Z^2 : a^2 + b^2 = m} for m <= limit.

    `values[0] == 1` (the pair (0,0)).  Besides the dense table the
    constructor stores a compressed view over the m >= 1 with r2(m) > 0
    (roughly a 0.2 fraction at desk scale), which the counting kernels and
    the series iterate over; the m = 0 slice is never part of it.
    """

    limit: int
    values: np.ndarray                      # int32, len == limit + 1
    nonzero_m: np.ndarray = field(init=False, repr=False)       # int64
    nonzero_values: np.ndarray = field(init=False, repr=False)  # int64
    nonzero_prefix: np.ndarray = field(init=False, repr=False)  # int64, cumulative r2 over nonzero_m
    nonzero_sqrt: np.ndarray = field(init=False, repr=False)    # float64 sqrt of nonzero_m

    def __post_init__(self):
        mnz = np.nonzero(self.values[1:])[0].astype(np.int64) + 1
        vnz = self.values[mnz].astype(np.int64)
        object.__setattr__(self, "nonzero_m", mnz)
        object.__setattr__(self, "nonzero_values", vnz)
        object.__setattr__(self, "nonzero_prefix",
                           np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(vnz)]))
        object.__setattr__(self, "nonzero_sqrt", np.sqrt(mnz.astype(np.float64)))
        for arr in (self.values, self.nonzero_m, self.nonzero_values,
                    self.nonzero_prefix, self.nonzero_sqrt):
            arr.setflags(write=False)

    def nonzero_count_upto(self, y: int) -> int:
        """Number of compressed entries with 1 <= m <= y."""
        return int(np.searchsorted(self.nonzero_m, y, side="right"))

    def sum_upto(self, y: int) -> int:
        """Sum of r2(m) for 0 <= m <= y (exact)."""
        if y > self.limit:
            raise ValueError(f"r2 table limit {self.limit} < requested {y}")
        return 1 + int(self.nonzero_prefix[self.nonzero_count_upto(y)])  # r2(0) = 1


def build_r2(limit: int) -> R2Table:
    """Sieve r2(m) for all 0 <= m <= limit by the double loop over a^2 + b^2.

    O(limit) memory, O(limit) time.  Entries are int32; r2(m) stays far below
    2^31 for any feasible table size.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    values = np.zeros(limit + 1, dtype=np.int32)
    for a in range(math.isqrt(limit) + 1):
        bmax = math.isqrt(limit - a * a)
        b = np.arange(bmax + 1, dtype=np.int64)
        weights = np.full(b.shape, 4 if a > 0 else 2, dtype=np.int32)
        weights[0] //= 2  # b == 0 contributes half the sign choices
        np.add.at(values, a * a + b * b, weights)
    return R2Table(limit=limit, values=values)


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    return spf


def _factor_squarefree_part(m: int, spf: np.ndarray | None):
    """Yield (prime, exponent) pairs of m, using the spf table where it covers m."""
    if spf is not None and m < len(spf):
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
        return
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if m > 1:
        yield m, 1


class CoreDecomposition(NamedTuple):
    """The unique factorisation m = core * k^2 with core square-free."""

    m: int
    core: int
    k: int


def squarefree_core(m: int, spf: np.ndarray | None = None) -> CoreDecomposition:
    """Decompose m >= 1 as core * k^2 with core square-free."""
    if m < 1:
        raise ValueError("squarefree_core is defined for m >= 1")
    core = 1
    k = 1
    for p, e in _factor_squarefree_part(m, spf):
        if e % 2:
            core *= p
        k *= p ** (e // 2)
    return CoreDecomposition(m=m, core=core, k=k)
