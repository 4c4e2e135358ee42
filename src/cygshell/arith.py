"""Exact arithmetic substrate: the r2 sieve, the exact partial sums of a
float64 array and the square-free core decomposition.

All tables are immutable after construction and safe to share across
threads; every operation here but exact_parts, which overwrites its
arguments, is pure.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "R2Table",
    "CoreDecomposition",
    "build_r2",
    "exact_parts",
    "squarefree_core",
]


@dataclass(frozen=True)
class R2Table:
    """Representation counts r2(m) = #{(a,b) in Z^2 : a^2 + b^2 = m} for m <= limit.

    `values[0] == 1` (the pair (0,0)).  Besides the dense table the
    constructor stores a compressed view over the m >= 1 with r2(m) > 0
    (roughly a 0.2 fraction at desk scale), which the counting kernels and
    the series iterate over; the m = 0 slice is never part of it.  The
    counts are uint16 (the largest r2 is 192 at 1.6 * 10^7 and 256 at
    6.4 * 10^7) and the compressed m are uint32, which caps the limit at
    2^32 - 1.  The 8-byte prefix sums and square roots are built on first
    read; two threads reading one at once may both build the same array.
    """

    limit: int
    values: np.ndarray                      # uint16, len == limit + 1
    nonzero_m: np.ndarray = field(init=False, repr=False)       # uint32
    nonzero_values: np.ndarray = field(init=False, repr=False)  # uint16

    def __post_init__(self):
        # one block of `values` at a time, at most 1/64 of the table, so a
        # block's int64 index is the only transient
        step = min(_COMPRESS_BLOCK, self.limit // 64 + 1)
        mnz = np.empty(int(np.count_nonzero(self.values[1:])), dtype=np.uint32)
        vnz = np.empty(len(mnz), dtype=np.uint16)
        at = 0
        for lo in range(1, self.limit + 1, step):
            idx = np.flatnonzero(self.values[lo:lo + step])
            idx += lo
            mnz[at:at + len(idx)], vnz[at:at + len(idx)] = idx, self.values[idx]
            at += len(idx)
        for arr in (self.values, mnz, vnz):
            arr.setflags(write=False)
        object.__setattr__(self, "nonzero_m", mnz)
        object.__setattr__(self, "nonzero_values", vnz)

    @functools.cached_property
    def nonzero_prefix(self) -> np.ndarray:
        """int64 cumulative r2 over nonzero_m after a leading 0 (read by sum_upto)."""
        prefix = np.zeros(len(self.nonzero_values) + 1, dtype=np.int64)
        np.cumsum(self.nonzero_values, dtype=np.int64, out=prefix[1:])
        prefix.setflags(write=False)
        return prefix

    @functools.cached_property
    def nonzero_sqrt(self) -> np.ndarray:
        """float64 square roots of nonzero_m (read by the series)."""
        sqrt = np.sqrt(self.nonzero_m, dtype=np.float64)
        sqrt.setflags(write=False)
        return sqrt

    def nonzero_count_upto(self, y: int) -> int:
        """Number of compressed entries with 1 <= m <= y."""
        if y < 1:
            return 0
        if y >= self.limit:
            return len(self.nonzero_m)
        # a key of the array's own dtype: a Python int would make NumPy cast
        # the whole array to int64 on every call
        return int(np.searchsorted(self.nonzero_m, self.nonzero_m.dtype.type(y), side="right"))

    def sum_upto(self, y: int) -> int:
        """Sum of r2(m) for 0 <= m <= y (exact)."""
        if y > self.limit:
            raise ValueError(f"r2 table limit {self.limit} < requested {y}")
        return 1 + int(self.nonzero_prefix[self.nonzero_count_upto(y)])  # r2(0) = 1


# The largest block of `values` R2Table compresses at once.
_COMPRESS_BLOCK = 1 << 16

# The largest limit the uint32 nonzero_m can index.
_MAX_LIMIT = 2 ** 32 - 1

# Bytes per entry of a table: the uint16 dense value, then per nonzero entry
# the uint32 m and uint16 r2 it keeps and the int64 prefix and float64 sqrt
# it builds on first read, over a nonzero share of at most 0.3 (it measures
# 0.275 at 10^4 and 0.19 at 1.6 * 10^7).
_TABLE_BYTES_PER_ENTRY = 2 + (4 + 2 + 8 + 8) * 0.3


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def build_r2(limit: int) -> R2Table:
    """Sieve r2(m) for all 0 <= m <= limit by the double loop over a^2 + b^2,
    0 <= a <= b, with weights 8 (0 < a < b), 4 (0 = a < b or 0 < a = b), 1 (origin).

    O(limit) memory, O(limit) time.  Raises ValueError for a limit past
    2^32 - 1, which the uint32 compressed m cannot index, and MemoryError
    when the table's estimated peak size exceeds physical memory; both
    before allocating.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _MAX_LIMIT:
        raise ValueError(f"r2 table limit {limit} exceeds {_MAX_LIMIT}, "
                         "the largest a uint32 index holds")
    need = (limit + 1) * _TABLE_BYTES_PER_ENTRY
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryError(f"an r2 table to {limit} needs about {need / 2 ** 20:.0f} MiB, "
                          f"more than the {have / 2 ** 20:.0f} MiB of physical memory")
    values = np.zeros(limit + 1, dtype=np.uint16)
    squares = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    for a in range(math.isqrt(limit // 2) + 1):
        # the m = a^2 + b^2 of one row are distinct, so += adds each once
        row = squares[a:math.isqrt(limit - a * a) + 1] + a * a
        values[row[0]] += 4 if a else 1
        values[row[1:]] += 8 if a else 4
    return R2Table(limit=limit, values=values)


# exact_parts hands arrays with max|p| at or above this to fsum as a list, so
# overflow, inf and nan keep fsum's own semantics; below _EXTRACT_FLOOR the
# extraction unit 2^-53 sigma would leave the normal range.
_EXTRACT_CEILING = 2.0 ** 900
_EXTRACT_FLOOR = 2.0 ** -1000


def exact_parts(p: np.ndarray, q: np.ndarray | None = None) -> list[float]:
    """A short list of floats whose exact sum is the exact sum of the float64
    array p, so math.fsum(exact_parts(p)) == math.fsum(p.tolist()) bit for bit.

    Error-free vector extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation, part I", 2008): with 2^M > n + 1 and
    sigma = 2^M 2^e > 2^M max|p|, q = (sigma + p) - sigma is p rounded to a
    multiple of 2^-53 sigma with |sum q| < sigma, so q.sum() is exact in any
    order and p - q is exact.  Each level appends q.sum() and moves sigma
    down by 2^(53 - M) until p is all zero; what is left below
    _EXTRACT_FLOOR is appended as it is.  Overwrites p, and q, a scratch
    array of p's shape and dtype, when one is given.
    """
    if p.size == 0:
        return []
    if q is None:
        q = np.empty_like(p)
    top = float(np.abs(p, out=q).max())
    if not top < _EXTRACT_CEILING:
        return p.tolist()
    if top == 0.0:  # -0.0 only when every term is -0.0, as fsum may give
        return [-0.0] if np.signbit(p).all() else [0.0]
    M = (p.size + 1).bit_length()
    sigma = math.ldexp(1.0, M + math.frexp(top)[1])
    shrink = math.ldexp(1.0, M - 53)
    parts = []
    while sigma >= _EXTRACT_FLOOR:
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(float(q.sum()))
        if not p.any():
            return parts
        sigma *= shrink
    parts.extend(p[p != 0].tolist())
    return parts


class CoreDecomposition(NamedTuple):
    """The unique factorisation m = core * k^2 with core square-free."""

    m: int
    core: int
    k: int


def squarefree_core(m: int) -> CoreDecomposition:
    """Decompose m >= 1 as core * k^2 with core square-free, by trial division."""
    if m < 1:
        raise ValueError("squarefree_core is defined for m >= 1")
    rest, core, k = m, 1, 1
    d = 2
    while d * d <= rest:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e % 2:
            core *= d
        k *= d ** (e // 2)
        d += 1 if d == 2 else 2
    return CoreDecomposition(m=m, core=core * rest, k=k)  # rest is 1 or a prime
