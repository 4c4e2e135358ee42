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

import numpy as np

__all__ = [
    "R2Table",
    "build_r2",
    "exact_parts",
    "squarefree_core",
]


@dataclass(frozen=True)
class R2Table:
    """Representation counts r2(m) = #{(a,b) in Z^2 : a^2 + b^2 = m} for m <= limit.

    The table holds the compressed view over the m >= 1 with r2(m) > 0
    (roughly a 0.2 fraction at desk scale) that the counting kernels and the
    series iterate over: uint16 counts (the largest r2 is 192 at 1.6 * 10^7
    and 256 at 6.4 * 10^7) and uint32 m, which cap the limit at 2^32 - 1.
    Only the benchmark tracer and tests read the dense `values`, the prefix
    sums and the square roots, built on first read; two threads reading one
    at once may both build the same array.
    """

    limit: int
    nonzero_m: np.ndarray = field(repr=False)       # uint32, increasing
    nonzero_values: np.ndarray = field(repr=False)  # uint16

    @functools.cached_property
    def values(self) -> np.ndarray:
        """uint16 r2(m) for every 0 <= m <= limit, `values[0] == 1`; no reader
        in the package, kept only for tests and the benchmark tracer."""
        values = np.zeros(self.limit + 1, dtype=np.uint16)
        values[0] = 1
        values[self.nonzero_m] = self.nonzero_values
        values.setflags(write=False)
        return values

    @functools.cached_property
    def nonzero_prefix(self) -> np.ndarray:
        """int64 cumulative r2 over nonzero_m after a leading 0; no reader in
        the package, kept only for the benchmark tracer's table size."""
        prefix = np.zeros(len(self.nonzero_values) + 1, dtype=np.int64)
        np.cumsum(self.nonzero_values, dtype=np.int64, out=prefix[1:])
        prefix.setflags(write=False)
        return prefix

    @functools.cached_property
    def nonzero_sqrt(self) -> np.ndarray:
        """float64 square roots of nonzero_m; no reader in the package (the
        series takes its own), kept only for the benchmark tracer's table size."""
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


# The smallest block of m build_r2 sieves at once; a larger table takes
# blocks of limit // 16, so no more than 16 blocks visit the same row b.
_SIEVE_BLOCK = 1 << 20

# The largest limit the uint32 nonzero_m can index.
_MAX_LIMIT = 2 ** 32 - 1

# Bytes per entry of what a table builds on first read: the dense uint16
# values, then the int64 prefix and float64 sqrt over a nonzero share of at
# most 0.3 (it measures 0.275 at 10^4 and 0.19 at 1.6 * 10^7).
_TABLE_BYTES_PER_ENTRY = 2 + (8 + 8) * 0.3


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(need: float, what: str) -> None:
    """MemoryError when what, estimated at need bytes, exceeds physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryError(f"{what} needs about {need / 2 ** 20:.0f} MiB, "
                          f"more than the {have / 2 ** 20:.0f} MiB of physical memory")


def build_r2(limit: int) -> R2Table:
    """Sieve r2(m) for all 1 <= m <= limit straight into the compressed view,
    one dense uint16 block of m at a time: rows b >= 1 of the half plane
    0 <= a <= b add weights 8 (0 < a < b) and 4 (0 = a < b or 0 < a = b),
    and the block's nonzero entries are appended before the next.  A block
    meets about sqrt(hi) - sqrt(lo / 2) rows b, half as many as rows a.

    O(limit) time.  Raises ValueError for a limit past 2^32 - 1, which the
    uint32 compressed m cannot index, and MemoryError when the build and the
    columns built on first read would exceed physical memory; both before
    allocating.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _MAX_LIMIT:
        raise ValueError(f"r2 table limit {limit} exceeds {_MAX_LIMIT}, "
                         "the largest a uint32 index holds")
    step = min(max(_SIEVE_BLOCK, limit // 16), limit + 1)
    size = 3 * limit // 4 + 2  # no m = 3 mod 4 is a sum of two squares
    # uint32 m and uint16 r2 reserved, the uint16 block with its bool mask
    # and int64 index, and the columns built on first read
    _require_memory(6 * size + 11 * step + (limit + 1) * _TABLE_BYTES_PER_ENTRY,
                    f"an r2 table to {limit}")
    mnz, vnz = np.empty(size, dtype=np.uint32), np.empty(size, dtype=np.uint16)
    squares = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    buf = np.empty(step, dtype=np.uint16)
    at = 0
    for lo in range(0, limit + 1, step):
        hi = min(lo + step, limit + 1)
        blk = buf[:hi - lo]
        blk.fill(0)
        # rows b >= 1 (the origin is not sieved) from about sqrt(lo / 2),
        # each over the a <= b with lo <= a^2 + b^2 < hi
        for b in range(max(1, math.isqrt(lo // 2)), math.isqrt(hi - 1) + 1):
            b2 = b * b
            a0 = math.isqrt(lo - b2 - 1) + 1 if lo > b2 else 0
            a1 = min(b, math.isqrt(hi - 1 - b2))
            if a0 > a1:
                continue
            # the m = a^2 + b^2 of one row are distinct, so += adds each once
            row = squares[a0:a1 + 1] + (b2 - lo)
            blk[row] += 8  # but 4 on the axis a = 0 and the diagonal a = b
            if a0 == 0:
                blk[row[0]] -= 4
            if a1 == b:
                blk[row[-1]] -= 4
        idx = np.flatnonzero(blk != 0)  # a bool mask: flatnonzero on uint16 is 3x slower
        n = len(idx)
        np.take(blk, idx, out=vnz[at:at + n])
        np.add(idx, lo, out=mnz[at:at + n], casting="unsafe")
        at += n
        del idx  # before the next block's mask and index, not after them
    for arr in (mnz, vnz):  # the reservation's tail, never touched, was never resident
        arr.resize(at, refcheck=False)
        arr.setflags(write=False)
    return R2Table(limit=limit, nonzero_m=mnz, nonzero_values=vnz)


# exact_parts hands arrays with max|p| at or above this to fsum as a list, so
# overflow, inf and nan keep fsum's own semantics; below _EXTRACT_FLOOR the
# extraction unit 2^-53 sigma would leave the normal range.
_EXTRACT_CEILING = 2.0 ** 900
_EXTRACT_FLOOR = 2.0 ** -1000


def exact_parts(p: np.ndarray, q: np.ndarray | None = None) -> list:
    """For each row of the float64 block p (a 1-D p is one row), a short list
    of floats with the row's exact sum, so math.fsum(parts) equals
    math.fsum(row.tolist()) bit for bit: a list per row, one list for 1-D.

    Error-free vector extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation, part I", 2008): with 2^M > n + 1 and
    sigma = 2^M 2^e > 2^M max|row|, q = (sigma + row) - sigma is the row
    rounded to a multiple of 2^-53 sigma with |sum q| < sigma, so q.sum() is
    exact in any order and row - q is exact.  The rows share one sigma, that
    of the largest max among the rows extracted, so a level is a few NumPy
    passes over the block that add and subtract one scalar; sigma moves down
    by 2^(53 - M) until the block is zero, and a row's nonzero q.sum()s are
    its parts.  A row far below the block's max thus costs the whole block
    the levels that reach it, 53 - M bits a level.
    A row with inf, nan or a max at or above _EXTRACT_CEILING is set aside
    with its nonzero entries, and so is every row's remainder once sigma
    falls below _EXTRACT_FLOOR; an all-zero row gives [-0.0] if every entry
    is -0.0, else [0.0], as fsum does.
    Overwrites p, and q, a scratch array of p's shape and dtype, if given.
    """
    block = p[None] if p.ndim == 1 else p
    q = np.empty_like(block) if q is None else q.reshape(block.shape)
    parts = [[] for _ in range(len(block))]
    if not block.size:
        return parts if p.ndim > 1 else parts[0]
    M = (block.shape[1] + 1).bit_length()
    shrink = math.ldexp(1.0, M - 53)
    top = 0.0
    for row, row_parts, row_top in zip(block, parts, np.abs(block, out=q).max(axis=1).tolist()):
        if 0.0 < row_top < _EXTRACT_CEILING:
            top = max(top, row_top)
        else:  # set aside; nan and inf tops are truthy
            row_parts += (row[row != 0].tolist() if row_top else
                          [-0.0 if np.signbit(row).all() else 0.0])
            row.fill(0.0)
    sigma = math.ldexp(1.0, M + math.frexp(top)[1]) if top else 0.0
    levels = []
    while sigma:
        if sigma < _EXTRACT_FLOOR:  # set every row's remainder aside
            for row, row_parts in zip(block, parts):
                row_parts += row[row != 0].tolist()
            break
        np.add(block, sigma, out=q)
        q -= sigma
        block -= q
        levels.append(q.sum(axis=1).tolist())
        if not block.any():
            break
        sigma *= shrink
    for row_parts, sums in zip(parts, zip(*levels)):
        row_parts += [s for s in sums if s]
    return parts if p.ndim > 1 else parts[0]


def squarefree_core(m: int) -> tuple[int, int]:
    """(core, k) with m = core * k^2 and core square-free, for m >= 1, by
    trial division."""
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
    return core * rest, k  # rest is 1 or a prime
