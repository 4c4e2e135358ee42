import math

import numpy as np
import pytest

from cygshell import arith, gapwidth


@pytest.fixture(scope="session")
def r2_10k():
    return arith.build_r2(10_000)


@pytest.fixture(scope="session")
def r2_200k():
    return arith.build_r2(200_000)


@pytest.fixture(scope="session")
def inv_log():
    return gapwidth.make_slowly_varying("inv_log")


@pytest.fixture(scope="session")
def product_gap():
    """The mixture benchmark's gap width: (1 + z)(2 + z), lambda = (1, sqrt 2), A = 2."""
    return gapwidth.make_almost_periodic(gapwidth.AlmostPeriodicGap(
        polys=((1, 1), (2, 1)), lambdas=(1.0, math.sqrt(2.0)), exponent=2, mode="product"))


@pytest.fixture(scope="session")
def zero_gap():
    """Degenerate omega == 0, which GapWidth.on_grid rejects."""
    return gapwidth.GapWidth(
        name="zero",
        jet=lambda L, order: [np.zeros_like(np.asarray(L, dtype=float))] * (order + 1),
    )


def r2_direct_enumeration(m: int) -> int:
    """Independent oracle: count representations of m by direct trial."""
    count = 0
    r = math.isqrt(m)
    for a in range(-r, r + 1):
        rem = m - a * a
        if rem < 0:
            continue
        s = math.isqrt(rem)
        if s * s == rem:
            count += 1 if s == 0 else 2
    return count
