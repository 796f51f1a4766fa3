"""A fixed reference workload that tracks the host's momentary speed.

The host this benchmark was tuned on swings between a fast and a contended
speed up to 2x apart, for seconds to minutes at a time, so raw wall times
of one op move by 20-40% from run to run.  Each timed op is therefore
bracketed by this reference, and reported in reference units: op time
divided by the mean of the reference times just before and after it.  The
reference does what fano72's hot paths do, with the standard library only:
products of sparse polynomials with Fraction coefficients keyed by exponent
tuples, a graded sort, and a memoised integer recursion.  A CLI sample,
which is mostly interpreter start-up, is divided instead by the wall time
of a fresh interpreter running this file (see the end).  It is the
benchmark's own code, so it stays the same from one commit of fano72 to
the next, and the ratio moves only when fano72 does.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

_LEFT = {(i, 5 - i % 6, i % 3, 1): Fraction(7 * i - 20, 1 + i % 4) for i in range(24)}
_RIGHT = {(i % 5, i % 3, 2, i % 4): Fraction(3 - i, 1 + i % 3) for i in range(14)}


def _product() -> list:
    out: dict = {}
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return sorted(out, key=lambda e: (sum(e), e), reverse=True)


def _count(weights: tuple[int, ...], degree: int, memo: dict) -> int:
    if not weights:
        return 1 if degree == 0 else 0
    key = (weights, degree)
    if key not in memo:
        memo[key] = sum(_count(weights[:-1], degree - j * weights[-1], memo)
                        for j in range(degree // weights[-1] + 1))
    return memo[key]


def reference_s() -> float:
    """Wall time of one fixed unit of reference work (about 10 ms on a 2-core x86 machine)."""
    start = perf_counter()
    for _ in range(3):
        _product()
    _count((1, 2, 3, 5), 60, {})
    return perf_counter() - start


if __name__ == "__main__":
    # A reference process: interpreter start-up plus this many reference units.
    for _ in range(int(sys.argv[1])):
        reference_s()
