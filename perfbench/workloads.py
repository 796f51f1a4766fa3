"""Seeded inputs for the fano72 benchmark workloads.

This module is the benchmark's own and imports nothing from fano72: the
program under test only ever sees the inputs generated here.  Each workload
is an endless sequence of ops drawn from one seed, so a run that executes
the first n ops sees the same inputs whatever its speed.

The ops of one workload are drawn to cost about the same (see each
generator).  The host this benchmark was tuned on swings between a fast
and a contended speed about 1.7x apart, for seconds at a time, so the
steady statistic of a run is the fast end of its op times; that end reads
the same from seed to seed only if the ops themselves do not spread.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("verify-default", "verify-sweep", "hilbert-cold")

# verify-sweep: |p| and q log-uniform in [1, 10^HEIGHT_DIGITS].  The height is
# not lowered to spare the trial-division root finder: that cost is real
# `--xi` traffic.
HEIGHT_DIGITS = 4

# hilbert-cold: loop iterations of the memoised Hilbert recursion per query.
# On a 2-core x86 machine with CPython 3.11 that is 0.15-0.25 s per query,
# at degrees from about 500 to 1100 depending on the weights.
HILBERT_WORK = 5e5
HILBERT_MAX_WEIGHT = 6


def ops(workload: str, seed: int) -> Iterator[dict]:
    """The workload's ops, determined by the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"verify-default": _default_op, "verify-sweep": _sweep_op,
            "hilbert-cold": _hilbert_op}[workload]
    while True:
        yield make(rng)


def _default_op(rng: random.Random) -> dict:
    return {"xi": None, "seed": rng.randrange(2 ** 31)}


def _height(u: float) -> int:
    return min(10 ** HEIGHT_DIGITS, max(1, round(10 ** (HEIGHT_DIGITS * u))))


def _sweep_op(rng: random.Random) -> dict:
    """A pencil with roots p/q whose six heights |p1|, q1, ..., |p3|, q3 are log-uniform.

    The six log-heights take one point in each sixth of [0, HEIGHT_DIGITS],
    in random order: each height alone is log-uniform, and every pencil
    carries about the same total height, so pencils cost about the same.
    """
    while True:
        strata = list(range(6))
        rng.shuffle(strata)
        heights = [_height((k + rng.random()) / 6) for k in strata]
        roots = {Fraction(rng.choice((-1, 1)) * heights[2 * i], heights[2 * i + 1])
                 for i in range(3)}
        if len(roots) == 3:
            break
    roots = sorted(roots)
    return {"xi": cubic_text(roots), "seed": rng.randrange(2 ** 31),
            "roots": [str(r) for r in roots]}


def cubic_text(roots: list[Fraction]) -> str:
    """Integer cubic prod(q*x2 - p*x1) over the roots p/q, in fano72's text grammar."""
    coefficients = [1]                      # coefficients[k] multiplies x1^k * x2^(3-k)
    for root in roots:
        p, q = root.numerator, root.denominator
        shifted = coefficients + [0]
        coefficients = [q * shifted[k] - (p * shifted[k - 1] if k else 0)
                        for k in range(len(shifted))]
    terms = []
    for k, c in enumerate(coefficients):
        if c:
            factors = [str(abs(c))] + _power("x1", k) + _power("x2", 3 - k)
            terms.append(f"{'-' if c < 0 else '+'} {'*'.join(factors)}")
    return " ".join(terms).removeprefix("+ ")


def _power(name: str, exponent: int) -> list[str]:
    return [] if exponent == 0 else [name] if exponent == 1 else [f"{name}^{exponent}"]


def recursion_work(weights: tuple[int, ...], degree: int) -> int:
    """Loop iterations of fano72's memoised Hilbert recursion for one query.

    The recursion evaluates each distinct (weight prefix, degree) state once
    and loops degree // last_weight + 1 times in it; this counts those loops
    exactly in O(len(weights) * degree).  Query time is proportional to it.
    """
    level = {degree}
    total = 0
    for w in reversed(weights):
        total += sum(x // w + 1 for x in level)
        top: dict[int, int] = {}
        for x in level:
            if x > top.get(x % w, -1):
                top[x % w] = x
        level = {y for r, m in top.items() for y in range(r, m + 1, w)}
    return total


def degree_for_work(weights: tuple[int, ...], work: float) -> int:
    """Degree at which the recursion's work is about ``work`` (it grows as degree^2)."""
    degree = max(1, round((2 * work / len(weights)) ** 0.5))
    for _ in range(4):
        degree = max(1, round(degree * (work / recursion_work(weights, degree)) ** 0.5))
    return degree


def _hilbert_op(rng: random.Random) -> dict:
    """Weights (1, w2, ..., wk), k in {4, 5}, at the degree where the recursion does HILBERT_WORK."""
    size = rng.choice((4, 5))
    weights = (1,) + tuple(sorted(rng.randint(1, HILBERT_MAX_WEIGHT) for _ in range(size - 1)))
    return {"weights": list(weights), "degree": degree_for_work(weights, HILBERT_WORK)}
