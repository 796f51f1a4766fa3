"""Derived data of a weighted projective space.

Only well-formed spaces are representable: dropping any one weight must
leave a coprime tuple, so the space carries no hidden quasi-reflection.
The anticanonical sheaf is O(sum of weights); its self-intersection number
(sum)^dim / product is returned as an exact rational, which happens to be
the integer 72 for both P(1,1,4,6) and P(1,1,1,3).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, prod

from .grading import Exponents, FrozenValue, check_weights, clip, enumerate_monomials


class WeightedProjectiveSpace(FrozenValue):
    """A well-formed weighted projective space P(w0, ..., wn)."""

    __slots__ = _fields = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights):
        ws = check_weights(weights)
        if len(ws) < 2:
            raise ValueError("a projective space needs at least two weights")
        # gcd of the weights before index i, and of those from index i on
        before = list(accumulate(ws, gcd, initial=0))
        after = list(accumulate(reversed(ws), gcd, initial=0))[::-1]
        for omit in range(len(ws)):
            g = gcd(before[omit], after[omit + 1])
            if g != 1:
                raise ValueError(f"weight {clip(ws[omit])} at entry {omit} of {len(ws)} breaks "
                                 f"well-formedness: omitting entry {omit} leaves gcd {clip(g)}")
        super().__init__(ws)

    def __repr__(self) -> str:
        return f"P{self.weights}"

    @property
    def dimension(self) -> int:
        return len(self.weights) - 1

    def anticanonical_weight(self) -> int:
        """Weighted degree of the anticanonical sheaf: the sum of the weights."""
        return sum(self.weights)

    def anticanonical_selfintersection(self) -> Fraction:
        """(-K)^dim as an exact rational: (sum of weights)^dim / (product of weights)."""
        return Fraction(self.anticanonical_weight() ** self.dimension,
                        prod(self.weights))

    def anticanonical_basis(self) -> list[Exponents]:
        """Monomial basis of the anticanonical graded piece, canonical order."""
        return enumerate_monomials(self.weights, self.anticanonical_weight())
