"""Split bundles on the projective line and the ruled-surface intersection form.

Every bundle handled here is a direct sum of line bundles O(d), stored as
the multiset of its twists.  Global sections on P^1 follow the closed form
h^0(O(d)) = max(0, d + 1), so symmetric powers, twists, and the dimensions
of tautological linear systems on the projectivized bundle reduce to
integer bookkeeping.  The intersection form on the Hirzebruch surface F_e
is the standard one: E^2 = -e, E.F = 1, F^2 = 0.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .grading import FrozenValue, clip


class SplitBundle(FrozenValue):
    """A direct sum of line bundles on P^1, as the sorted multiset of twists."""

    __slots__ = _fields = ("twists",)
    twists: tuple[int, ...]

    def __init__(self, twists):
        twists = tuple(twists)
        if not twists:
            raise ValueError("a split bundle needs at least one summand")
        if any(not isinstance(t, int) for t in twists):
            raise ValueError(f"twists must be integers, got {clip(twists)}")
        super().__init__(tuple(sorted(twists)))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def sym_power(self, m: int) -> SplitBundle:
        """m-th symmetric power: all sums of m twists with repetition."""
        if not isinstance(m, int) or m < 0:
            raise ValueError("symmetric power requires a natural exponent")
        return SplitBundle(sum(choice) for choice
                           in combinations_with_replacement(self.twists, m))

    def twist(self, k: int) -> SplitBundle:
        """Tensor by O(k): add k to every summand."""
        return SplitBundle(t + k for t in self.twists)

    def h0(self) -> int:
        """Dimension of the space of global sections: sum of max(0, d + 1)."""
        return sum(max(0, t + 1) for t in self.twists)


def system_dim(bundle: SplitBundle, a: int, b: int) -> int:
    """Projective dimension of |a*L + b*P| on P(bundle); -1 means empty.

    L is the tautological class and P the fibre class, a a natural number.
    Sections of a*L + b*P push down to Sym^a(bundle) twisted by b.
    """
    return bundle.sym_power(a).twist(b).h0() - 1


class RuledClass(FrozenValue):
    """An integer divisor class a*E + b*F on the Hirzebruch surface F_e."""

    __slots__ = _fields = ("e", "a", "b")
    e: int
    a: int
    b: int

    def __init__(self, e: int, a: int, b: int):
        if any(not isinstance(v, int) for v in (e, a, b)):
            raise ValueError(f"e, a and b must be integers, got {clip((e, a, b))}")
        if e < 0:
            raise ValueError("the Hirzebruch invariant e must be a natural number")
        super().__init__(e, a, b)

    def intersect(self, other: RuledClass) -> int:
        """Intersection number, bilinear in both classes."""
        if not isinstance(other, RuledClass):
            raise TypeError("intersect expects another RuledClass")
        if self.e != other.e:
            raise ValueError(f"classes live on different surfaces: F_{clip(self.e)} "
                             f"vs F_{clip(other.e)}")
        return (-self.e) * self.a * other.a + self.a * other.b + self.b * other.a
