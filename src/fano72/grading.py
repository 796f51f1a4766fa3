"""Exponent tuples, weighted degrees, and graded monomial enumeration.

A monomial is its exponent tuple, ordered grlex and printed by
``monomial_text``; this module imports nothing from the package.  A weight
system gives each ring variable a positive integer degree.
``enumerate_monomials`` lists a graded piece by an odometer over exponents,
``hilbert_count`` counts it by the coin-change table, run for k weights
and degree d only to r + (k-1)*L (L the lcm of the weights, r = d mod L)
and then extended by the count's quasi-polynomial, so at most O(k*d) time
and O(d) memory: two cross-checking routes to one number, neither keeping
a memo.  Both refuse degrees above ``MAX_DEGREE``, and the
count refuses tables of more than 4 * ``MAX_DEGREE`` additions.  ``clip``
is the one rule for how much of a refused value a message quotes, and
``FrozenValue`` the one base of the package's small immutable values.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate, compress
from math import comb, gcd, lcm

Exponents = tuple[int, ...]


def monomial_text(exponents: Sequence[int], names: Sequence[str]) -> str:
    """Render an exponent tuple, e.g. ``x1^2*x3`` (empty string for the constant)."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in compress(zip(names, exponents), exponents))


def clip(value: object, limit: int = 20, render: Callable[[object], str] = str) -> str:
    """The text of value, ``render(value)``, cut to ``limit`` characters followed
    by ``...`` when longer.

    Never raises: a value whose ``str()`` or ``repr()`` refuses, as an int past
    CPython's 4300-digit limit or a Fraction or polynomial holding one, reads as
    a fixed text.
    """
    try:
        text = render(value)
    except ValueError:
        return "<int too long to print>"
    return text if len(text) <= limit else text[:limit] + "..."


class FrozenValue:
    """An immutable value whose fields, named in ``_fields``, fix its equality,
    hash and repr, as a frozen dataclass's do; assigning or deleting any
    attribute raises ``AttributeError``, and a copy, deep copy or unpickled
    value is rebuilt through ``__init__`` from the fields.

    A subclass's ``__init__`` sets each field once, through
    ``object.__setattr__``.  The package's seven values stand on this base:
    ``Polynomial`` (with its own hash, as its term dict has none),
    ``LinearSystem``, ``PencilCubic``, ``VerifyConfig``, ``SplitBundle``,
    ``RuledClass`` and ``WeightedProjectiveSpace``.  A plain
    class generates no code at import: as frozen dataclasses, the last five
    cost about 3 ms of start-up on a 2-core x86 host (CPython 3.11), and
    their modules loaded ``dataclasses`` and the ``inspect`` it imports.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, which sets the fields the refusing __setattr__ guards
        return type(self), self._values()

    def __setattr__(self, name, value=None):      # as __delattr__ too, with no value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """The weights as a tuple, checked to be nonempty integers >= 1, one per variable."""
    weights = tuple(weights)
    if not weights:
        raise ValueError("a weight system must be nonempty")
    for index, w in enumerate(weights):
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"weights must be integers >= 1, got {clip(w, render=repr)} "
                             f"at entry {index} of {len(weights)}")
    return weights


# Largest degree a graded piece may be asked for.  At this cap a Hilbert count
# of four weights whose lcm nears the cap, as (1, 1, 1, 10**6), fills a table
# of a million integers in about 0.35 s on a 2-core x86 host (CPython 3.11);
# with a small lcm, as (1, 1, 4, 6), it takes well under a millisecond.
MAX_DEGREE = 10 ** 6


def _check_degree(degree: int) -> None:
    if not isinstance(degree, int) or degree < 0:
        raise ValueError("degree must be a natural number")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {clip(degree)} exceeds the cap of {MAX_DEGREE}")


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
    found.sort(reverse=True)            # lex descending, then a stable pass
    found.sort(key=sum, reverse=True)   # by degree: grlex, in C, as poly's merge does
    return found


def hilbert_count(weights: Sequence[int], degree: int) -> int:
    """Number of monomials of weighted degree exactly ``degree``.

    Computed by the coin-change table, independently of
    :func:`enumerate_monomials`: after the weights w1..wj are folded in,
    ``ways[x]`` counts the monomials in the first j variables of weighted
    degree x, and folding in w adds ``ways[x - w]`` to ``ways[x]`` in
    increasing x.  The table stops at top = min(d, r + (k-1)*L), where
    L = lcm(w) and r = d mod L; past it the count is read off a polynomial.

    Why that is exact: 1/prod(1 - t^w) = Q(t)/(1 - t^L)^k with
    deg Q = sum(L - w) < k*L, so the coefficient of t^(q*L + r) is
    sum over j < k of Q[j*L + r] * C(q - j + k - 1, k - 1).  Read as a
    polynomial in q, each binomial vanishes at q - j = -1, ..., -(k-1), so
    for every q >= 0 the count is one polynomial of degree < k in q.  Its
    values at q = 0..k-1 are table entries, and Newton's forward
    differences, sum of C(q, i) * delta^i, give it at q = d // L in
    integers (Stanley, Enumerative Combinatorics I, 4.4).  L is built
    weight by weight and abandoned once it passes d, when the table runs to
    d, so huge weights cost no huge lcm.

    Work: at most k*(top + 1) <= k*(d + 1) additions, plus k*(k-1)/2
    subtractions when d >= k*L, and one list of top + 1 integers, built
    afresh per call; nothing is memoised.  Refuses k*d above
    4 * ``MAX_DEGREE``, so four weights at the degree cap still fit.
    """
    _check_degree(degree)
    weights = check_weights(weights)
    if len(weights) * degree > 4 * MAX_DEGREE:
        raise ValueError(f"{len(weights)} weights at degree {degree} exceed the "
                         f"table-work cap of {4 * MAX_DEGREE} (weights times degree)")
    k, period = len(weights), 1
    for w in weights:
        period = lcm(period, w)
        if period > degree:
            break
    residue = degree % period
    top = min(degree, residue + (k - 1) * period)
    ways = [1] + [0] * top
    for w in weights:
        for x in range(w, top + 1):
            ways[x] += ways[x - w]
    if top == degree:
        return ways[degree]
    differences = ways[residue::period]     # the count at q = 0..k-1
    q, count = degree // period, 0
    for i in range(k):
        count += comb(q, i) * differences[0]
        differences = [b - a for a, b in zip(differences, differences[1:])]
    return count
