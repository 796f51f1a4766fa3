"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero coefficients, each an
``int`` if integral and a ``fractions.Fraction`` otherwise, tagged with the
tuple of variable names it lives over (its ring).  Values are immutable and
kept in canonical form: zero coefficients are dropped and terms are ordered
graded-lexicographically by the declared variable order, leading term first.
All arithmetic is exact, so polynomial identities can be tested with ``==``.
Sums, products, substitutions, exact division and a scalar operand merge
their terms in one shared loop.  Only a shift by a one-term factor c*x^s
skips it (``-f``, ``f / c``, an exact quotient by one term, a one-term
image in a substitution): grlex is a monomial order, so adding s to every
exponent, or taking it from exponents that reach it, keeps the term order
and no two terms collide.  Each special case beside a general route in the
package names its price, "verify runs +a% / +b%": the in-process ``run_all``
time the general route adds on perfbench's verify-default / verify-sweep
ops (2-core x86, CPython 3.11, medians of 50 interleaved rounds).

The text format round-trips bit-exactly through :func:`parse_polynomial`
and ``str()``::

    poly    ::= sign? term (sign term)*
    sign    ::= '+' | '-'
    term    ::= coeff ('*' factor)* | factor ('*' factor)*
    coeff   ::= integer ('/' integer)?
    factor  ::= varname ('^' integer)?
    integer ::= digit+
    varname ::= [A-Za-z_] [A-Za-z_0-9]*

Whitespace may surround any token.  A digit is any Unicode decimal digit, as
``int()`` reads it; denominators are nonzero, and no literal is longer than
``int()``'s digit limit.  An integer literal stays an ``int``; only a
literal with '/' makes a Fraction.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, mul, neg

from .grading import Exponents, FrozenValue, check_weights, clip, monomial_text

Coefficient = int | Fraction


class ArityError(ValueError):
    """Operands do not share a ring, or an exponent tuple has the wrong length."""


class SubstitutionError(ValueError):
    """A substitution map is unusable (missing image or mixed target rings)."""


class ExactDivisionError(ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class ParseError(ValueError):
    """Polynomial text does not match the grammar or the ring declaration."""


def _checked_terms(ring: tuple[str, ...], terms: Iterable[tuple[Sequence[int], Coefficient]]
                   ) -> Iterator[tuple[Exponents, Coefficient]]:
    """Caller terms, exponent tuples checked, every non-``int`` coefficient a Fraction."""
    arity = len(ring)
    for exponents, coefficient in terms:
        exponents = tuple(exponents)
        if len(exponents) != arity:
            raise ArityError(
                f"exponent tuple {clip(exponents)} has length {len(exponents)}, "
                f"ring has {arity} variables")
        if any(e < 0 or not isinstance(e, int) for e in exponents):
            raise ValueError(f"exponents must be natural numbers, got {clip(exponents)}")
        if type(coefficient) is not int:    # a bool too: it ends as the int it equals
            coefficient = Fraction(coefficient)
        yield exponents, coefficient


def _merged_terms(terms: Iterable[tuple[Exponents, Coefficient]]) -> dict[Exponents, Coefficient]:
    """The one merge loop: collisions summed, zeros dropped, grlex order, integral values as int."""
    merged: dict[Exponents, Coefficient] = {}
    for exponents, coefficient in terms:
        if not coefficient:
            continue
        total = merged.get(exponents)
        if total is None:                           # a first term is stored, not added to 0
            merged[exponents] = coefficient
        elif total := total + coefficient:
            merged[exponents] = total
        else:
            del merged[exponents]
    order = sorted(merged, reverse=True)            # lex descending, then a stable
    order.sort(key=sum, reverse=True)               # pass by degree: grlex, in C
    return {e: c if (c := merged[e]).denominator > 1 else c.numerator for e in order}


class Polynomial(FrozenValue):
    """An immutable sparse polynomial over the rationals.

    ``ring`` is the tuple of variable names; ``terms`` maps exponent tuples
    to nonzero coefficients.  Construction normalizes: coefficients become
    ``int`` if integral, else ``Fraction``; zero terms drop; the order is fixed.
    Caller terms are checked (arity, natural exponents) once, here; every
    other construction builds exponents from valid ones and merges them
    (``_from_valid_terms``), shifts them (``_shifted``), or takes a term
    dict that is canonical already (``_canonical``).  As a ``FrozenValue``
    it equals only a polynomial of the same ring and terms, and a copy or
    an unpickled one is rebuilt through the constructor, checked and merged
    again; the hash is its own, of the term pairs, since a dict has none.
    """

    __slots__ = _fields = ("ring", "_terms")

    def __init__(self, ring: Sequence[str],
                 terms: Mapping[Exponents, Coefficient] | Iterable[tuple[Exponents, Coefficient]] = ()):
        ring = tuple(ring)
        if not ring:
            raise ValueError("a polynomial ring needs at least one variable")
        if isinstance(terms, Mapping):
            terms = terms.items()
        super().__init__(ring, _merged_terms(_checked_terms(ring, terms)))

    @classmethod
    def _canonical(cls, ring: tuple[str, ...], terms: dict[Exponents, Coefficient]) -> Polynomial:
        """The polynomial of a term dict in canonical form already: no check, no merge.

        Its slots are filled through their descriptors, ``_set_ring`` and
        ``_set_terms`` (through the one field writer, ``FrozenValue.__init__``:
        verify runs +11% / +9.2%).
        """
        p = object.__new__(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        return p

    @classmethod
    def _from_valid_terms(cls, ring: tuple[str, ...],
                          terms: Iterable[tuple[Exponents, Coefficient]]) -> Polynomial:
        """Merge terms whose exponent tuples are already valid for ``ring`` and whose
        coefficients are ``int`` or ``Fraction``: the constructor minus its checks."""
        return cls._canonical(ring, _merged_terms(terms))

    def _shifted(self, shift: Sequence[int], factor: Coefficient) -> Polynomial:
        """self * factor*x^shift for a nonzero factor, without the merge loop.

        The caller sees that every shifted exponent stays natural (a negative
        shift only after a divisibility check).  A shift keeps the grlex
        order, so no terms collide; a product of nonzero values is nonzero,
        and an integral one is stored as ``int``, as ``_merged_terms`` does.
        """
        return self._canonical(self.ring, {tuple(map(add, e, shift)):
                                           c if (c := k * factor).denominator > 1 else c.numerator
                                           for e, k in self._terms.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Sequence[str]) -> Polynomial:
        return cls(ring)

    @classmethod
    def constant(cls, ring: Sequence[str], value: Coefficient) -> Polynomial:
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): value})

    @classmethod
    def variable(cls, ring: Sequence[str], name: str) -> Polynomial:
        ring = tuple(ring)
        if name not in ring:
            raise ArityError(f"variable {clip(name, render=repr)} is not in the ring {clip(ring, 60)}")
        exponents = tuple(1 if v == name else 0 for v in ring)
        return cls(ring, {exponents: 1})

    @classmethod
    def monomial(cls, ring: Sequence[str], exponents: Sequence[int],
                 coefficient: Coefficient = 1) -> Polynomial:
        return cls(ring, {tuple(exponents): coefficient})

    # -- inspection ---------------------------------------------------

    def items(self) -> tuple[tuple[Exponents, Coefficient], ...]:
        """All (exponents, coefficient) pairs in canonical order, leading first."""
        return tuple(self._terms.items())

    def monomials(self) -> tuple[Exponents, ...]:
        return tuple(self._terms)

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        return self._terms.get(tuple(exponents), 0)

    def leading_term(self) -> tuple[Exponents, Coefficient]:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        exponents = next(iter(self._terms))
        return exponents, self._terms[exponents]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def uses_variable(self, name: str) -> bool:
        i = self._index(name)
        return any(e[i] for e in self._terms)

    def degree_in(self, names: Sequence[str]) -> int:
        """Maximal combined degree of the given variables over all terms (0 if zero)."""
        idx = [self._index(n) for n in names]
        if not self._terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self._terms)

    def _index(self, name: str) -> int:
        try:
            return self.ring.index(name)
        except ValueError:
            raise ArityError(f"variable {clip(name, render=repr)} is not in the ring "
                             f"{clip(self.ring, 60)}") from None

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ArityError(f"ring mismatch: {clip(self.ring, 60)} vs {clip(other.ring, 60)}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial._from_valid_terms(self.ring, (((0,) * len(self.ring), other),))
        return None

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._from_valid_terms(self.ring,
                                            (*self._terms.items(), *other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return self._shifted((0,) * len(self.ring), -1)

    def __sub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._from_valid_terms(self.ring, ((tuple(map(add, e1, e2)), c1 * c2)
                                                        for e1, c1 in self._terms.items()
                                                        for e2, c2 in other._terms.items()))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Polynomial:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self._shifted((0,) * len(self.ring), 1 / Fraction(scalar))

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power requires a natural exponent, "
                             f"got {clip(exponent, render=repr)}")
        if not exponent:
            return self._coerce(1)
        result = self       # square and multiply by self, the leading bit done
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __hash__(self) -> int:
        return hash((self.ring, tuple(self._terms.items())))

    # -- substitution and division -------------------------------------

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Replace every variable by its image polynomial; see :func:`substitute_all`."""
        return substitute_all((self,), images)[0]

    def exact_divide(self, divisor: Polynomial) -> Polynomial:
        """Return q with self == q * divisor, or raise ExactDivisionError.

        A one-term divisor c*x^s divides iff every term reaches s in each
        variable s uses, and the quotient is a shift by -s times 1/c, with no
        merge loop (through the heap division: verify runs +8% / +6.5%).  Any
        other divisor: division in the canonical term order, whose
        quotient/remainder split is unique, so a leading term that fails to
        divide certifies indivisibility.  That leading term comes off a heap
        of the remainder's exponents, keyed by (-degree, -exponents); one
        cancelled since it entered is skipped.  A quotient step stays in
        ``int`` when both leading coefficients are ``int`` and the divisor's
        divides the remainder's: no verify run reaches it, but dividing
        (x1+x2+x3+x4)^20*(x1+2*x2+3*x3) by its last factor takes 11 ms with
        it and 31 ms without.
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise ArityError("exact_divide requires a polynomial divisor")
        if not divisor:
            raise ZeroDivisionError("exact division by the zero polynomial")
        lead_exponents, lead_coefficient = divisor.leading_term()
        if len(divisor) == 1:
            used = [(i, s) for i, s in enumerate(lead_exponents) if s]
            if all(e[i] >= s for e in self._terms for i, s in used):
                return self._shifted(tuple(-s for s in lead_exponents),
                                     1 if lead_coefficient == 1 else 1 / Fraction(lead_coefficient))
        else:
            remainder = dict(self._terms)
            heap = [(-sum(e), tuple(map(neg, e)), e) for e in remainder]
            heapify(heap)
            quotient: dict[Exponents, Coefficient] = {}
            while remainder:
                r_exponents = heappop(heap)[2]
                if r_exponents not in remainder:
                    continue
                shift = tuple(a - b for a, b in zip(r_exponents, lead_exponents))
                if any(s < 0 for s in shift):
                    break
                r = remainder[r_exponents]
                factor = (r // lead_coefficient if type(r) is type(lead_coefficient) is int
                          and not r % lead_coefficient else Fraction(r) / lead_coefficient)
                quotient[shift] = factor
                for exponents, coefficient in divisor._terms.items():
                    target = tuple(map(add, shift, exponents))
                    if target not in remainder:
                        heappush(heap, (-sum(target), tuple(map(neg, target)), target))
                    total = remainder.get(target, 0) - factor * coefficient
                    if total:
                        remainder[target] = total
                    else:
                        remainder.pop(target, None)
            else:                           # no break: the remainder is zero
                return Polynomial._from_valid_terms(self.ring, quotient.items())
        raise ExactDivisionError(f"{clip(divisor, 60)} does not divide {clip(self, 60)}")

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for position, (exponents, coefficient) in enumerate(self._terms.items()):
            monomial = monomial_text(exponents, self.ring)
            if position == 0:
                pieces.append(_term_text(coefficient, monomial))
            else:
                sign = " + " if coefficient > 0 else " - "
                pieces.append(sign + _term_text(abs(coefficient), monomial))
        return "".join(pieces)

    __repr__ = __str__


# The slots' own setters, for _canonical alone: they bypass the refusing __setattr__.
_set_ring = Polynomial.ring.__set__
_set_terms = Polynomial._terms.__set__


def substitute_all(polys: Iterable[Polynomial],
                   images: Mapping[str, Polynomial]) -> list[Polynomial]:
    """Replace every variable of each polynomial by its image, fully expanded.

    All images share one target ring, the ring of the results; each variable
    that occurs needs an image.  A single-term image k*m raised to the power e
    is a shift of the exponents by e*m and a factor k^e, so no product is
    formed for it.  The powers of the other images (the zero image among
    them) that a term asks for are multiplied together once per call, from
    memoised image powers (the first is the image itself), starting from the
    first factor, and memoised by the tuple of (variable, exponent) pairs;
    each term then shifts and scales that product, a one-term polynomial's
    image without the merge loop (merged: verify runs +5.8% / +4.4%).  No
    memo outlives the call.
    """
    if not images:
        raise SubstitutionError("substitution needs at least one image to fix the target ring")
    target = None
    for name, image in images.items():
        if not isinstance(image, Polynomial):
            raise SubstitutionError(f"image of {clip(name, render=repr)} is not a Polynomial")
        if target is None:
            target = image.ring
        elif image.ring != target:
            raise SubstitutionError(
                f"images live in different rings: {clip(target, 60)} vs {clip(image.ring, 60)}")
    unit = (0,) * len(target)
    one = Polynomial._canonical(target, {unit: 1})
    single = {name: image.leading_term() for name, image in images.items() if len(image) == 1}
    powers: dict[str, list[Polynomial]] = {}
    products: dict[tuple[tuple[str, int], ...], Polynomial] = {}

    def image_power(name: str, k: int) -> Polynomial:
        cache = powers.setdefault(name, [one, images[name]])
        while len(cache) <= k:
            cache.append(cache[-1] * images[name])
        return cache[k]

    results = []
    for p in polys:
        scaled: list[tuple[Polynomial, Exponents, Coefficient]] = []
        for exponents, coefficient in p._terms.items():
            shift, key = unit, []
            for name, e in zip(p.ring, exponents):
                if not e:
                    continue
                if name not in images:
                    raise SubstitutionError(
                        f"no image for variable {clip(name, render=repr)} "
                        f"occurring in {clip(p, 60)}")
                if name in single:
                    monomial, factor = single[name]
                    shift = tuple([s + e * i for s, i in zip(shift, monomial)])
                    coefficient *= factor ** e
                else:
                    key.append((name, e))
            key = tuple(key)
            product = products.get(key)
            if product is None:
                product = image_power(*key[0]) if key else one
                for name, e in key[1:]:
                    product = product * image_power(name, e)
                products[key] = product
            scaled.append((product, shift, coefficient))
        if len(scaled) == 1:                # one term: its image is one shifted product
            product, shift, coefficient = scaled[0]
            results.append(product._shifted(shift, coefficient))
        else:
            results.append(Polynomial._from_valid_terms(target, (
                (tuple(map(add, m, shift)), coefficient * k)
                for product, shift, coefficient in scaled for m, k in product._terms.items())))
    return results


def is_homogeneous(f: Polynomial, weights: Sequence[int]) -> int | None:
    """The weighted degree all terms of f share; None if f is zero or its terms disagree."""
    weights = check_weights(weights)
    if len(f.ring) != len(weights):
        raise ArityError(f"ring arity {len(f.ring)} does not match weight arity {len(weights)}")
    degrees = {sum(map(mul, exponents, weights)) for exponents in f._terms}
    return degrees.pop() if len(degrees) == 1 else None


def _term_text(coefficient: Coefficient, monomial: str) -> str:
    if not monomial:
        return str(coefficient)
    if coefficient == 1:
        return monomial
    return f"{coefficient}*{monomial}"


def generators(ring: Sequence[str]) -> tuple[Polynomial, ...]:
    """One variable polynomial per ring variable, in ring order."""
    ring = tuple(ring)
    return tuple(Polynomial.variable(ring, name) for name in ring)


# The grammar above as one pattern, kept a string so that re compiles it on the
# first parse, not at import.  A sign is ``(?:[-+]\s*)?``: ``[-+]?\s*`` after
# ``\s*`` would backtrack quadratically on a long run of whitespace.
_FACTOR = r"[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*\d+)?"
_TERM = rf"(?:\d+(?:\s*/\s*\d+)?|{_FACTOR})(?:\s*\*\s*{_FACTOR})*"
_POLYNOMIAL = rf"\s*(?:[-+]\s*)?{_TERM}(?:\s*[-+]\s*{_TERM})*\s*"


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # the only literals int() refuses are over-long ones
        raise ParseError(f"integer literal {clip(digits.strip())!r} is longer than "
                         f"int()'s limit of {sys.get_int_max_str_digits()} digits") from None


def parse_polynomial(text: str, ring: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ring; inverse of ``str()``.

    An integer literal stays an ``int``; only a literal with '/' makes a Fraction.
    """
    ring = tuple(ring)
    match = re.match(_POLYNOMIAL, text)    # greedy: the longest prefix the grammar accepts
    stop = match.end() if match else 0
    if match is None or stop < len(text):
        raise ParseError(f"polynomial text does not match the grammar at column {stop + 1}: "
                         f"{clip(text[stop:])!r}")
    terms: list[tuple[Exponents, Coefficient]] = []
    for sign, body in re.findall(r"\s*([-+]?)([^-+]+)", text):
        coefficient = -1 if sign == "-" else 1
        exponents = [0] * len(ring)
        for piece in body.split("*"):
            piece = piece.strip()
            if piece[0].isdigit():
                numerator, slash, denominator = piece.partition("/")
                if slash:
                    denominator = _integer(denominator)
                    if not denominator:
                        raise ParseError("expected a positive integer denominator after '/'")
                    coefficient *= Fraction(_integer(numerator), denominator)
                else:
                    coefficient *= _integer(numerator)
            else:
                name, _, power = piece.partition("^")
                name = name.rstrip()
                if name not in ring:
                    raise ParseError(f"variable {clip(name)!r} is not declared "
                                     f"in the ring {clip(ring, 60)}")
                exponents[ring.index(name)] += _integer(power) if power else 1
        terms.append((tuple(exponents), coefficient))
    return Polynomial(ring, terms)
