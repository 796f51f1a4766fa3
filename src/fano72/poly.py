"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero coefficients, each an
``int`` if integral and a ``fractions.Fraction`` otherwise, tagged with the
tuple of variable names it lives over (its ring).  Values are immutable and
kept in canonical form: zero coefficients are dropped and terms are ordered
graded-lexicographically by the declared variable order, leading term first.
All arithmetic is exact, so polynomial identities can be tested with ``==``.

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
``int()``'s digit limit.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from operator import add

Exponents = tuple[int, ...]
Coefficient = int | Fraction


class ArityError(ValueError):
    """Operands do not share a ring, or an exponent tuple has the wrong length."""


class SubstitutionError(ValueError):
    """A substitution map is unusable (missing image or mixed target rings)."""


class ExactDivisionError(ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class ParseError(ValueError):
    """Polynomial text does not match the grammar or the ring declaration."""


def grlex_key(exponents: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing graded lexicographic order on exponent tuples."""
    exponents = tuple(exponents)
    return (sum(exponents), exponents)


def _checked_terms(ring: tuple[str, ...], terms: Iterable[tuple[Sequence[int], Coefficient]]
                   ) -> Iterator[tuple[Exponents, Coefficient]]:
    """Caller terms, exponent tuples checked, every non-``int`` coefficient a Fraction."""
    arity = len(ring)
    for exponents, coefficient in terms:
        exponents = tuple(exponents)
        if len(exponents) != arity:
            raise ArityError(
                f"exponent tuple {exponents} has length {len(exponents)}, ring has {arity} variables")
        if any(e < 0 or not isinstance(e, int) for e in exponents):
            raise ValueError(f"exponents must be natural numbers, got {exponents}")
        if type(coefficient) is not int:    # a bool too: it ends as the int it equals
            coefficient = Fraction(coefficient)
        yield exponents, coefficient


def _merged_terms(terms: Iterable[tuple[Exponents, Coefficient]]) -> dict[Exponents, Coefficient]:
    """The one merge loop: collisions summed, zeros dropped, grlex order, integral values as int."""
    merged: dict[Exponents, Coefficient] = {}
    for exponents, coefficient in terms:
        if not coefficient:
            continue
        total = merged.get(exponents, 0) + coefficient
        if total:
            merged[exponents] = total
        else:
            merged.pop(exponents, None)
    order = sorted(merged, reverse=True)            # lex descending, then a stable
    order.sort(key=sum, reverse=True)               # pass by degree: grlex, in C
    return {e: c if (c := merged[e]).denominator > 1 else c.numerator for e in order}


class Polynomial:
    """An immutable sparse polynomial over the rationals.

    ``ring`` is the tuple of variable names; ``terms`` maps exponent tuples
    to nonzero coefficients.  Construction normalizes: coefficients become
    ``int`` if integral, else ``Fraction``; zero terms drop; the order is fixed.
    Caller terms are checked (arity, natural exponents) once, here; ``+``,
    ``*``, :func:`substitute_all` and :meth:`exact_divide` build exponents
    from valid ones and hand their raw, possibly colliding terms to the
    same merge loop through the private ``_from_valid_terms``.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Sequence[str],
                 terms: Mapping[Exponents, Coefficient] | Iterable[tuple[Exponents, Coefficient]] = ()):
        ring = tuple(ring)
        if not ring:
            raise ValueError("a polynomial ring needs at least one variable")
        if isinstance(terms, Mapping):
            terms = terms.items()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", _merged_terms(_checked_terms(ring, terms)))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_valid_terms(cls, ring: tuple[str, ...],
                          terms: Iterable[tuple[Exponents, Coefficient]]) -> Polynomial:
        """Merge terms whose exponent tuples are already valid for ``ring`` and whose
        coefficients are ``int`` or ``Fraction``: the constructor minus its checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "_terms", _merged_terms(terms))
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
            raise ArityError(f"variable {name!r} is not in the ring {ring}")
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

    @property
    def is_zero(self) -> bool:
        return not self._terms

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
            raise ArityError(f"variable {name!r} is not in the ring {self.ring}") from None

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ArityError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ring, other)
        return None

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._from_valid_terms(self.ring,
                                            (*self._terms.items(), *other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_valid_terms(self.ring, ((e, -c) for e, c in self._terms.items()))

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
        return Polynomial(self.ring, {e: Fraction(c) / scalar for e, c in self._terms.items()})

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power requires a natural exponent, got {exponent!r}")
        result = Polynomial.constant(self.ring, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, tuple(self._terms.items()))))
        return self._hash

    # -- substitution and division -------------------------------------

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Replace every variable by its image polynomial; see :func:`substitute_all`."""
        return substitute_all((self,), images)[0]

    def exact_divide(self, divisor: Polynomial) -> Polynomial:
        """Return q with self == q * divisor, or raise ExactDivisionError.

        Single-divisor division with respect to the canonical term order;
        for one divisor the quotient/remainder split is unique, so a leading
        term that fails to divide certifies indivisibility.
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise ArityError("exact_divide requires a polynomial divisor")
        if divisor.is_zero:
            raise ZeroDivisionError("exact division by the zero polynomial")
        lead_exponents, lead_coefficient = divisor.leading_term()
        remainder = dict(self._terms)
        quotient: dict[Exponents, Coefficient] = {}
        while remainder:
            r_exponents = max(remainder, key=grlex_key)
            shift = tuple(a - b for a, b in zip(r_exponents, lead_exponents))
            if any(s < 0 for s in shift):
                raise ExactDivisionError(f"{divisor} does not divide {self}")
            factor = Fraction(remainder[r_exponents]) / lead_coefficient
            quotient[shift] = factor
            for exponents, coefficient in divisor._terms.items():
                target = tuple(map(add, shift, exponents))
                total = remainder.get(target, 0) - factor * coefficient
                if total:
                    remainder[target] = total
                else:
                    remainder.pop(target, None)
        return Polynomial._from_valid_terms(self.ring, quotient.items())

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
    each term then shifts and scales that product.  No memo outlives the call.
    """
    if not images:
        raise SubstitutionError("substitution needs at least one image to fix the target ring")
    target = None
    for name, image in images.items():
        if not isinstance(image, Polynomial):
            raise SubstitutionError(f"image of {name!r} is not a Polynomial")
        if target is None:
            target = image.ring
        elif image.ring != target:
            raise SubstitutionError(
                f"images live in different rings: {target} vs {image.ring}")
    unit = (0,) * len(target)
    one = Polynomial._from_valid_terms(target, ((unit, 1),))
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
        terms: list[tuple[Exponents, Coefficient]] = []
        for exponents, coefficient in p._terms.items():
            shift, key = unit, []
            for name, e in zip(p.ring, exponents):
                if not e:
                    continue
                if name not in images:
                    raise SubstitutionError(f"no image for variable {name!r} occurring in {p}")
                if name in single:
                    monomial, factor = single[name]
                    shift = tuple(s + e * i for s, i in zip(shift, monomial))
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
            terms.extend((tuple(map(add, m, shift)), coefficient * k)
                         for m, k in product._terms.items())
        results.append(Polynomial._from_valid_terms(target, terms))
    return results


def monomial_text(exponents: Sequence[int], names: Sequence[str]) -> str:
    """Render an exponent tuple, e.g. ``x1^2*x3`` (empty string for the constant)."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in compress(zip(names, exponents), exponents))


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
        raise ParseError(f"integer literal {digits.strip()[:20]!r} is longer than "
                         f"int()'s limit of {sys.get_int_max_str_digits()} digits") from None


def parse_polynomial(text: str, ring: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ring; inverse of ``str()``."""
    ring = tuple(ring)
    match = re.match(_POLYNOMIAL, text)    # greedy: the longest prefix the grammar accepts
    stop = match.end() if match else 0
    if match is None or stop < len(text):
        raise ParseError(f"polynomial text does not match the grammar at column {stop + 1}: "
                         f"{text[stop:stop + 20]!r}")
    terms: list[tuple[Exponents, Fraction]] = []
    for sign, body in re.findall(r"\s*([-+]?)([^-+]+)", text):
        coefficient = Fraction(-1 if sign == "-" else 1)
        exponents = [0] * len(ring)
        for piece in body.split("*"):
            piece = piece.strip()
            if piece[0].isdigit():
                numerator, _, denominator = piece.partition("/")
                denominator = _integer(denominator or "1")
                if not denominator:
                    raise ParseError("expected a positive integer denominator after '/'")
                coefficient *= Fraction(_integer(numerator), denominator)
            else:
                name, _, power = piece.partition("^")
                name = name.rstrip()
                if name not in ring:
                    raise ParseError(f"variable {name[:20]!r} is not declared in the ring {ring}")
                exponents[ring.index(name)] += _integer(power) if power else 1
        terms.append((tuple(exponents), coefficient))
    return Polynomial(ring, terms)
