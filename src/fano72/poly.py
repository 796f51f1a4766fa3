"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero ``fractions.Fraction``
coefficients, tagged with the tuple of variable names it lives over (its
ring).  Values are immutable and always kept in canonical form: zero
coefficients are dropped and terms are ordered graded-lexicographically
with respect to the declared variable order, leading term first.  All
arithmetic is exact, so polynomial identities can be tested with ``==``.

The text format round-trips bit-exactly through :func:`parse_polynomial`
and ``str()``::

    poly   ::= term (('+'|'-') term)*
    term   ::= coeff ('*' factor)* | factor ('*' factor)*
    coeff  ::= integer | integer '/' positive-integer
    factor ::= varname ('^' natural)?
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Coefficient = Union[int, Fraction]


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


def _canonical_terms(ring: tuple[str, ...],
                     terms: Iterable[tuple[Exponents, Coefficient]]) -> dict[Exponents, Fraction]:
    arity = len(ring)
    merged: dict[Exponents, Fraction] = {}
    for exponents, coefficient in terms:
        exponents = tuple(exponents)
        if len(exponents) != arity:
            raise ArityError(
                f"exponent tuple {exponents} has length {len(exponents)}, ring has {arity} variables")
        if any(e < 0 or not isinstance(e, int) for e in exponents):
            raise ValueError(f"exponents must be natural numbers, got {exponents}")
        coefficient = Fraction(coefficient)
        if not coefficient:
            continue
        total = merged.get(exponents, _ZERO) + coefficient
        if total:
            merged[exponents] = total
        else:
            merged.pop(exponents, None)
    return {e: merged[e] for e in sorted(merged, key=grlex_key, reverse=True)}


_ZERO = Fraction(0)


class Polynomial:
    """An immutable sparse polynomial over the rationals.

    ``ring`` is the tuple of variable names; ``terms`` maps exponent tuples
    to nonzero coefficients.  Construction normalizes: coefficients are
    coerced to ``Fraction``, zero terms dropped, and the term order fixed.
    It is the only place terms are merged: ``+``, ``*`` and
    :func:`substitute_all` hand it their raw, possibly colliding terms.
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
        object.__setattr__(self, "_terms", _canonical_terms(ring, terms))
        object.__setattr__(self, "_hash", None)

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

    def items(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """All (exponents, coefficient) pairs in canonical order, leading first."""
        return tuple(self._terms.items())

    def monomials(self) -> tuple[Exponents, ...]:
        return tuple(self._terms)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), _ZERO)

    def leading_term(self) -> tuple[Exponents, Fraction]:
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
        return Polynomial(self.ring, (*self._terms.items(), *other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

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
        return Polynomial(self.ring, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                      for e1, c1 in self._terms.items()
                                      for e2, c2 in other._terms.items()))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Polynomial:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial(self.ring, {e: c / scalar for e, c in self._terms.items()})

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
        quotient: dict[Exponents, Fraction] = {}
        while remainder:
            r_exponents = max(remainder, key=grlex_key)
            shift = tuple(a - b for a, b in zip(r_exponents, lead_exponents))
            if any(s < 0 for s in shift):
                raise ExactDivisionError(f"{divisor} does not divide {self}")
            factor = remainder[r_exponents] / lead_coefficient
            quotient[shift] = factor
            for exponents, coefficient in divisor._terms.items():
                target = tuple(a + b for a, b in zip(shift, exponents))
                total = remainder.get(target, _ZERO) - factor * coefficient
                if total:
                    remainder[target] = total
                else:
                    remainder.pop(target, None)
        return Polynomial(self.ring, quotient)

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
    that occurs needs an image.  Each image power is built once per batch.
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
    powers: dict[str, list[Polynomial]] = {}

    def image_power(name: str, k: int) -> Polynomial:
        cache = powers.setdefault(name, [Polynomial.constant(target, 1)])
        while len(cache) <= k:
            cache.append(cache[-1] * images[name])
        return cache[k]

    results = []
    for p in polys:
        terms: list[tuple[Exponents, Fraction]] = []
        for exponents, coefficient in p._terms.items():
            term = Polynomial.constant(target, coefficient)
            for name, e in zip(p.ring, exponents):
                if not e:
                    continue
                if name not in images:
                    raise SubstitutionError(f"no image for variable {name!r} occurring in {p}")
                term = term * image_power(name, e)
            terms.extend(term.items())
        results.append(Polynomial(target, terms))
    return results


def monomial_text(exponents: Sequence[int], names: Sequence[str]) -> str:
    """Render an exponent tuple, e.g. ``x1^2*x3`` (empty string for the constant)."""
    factors = []
    for name, e in zip(names, exponents):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _term_text(coefficient: Fraction, monomial: str) -> str:
    if not monomial:
        return str(coefficient)
    if coefficient == 1:
        return monomial
    return f"{coefficient}*{monomial}"


def generators(ring: Sequence[str]) -> tuple[Polynomial, ...]:
    """One variable polynomial per ring variable, in ring order."""
    ring = tuple(ring)
    return tuple(Polynomial.variable(ring, name) for name in ring)


_TOKEN = re.compile(r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[-+*/^]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected character {remainder[0]!r} in polynomial text")
        position = match.end()
        for kind in ("number", "name", "symbol"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], ring: tuple[str, ...]):
        self.tokens = tokens
        self.ring = ring
        self.position = 0

    def peek(self) -> tuple[str, str] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of polynomial text")
        self.position += 1
        return token

    def parse(self) -> Polynomial:
        terms: list[tuple[Exponents, Fraction]] = []
        sign = Fraction(1)
        token = self.peek()
        if token == ("symbol", "-"):
            self.take()
            sign = Fraction(-1)
        elif token == ("symbol", "+"):
            self.take()
        terms.append(self.term(sign))
        while self.peek() is not None:
            kind, value = self.take()
            if (kind, value) == ("symbol", "+"):
                terms.append(self.term(Fraction(1)))
            elif (kind, value) == ("symbol", "-"):
                terms.append(self.term(Fraction(-1)))
            else:
                raise ParseError(f"expected '+' or '-' between terms, got {value!r}")
        return Polynomial(self.ring, terms)

    def term(self, sign: Fraction) -> tuple[Exponents, Fraction]:
        kind, value = self.take()
        exponents = [0] * len(self.ring)
        if kind == "number":
            coefficient = Fraction(int(value))
            if self.peek() == ("symbol", "/"):
                self.take()
                dkind, dvalue = self.take()
                if dkind != "number" or int(dvalue) == 0:
                    raise ParseError("expected a positive integer denominator after '/'")
                coefficient /= int(dvalue)
        elif kind == "name":
            coefficient = Fraction(1)
            self.factor(value, exponents)
        else:
            raise ParseError(f"a term cannot start with {value!r}")
        while self.peek() == ("symbol", "*"):
            self.take()
            fkind, fvalue = self.take()
            if fkind != "name":
                raise ParseError(f"expected a variable after '*', got {fvalue!r}")
            self.factor(fvalue, exponents)
        return tuple(exponents), sign * coefficient

    def factor(self, name: str, exponents: list[int]) -> None:
        if name not in self.ring:
            raise ParseError(f"variable {name!r} is not declared in the ring {self.ring}")
        power = 1
        if self.peek() == ("symbol", "^"):
            self.take()
            kind, value = self.take()
            if kind != "number":
                raise ParseError(f"expected a natural exponent after '^', got {value!r}")
            power = int(value)
        exponents[self.ring.index(name)] += power


def parse_polynomial(text: str, ring: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ring; inverse of ``str()``."""
    ring = tuple(ring)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _Parser(tokens, ring).parse()
