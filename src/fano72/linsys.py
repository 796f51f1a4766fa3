"""Linear systems of surfaces in P^3 built from a pencil cubic.

The geometric setup lives in coordinates [x1, x2, x3, x4]: the line
r = {x1 = x2 = 0}, the pencil of planes x2 = t*x1 through it, the two
coordinate planes x1 = 0 and x2 = 0, three further pencil planes cut out
by a binary cubic xi(x1, x2), and the distinguished point [0, 0, 0, 1].

An 11-generator sextic system (multiplicity 5 along r) and a 39-generator
degree-12 system (multiplicity 9 along r) are built over a pencil cubic,
each as the pullback of the weighted-degree-D monomials of P(1,1,4,6) along
(x1, x2, x3*xi, x1*x2*x4*xi).  Incidence conditions on the (x3, x4)-exponent
blocks (c, d) (contact with the two coordinate planes and the three pencil
planes) describe either system a second way.  ``conditions_report`` is the
one span comparison: it decides, by a rank count and an annihilation
check, whether they cut out exactly a given system.  ``solve_constraints``
solves them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Iterable, Sequence

from .grading import ANY_DEGREE, enumerate_monomials, is_homogeneous
from .linalg import RowSpace, _to_int_row, nullspace_basis
from .poly import (ArityError, Coefficient, ExactDivisionError, Exponents,
                   Polynomial, generators, parse_polynomial)

P3_VARS = ("x1", "x2", "x3", "x4")
PENCIL_VARS = ("t", "x1", "x3", "x4")

X1, X2, X3, X4 = generators(P3_VARS)


class InvalidPencilError(ValueError):
    """The supplied binary cubic does not define three admissible pencil planes."""


# Largest bit length of the pencil cubic's integer coefficients and their common
# denominator: at the cap a root search takes about 0.4 s on a 2-core x86 host
# (CPython 3.11), and its cost grows faster than the square of the bit length.
MAX_COEFFICIENT_BITS = 1024


def _shown(f: Polynomial) -> str:
    """The text of f cut to 60 characters: within the cap a cubic's runs to 1.2 kB."""
    return str(f) if len(str(f)) <= 60 else str(f)[:60] + "..."


# -- rational roots of the pencil cubic ----------------------------------

def _rational_roots(coeffs: Sequence[int]) -> list[Fraction]:
    """The roots of a0 + a1*t + a2*t^2 + a3*t^3 (a3 != 0), ascending; [] unless all rational.

    For integers a0..a3, u = a3*t makes a3^2 * xi(1, t) the monic
    g(u) = u^3 + a2*u^2 + a1*a3*u + a0*a3^2, whose rational roots are integers.
    Once g, g' and g'' are all positive they stay so, and when g splits over
    the integers the first integer where they are is one past its largest
    root, bisected for inside Cauchy's bound.  -g(-u) gives the smallest root
    and the sum of the roots the middle one; the three are kept only if their
    product is g, which a complex pair beside one real root would fail.
    """
    a0, a1, a2, a3 = coeffs
    b2, b1, b0 = a2, a1 * a3, a0 * a3 * a3
    bound = 1 + max(abs(b2), abs(b1), abs(b0))

    def largest(b2: int, b1: int, b0: int) -> int:
        low, high = -bound, bound      # the test fails at -bound and holds at bound
        while high - low > 1:
            u = (low + high) // 2
            g, dg, ddg = ((u + b2) * u + b1) * u + b0, (3 * u + 2 * b2) * u + b1, 3 * u + b2
            if g > 0 and dg > 0 and ddg > 0:
                high = u
            else:
                low = u
        return low

    high, low = largest(b2, b1, b0), -largest(-b2, b1, -b0)
    middle = -b2 - low - high
    if (low * middle + low * high + middle * high, low * middle * high) != (b1, -b0):
        return []
    return sorted(Fraction(u, a3) for u in (low, middle, high))


@dataclass(frozen=True, slots=True)
class PencilCubic:
    """A binary cubic xi(x1, x2) splitting into three distinct pencil planes.

    The cubic factors exactly as scale * (x2 - t1*x1)(x2 - t2*x1)(x2 - t3*x1)
    with the roots t_i pairwise distinct, nonzero, and rational, so none of
    the three planes coincides with x1 = 0, x2 = 0, or each other.
    """

    cubic: Polynomial
    roots: tuple[Fraction, ...] = field(compare=False)    # determined by the cubic
    scale: Fraction = field(compare=False)

    def __repr__(self) -> str:
        return f"PencilCubic({self.cubic})"

    @classmethod
    def from_roots(cls, roots: Sequence[Fraction | int], scale: Fraction | int = 1) -> PencilCubic:
        roots = tuple(Fraction(r) for r in roots)
        scale = Fraction(scale)
        if len(roots) != 3:
            raise InvalidPencilError(f"need exactly three pencil roots, got {len(roots)}")
        if len(set(roots)) != 3:
            raise InvalidPencilError(
                f"pencil roots must be pairwise distinct, got {', '.join(map(str, roots))}")
        if any(r == 0 for r in roots):
            raise InvalidPencilError("pencil roots must be nonzero (the plane x2 = 0 is reserved)")
        if scale == 0:
            raise InvalidPencilError("the pencil cubic must be nonzero")
        cubic = Polynomial.constant(P3_VARS, scale)
        for root in roots:
            cubic = cubic * (X2 - root * X1)
        return cls(cubic, tuple(sorted(roots)), scale)

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> PencilCubic:
        if f.ring != P3_VARS:
            raise InvalidPencilError(f"the pencil cubic must live in the ring {P3_VARS}")
        if f.uses_variable("x3") or f.uses_variable("x4"):
            raise InvalidPencilError("the pencil cubic may involve only x1 and x2")
        if is_homogeneous(f, (1, 1, 1, 1)) != 3:
            # no text of f here: its coefficients are not yet within MAX_COEFFICIENT_BITS
            raise InvalidPencilError("the pencil cubic must be homogeneous of degree 3")
        scale = f.coefficient((0, 3, 0, 0))
        if scale == 0:
            raise InvalidPencilError(
                "the coefficient of x2^3 vanishes, so the plane x1 = 0 would be a component")
        # roots of f(1, t) as a cubic in t; coefficient of t^k multiplies x1^(3-k) x2^k
        coeffs = [f.coefficient((3 - k, k, 0, 0)) for k in range(4)]
        denominator = reduce(lcm, (c.denominator for c in coeffs))
        coeffs = [int(c * denominator) for c in coeffs]
        bits = max(denominator, *map(abs, coeffs)).bit_length()
        if bits > MAX_COEFFICIENT_BITS:
            raise InvalidPencilError(
                f"the cubic's coefficients, over their common denominator, need {bits} bits, "
                f"more than the cap of {MAX_COEFFICIENT_BITS}")
        roots = _rational_roots(coeffs)
        if len(roots) != 3:
            raise InvalidPencilError(f"the cubic {_shown(f)} does not split into rational planes")
        pencil = cls.from_roots(roots, scale)
        if pencil.cubic != f:
            raise InvalidPencilError(f"the cubic {_shown(f)} is not the product of its root planes")
        return pencil

    @classmethod
    def from_text(cls, text: str) -> PencilCubic:
        return cls.from_polynomial(parse_polynomial(text, P3_VARS))

    @classmethod
    def default(cls) -> PencilCubic:
        return cls.from_roots((1, 2, 3))


# -- linear systems ------------------------------------------------------

class LinearSystem:
    """A span of homogeneous degree-d forms in a fixed ring.

    Generators are rescaled to primitive integer form (``linalg``'s row
    normaliser: content 1, last term positive), deduplicated, and zero inputs
    dropped; the span is unchanged by any of this.  A generator that is
    primitive already is kept as the same object; only the others are merged
    anew.  Rank data is computed lazily over coefficient vectors keyed by
    exponent tuple.
    """

    __slots__ = ("ring", "degree", "generators", "_row_space")

    def __init__(self, ring: Sequence[str], degree: int, gens: Iterable[Polynomial]):
        ring = tuple(ring)
        unit = (1,) * len(ring)
        seen: set[Polynomial] = set()
        normalized: list[Polynomial] = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise ArityError("linear system generators must be Polynomials")
            if g.ring != ring:
                raise ArityError(f"generator ring {g.ring} does not match system ring {ring}")
            if g.is_zero:
                continue
            if is_homogeneous(g, unit) != degree:
                raise ValueError(f"generator {g} is not homogeneous of degree {degree}")
            terms = dict(g.items())
            row = _to_int_row(terms)
            primitive = g if row == terms else Polynomial._from_valid_terms(ring, row.items())
            if primitive not in seen:
                seen.add(primitive)
                normalized.append(primitive)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(normalized))
        object.__setattr__(self, "_row_space", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSystem is immutable")

    def __repr__(self) -> str:
        return (f"LinearSystem(degree={self.degree}, "
                f"generators={len(self.generators)}, ring={self.ring})")

    def coefficient_vector(self, f: Polynomial) -> dict[Exponents, Coefficient]:
        return dict(f.items())

    def row_space(self) -> RowSpace:
        if self._row_space is None:
            space = RowSpace(self.coefficient_vector(g) for g in self.generators)
            object.__setattr__(self, "_row_space", space)
        return self._row_space

    def projective_dim(self) -> int:
        """Rank of the generator matrix minus one; -1 for the empty system."""
        return self.row_space().rank - 1

    def member(self, f: Polynomial) -> bool:
        """Exact test for membership of f in the rational span of the generators."""
        if f.ring != self.ring:
            raise ArityError(f"ring mismatch: {f.ring} vs {self.ring}")
        degree = is_homogeneous(f, (1,) * len(self.ring))
        if degree is ANY_DEGREE:
            return True
        if degree != self.degree:
            warnings.warn(
                f"membership test on a polynomial that is not homogeneous of degree "
                f"{self.degree}; returning False", stacklevel=2)
            return False
        return self.row_space().contains(self.coefficient_vector(f))


# -- pointwise geometry helpers ------------------------------------------

def multiplicity_along_line(f: Polynomial) -> int:
    """Multiplicity of {f = 0} along the line x1 = x2 = 0.

    Equals the largest m with f in the m-th power of the ideal (x1, x2),
    i.e. the minimum of (x1-degree + x2-degree) over the terms of f.
    """
    items = _p3_items(f)
    if not items:
        raise ValueError("multiplicity along the line is undefined for the zero polynomial")
    return min(a + b for (a, b, _, _), _ in items)


def _p3_items(f: Polynomial) -> tuple[tuple[Exponents, Coefficient], ...]:
    if f.ring != P3_VARS:
        raise ArityError(f"expected a polynomial in the ring {P3_VARS}, got {f.ring}")
    return f.items()


# Each restriction below sends a term of a valid polynomial to at most one
# term, so it maps f.items() directly; the shared merge loop sums collisions.

def restrict_to_pencil(f: Polynomial) -> Polynomial:
    """Substitute x2 = t*x1 with a symbolic pencil parameter t.

    The result lives in the ring (t, x1, x3, x4), so restrictions to the
    whole pencil of planes through the line x1 = x2 = 0 stay exact.
    """
    return Polynomial._from_valid_terms(PENCIL_VARS, (((b, a + b, c, d), k)
                                                     for (a, b, c, d), k in _p3_items(f)))


def factor_out(f: Polynomial, name: str, power: int) -> Polynomial:
    """Divide f exactly by name**power, or raise ExactDivisionError."""
    if name not in f.ring:
        raise ArityError(f"variable {name!r} is not in the ring {f.ring}")
    i = f.ring.index(name)
    if any(e[i] < power for e in f.monomials()):
        raise ExactDivisionError(f"{name}^{power} does not divide {f}")
    return Polynomial._from_valid_terms(f.ring, ((e[:i] + (e[i] - power,) + e[i + 1:], k)
                                                 for e, k in f.items()))


def restrict_to_pencil_plane(f: Polynomial, tau: Fraction | int) -> Polynomial:
    """Restrict to the single pencil plane x2 = tau*x1 (stays in the P^3 ring)."""
    items = _p3_items(f)
    tau = Fraction(tau)
    tau = tau if tau.denominator > 1 else tau.numerator    # an integral root keeps int arithmetic
    powers = [tau ** b for b in range(f.degree_in(("x2",)) + 1)]
    return Polynomial._from_valid_terms(P3_VARS, (((a + b, 0, c, d), k * powers[b])
                                                  for (a, b, c, d), k in items))


def coordinate_plane_residual(f: Polynomial, plane: str) -> Polynomial:
    """Residual of f on a coordinate plane of the pencil, off the line x1 = x2 = 0.

    For plane "x1": restrict to x1 = 0 and divide out x2^5 exactly (and
    symmetrically for "x2").  For the sextic system the residual is the
    linear form cutting the variable line of the plane section; it passes
    through [0, 0, 0, 1] exactly when it is free of x4.
    """
    if plane not in ("x1", "x2"):
        raise ValueError("the coordinate planes of the pencil are x1 = 0 and x2 = 0")
    other = "x2" if plane == "x1" else "x1"
    i = P3_VARS.index(plane)
    restricted = Polynomial._from_valid_terms(P3_VARS, ((e, k) for e, k in _p3_items(f)
                                                        if not e[i]))
    if restricted.is_zero:
        return restricted
    return factor_out(restricted, other, 5)


def is_scalar_multiple(f: Polynomial, exponents: Exponents) -> bool:
    """True iff f is c * (monomial with the given exponents), allowing c = 0."""
    return f.is_zero or f.monomials() == (tuple(exponents),)


# -- the two systems and their incidence conditions --------------------

def build_sextic_system(pencil: PencilCubic) -> LinearSystem:
    """The 11 sextics of multiplicity 5 along the line: the weighted-degree-6 pullback."""
    from .ratmap import pullback_system, weighted_parametrization    # ratmap imports linsys
    return pullback_system(weighted_parametrization(pencil), enumerate_monomials((1, 1, 4, 6), 6))


def build_degree12_system(pencil: PencilCubic) -> LinearSystem:
    """The 39 degree-12 surfaces of multiplicity 9 along the line: the anticanonical pullback."""
    from .ratmap import pullback_system, weighted_parametrization    # ratmap imports linsys
    return pullback_system(weighted_parametrization(pencil), enumerate_monomials((1, 1, 4, 6), 12))


def _blocks(degree: int) -> list[tuple[int, int, int]]:
    """The (c, d, n) of the x3^c*x4^d blocks with j = c + d <= D // 4, n = D - j, j ascending."""
    return [(c, j - c, degree - j) for j in range(degree // 4 + 1) for c in range(j, -1, -1)]


def _contact_rows(tau: Fraction, j: int, n: int) -> list[dict[int, int]]:
    """The rows, keyed by b, for (x2 - tau*x1)^j to divide sum_b a_b*x1^(n-b)*x2^b:
    sum_b C(b, k)*tau^(b-k)*a_b = 0 for k < j, times q^(n-k) for tau = p/q, so in integers."""
    p, q = tau.as_integer_ratio()
    return [{b: comb(b, k) * p ** (b - k) * q ** (n - b) for b in range(k, n + 1)}
            for k in range(j)]


def _contact_table(pencil: PencilCubic,
                   degree: int) -> dict[tuple[Fraction, int], list[dict[int, int]]]:
    """``_contact_rows`` per root and j = c + d, with n = D - j: blocks of one j share them."""
    return {(tau, j): _contact_rows(tau, j, degree - j)
            for tau in pencil.roots for j in range(degree // 4 + 1)}


def constraint_rows(pencil: PencilCubic, degree: int) -> tuple[list[Exponents], list[list[int]]]:
    """Linear conditions cutting the degree-D system out of the forms near the line.

    The columns are the blocks' monomials x1^(n-b)*x2^b*x3^c*x4^d, graded-lex
    descending.  The rows say xi^(c+d)*(x1*x2)^d divides each block's form:
    2d unit rows per block (its d end coefficients at each side vanish), then
    root by root the contact rows of every block.  At degree 6: 8 rows over 19.
    """
    blocks = _blocks(degree)
    monomials = sorted(((n - b, b, c, d) for c, d, n in blocks for b in range(n + 1)), reverse=True)
    units = [{(n - b, b, c, d): 1} for c, d, n in blocks for i in range(d) for b in (n - i, i)]
    table = _contact_table(pencil, degree)
    contacts = [{(n - b, b, c, d): v for b, v in row.items()}
                for tau in pencil.roots for c, d, n in blocks for row in table[tau, c + d]]
    return monomials, [[row.get(e, 0) for e in monomials] for row in units + contacts]


def conditions_report(pencil: PencilCubic,
                      system: LinearSystem) -> tuple[int, int, LinearSystem, bool]:
    """Whether the conditions of ``constraint_rows`` cut out a system:
    (rank, dimension, inside, cut_out).

    Block (c, d)'s 2d unit rows are the only rows on its end columns, so the
    rank sums 2d and the rank of its contact rows on the inner columns
    d <= b <= n - d; the dimension is the column count minus the rank.
    ``inside`` holds the generators whose blocks lie on inner columns and are
    annihilated by their contact rows (the system itself when all do).  The
    conditions cut out the system, ``cut_out``, iff all are inside and its
    rank is the dimension: this is the library's one span comparison.
    """
    rank = columns = 0
    contacts = {}
    table = _contact_table(pencil, system.degree)
    for c, d, n in _blocks(system.degree):
        rows = [row for tau in pencil.roots for row in table[tau, c + d]]
        inner = range(d, n - d + 1)
        rank += 2 * d + RowSpace({b: row[b] for b in inner if b in row} for row in rows).rank
        columns += n + 1
        contacts[c, d] = inner, rows

    def is_inside(g: Polynomial) -> bool:
        forms: dict[tuple[int, int], dict[int, Coefficient]] = {}
        for (_, b, c, d), k in _p3_items(g):
            forms.setdefault((c, d), {})[b] = k
        for key, form in forms.items():
            inner, rows = contacts.get(key, ((), ()))       # a block off the columns has none
            if any(b not in inner for b in form) or any(
                    sum(row.get(b, 0) * k for b, k in form.items()) for row in rows):
                return False
        return True

    kept = [g for g in system.generators if is_inside(g)]
    if len(kept) == len(system.generators):
        return rank, columns - rank, system, system.row_space().rank == columns - rank
    return rank, columns - rank, LinearSystem(system.ring, system.degree, kept), False


def sextic_constraint_rows(pencil: PencilCubic) -> tuple[list[Exponents], list[list[int]]]:
    """The degree-6 conditions: 8 rows over the 19 monomials of (x1, x2)-degree >= 5."""
    return constraint_rows(pencil, 6)


def solve_constraints(pencil: PencilCubic, degree: int) -> LinearSystem:
    """The degree-D system found from its incidence conditions alone, by exact
    elimination: no generator shape is assumed, so it must agree independently."""
    monomials, rows = constraint_rows(pencil, degree)
    return LinearSystem(P3_VARS, degree, (Polynomial._from_valid_terms(P3_VARS, zip(monomials, v))
                                          for v in nullspace_basis(rows, len(monomials))))


def solve_sextic_constraints(pencil: PencilCubic) -> LinearSystem:
    """The sextic system, found from its incidence conditions alone."""
    return solve_constraints(pencil, 6)


def random_member(system: LinearSystem, rng) -> Polynomial:
    """A pseudo-random rational combination of the generators, all coefficients nonzero."""
    terms: list[tuple[Exponents, Coefficient]] = []
    for g in system.generators:
        coefficient = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        terms.extend((coefficient * g).items())
    return Polynomial._from_valid_terms(system.ring, terms)
