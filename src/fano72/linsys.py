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

Both systems are integral and every check on a member is projective, so an
integral pencil cubic keeps a run in ``int``: ``PencilCubic.from_roots``
multiplies the integer factors q*x2 - p*x1 of its roots p/q,
``random_member`` returns an integer multiple of its rational combination,
and the restrictions read a polynomial's term dict without copying it.
"""

from __future__ import annotations

from collections.abc import ItemsView, Sequence
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from operator import mul

from .grading import FrozenValue, clip, enumerate_monomials
from .linalg import LinearSystem, echelon_pivots, nullspace_basis
from .poly import (ArityError, Coefficient, Exponents, Polynomial, generators,
                   is_homogeneous, parse_polynomial)
from .ratmap import pullback_system, weighted_parametrization

P3_VARS = ("x1", "x2", "x3", "x4")
PENCIL_VARS = ("t", "x1", "x3", "x4")

X1, X2, X3, X4 = generators(P3_VARS)
# The quintuple line on each coordinate plane: x2^5 on x1 = 0, x1^5 on x2 = 0.
_LINE_ON_PLANE = {"x1": X2 ** 5, "x2": X1 ** 5}


class InvalidPencilError(ValueError):
    """The supplied binary cubic does not define three admissible pencil planes."""


# Largest bit length of the pencil cubic's integer coefficients and their common
# denominator: at the cap a root search takes about 15 ms on a 2-core x86 host
# (CPython 3.11), and its cost grows faster than the square of the bit length.
MAX_COEFFICIENT_BITS = 1024


# -- rational roots of the pencil cubic ----------------------------------

def _rational_roots(coeffs: Sequence[int]) -> list[Fraction]:
    """The roots of a0 + a1*t + a2*t^2 + a3*t^3 (a3 != 0), ascending; [] unless all rational.

    For integers a0..a3, u = a3*t makes a3^2 * xi(1, t) the monic
    g(u) = u^3 + a2*u^2 + a1*a3*u + a0*a3^2, whose rational roots are integers.
    Once g, g' and g'' are all positive they stay so, and when g splits over
    the integers the first integer where they are is one past its largest
    root, bisected for inside B = 1 + 2*max(|b2|, 2^ceil(bits(b1)/2),
    2^ceil(bits(b0)/3)).  By Fujiwara's bound every complex root of g has
    modulus at most 2*max(|b2|, |b1|^(1/2), |b0/2|^(1/3)) < B, and by
    Gauss-Lucas so does every root of g' and g'', which lie in the convex
    hull of the roots of g.  So the test fails at -B (g''(-B) < 0) and holds
    at B.  -g(-u) gives the smallest root and the sum of the roots the
    middle one; the three are kept only if their product is g, which a
    complex pair beside one real root would fail.
    """
    a0, a1, a2, a3 = coeffs
    b2, b1, b0 = a2, a1 * a3, a0 * a3 * a3
    bound = 1 + 2 * max(abs(b2), 1 << -(-b1.bit_length() // 2), 1 << -(-b0.bit_length() // 3))

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


def _integer_coefficients(cubic: Polynomial) -> list[int]:
    """The coefficients a0..a3 of x1^3, x1^2*x2, x1*x2^2, x2^3 in a binary cubic,
    over their common denominator, refused past ``MAX_COEFFICIENT_BITS``."""
    coeffs = [cubic.coefficient((3 - k, k, 0, 0)) for k in range(4)]
    denominator = lcm(*(c.denominator for c in coeffs))
    coeffs = [int(c * denominator) for c in coeffs]
    bits = max(denominator, *map(abs, coeffs)).bit_length()
    if bits > MAX_COEFFICIENT_BITS:
        raise InvalidPencilError(
            f"the cubic's coefficients, over their common denominator, need {bits} bits, "
            f"more than the cap of {MAX_COEFFICIENT_BITS}")
    return coeffs


class PencilCubic(FrozenValue):
    """A binary cubic xi(x1, x2) splitting into three distinct pencil planes.

    The cubic factors exactly as scale * (x2 - t1*x1)(x2 - t2*x1)(x2 - t3*x1)
    with the roots t_i pairwise distinct, nonzero, and rational, so none of
    the three planes coincides with x1 = 0, x2 = 0, or each other.  It stores
    the cubic and its roots, ascending; the scale is the cubic's x2^3 coefficient.
    """

    __slots__ = _fields = ("cubic", "roots")
    cubic: Polynomial
    roots: tuple[Fraction, ...]

    def __repr__(self) -> str:
        return f"PencilCubic({self.cubic})"

    @classmethod
    def from_roots(cls, roots: Sequence[Fraction | int], scale: Fraction | int = 1) -> PencilCubic:
        """scale * (x2 - t1*x1)(x2 - t2*x1)(x2 - t3*x1) for int or Fraction roots and scale.

        For roots t = p/q the integer factors q*x2 - p*x1 are multiplied,
        and their product is scaled once by scale / (q1*q2*q3).  The cubic's
        coefficients are capped as ``from_polynomial`` caps them.
        """
        roots = tuple(roots)
        for value in (*roots, scale):
            if not isinstance(value, (int, Fraction)):
                raise InvalidPencilError(f"pencil roots and the scale must be int or Fraction, "
                                         f"got {clip(value, render=repr)}")
        roots = tuple(map(Fraction, roots))
        scale = Fraction(scale)
        if len(roots) != 3:
            raise InvalidPencilError(f"need exactly three pencil roots, got {len(roots)}")
        if len(set(roots)) != 3:
            raise InvalidPencilError(
                f"pencil roots must be pairwise distinct, got {', '.join(map(clip, roots))}")
        if any(r == 0 for r in roots):
            raise InvalidPencilError("pencil roots must be nonzero (the plane x2 = 0 is reserved)")
        if scale == 0:
            raise InvalidPencilError("the pencil cubic must be nonzero")
        p, q = zip(*(root.as_integer_ratio() for root in roots))
        factors = (Polynomial._canonical(P3_VARS, {(1, 0, 0, 0): -pk, (0, 1, 0, 0): qk})
                   for pk, qk in zip(p, q))
        cubic = reduce(mul, factors) * (scale / (q[0] * q[1] * q[2]))
        _integer_coefficients(cubic)
        return cls(cubic, tuple(sorted(roots)))

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
        roots = _rational_roots(_integer_coefficients(f))
        if len(roots) != 3:
            raise InvalidPencilError(f"the cubic {clip(f, 60)} does not split into rational planes")
        pencil = cls.from_roots(roots, scale)
        if pencil.cubic != f:
            raise InvalidPencilError(f"the cubic {clip(f, 60)} is not the product of its root planes")
        return pencil

    @classmethod
    def from_text(cls, text: str) -> PencilCubic:
        return cls.from_polynomial(parse_polynomial(text, P3_VARS))

    @classmethod
    def default(cls) -> PencilCubic:
        return cls.from_roots((1, 2, 3))


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


def _p3_items(f: Polynomial) -> ItemsView[Exponents, Coefficient]:
    """The terms of a polynomial in the P^3 ring, as a view: no copy is made."""
    if f.ring != P3_VARS:
        raise ArityError(f"expected a polynomial in the ring {P3_VARS}, got {clip(f.ring, 60)}")
    return f._terms.items()


# Each restriction below sends a term of a valid polynomial to at most one
# term, so it maps the terms directly; the shared merge loop sums collisions,
# except on one pencil plane, whose sums are divided once.

def restrict_to_pencil(f: Polynomial) -> Polynomial:
    """Substitute x2 = t*x1 with a symbolic pencil parameter t.

    The result lives in the ring (t, x1, x3, x4), so restrictions to the
    whole pencil of planes through the line x1 = x2 = 0 stay exact.
    """
    return Polynomial._from_valid_terms(PENCIL_VARS, (((b, a + b, c, d), k)
                                                     for (a, b, c, d), k in _p3_items(f)))


def restrict_to_pencil_plane(f: Polynomial, tau: Fraction | int) -> Polynomial:
    """Restrict to the single pencil plane x2 = tau*x1 (stays in the P^3 ring).

    For tau = p/q and B the x2-degree of f, the term k*x1^a*x2^b*x3^c*x4^d
    adds k*p^b*q^(B-b) to the sum at x1^(a+b)*x3^c*x4^d, and each nonzero
    sum is divided by q^B once, so an integral f takes no Fraction step per
    term (``substitute_all`` with x2 -> tau*x1: verify runs +24% / +46%,
    priced as in ``poly``).
    """
    items = _p3_items(f)
    p, q = tau.as_integer_ratio()
    top = max((e[1] for e, _ in items), default=0)
    powers = [p ** b * q ** (top - b) for b in range(top + 1)]
    sums: dict[Exponents, Coefficient] = {}
    for (a, b, c, d), k in items:
        e = (a + b, 0, c, d)
        sums[e] = sums.get(e, 0) + k * powers[b]
    scale = q ** top
    return Polynomial._from_valid_terms(P3_VARS, ((e, s // scale if s % scale == 0
                                                   else Fraction(s, scale))
                                                  for e, s in sums.items()))


def coordinate_plane_residual(f: Polynomial, plane: str) -> Polynomial:
    """Residual of f on a coordinate plane of the pencil, off the line x1 = x2 = 0.

    For plane "x1": keep the terms free of x1 (substituting x1 = 0: verify
    runs +24% / +20%, priced as in ``poly``) and divide out x2^5 exactly (and
    symmetrically for "x2").  For the sextic system the residual is the
    linear form cutting the variable line of the plane section; it passes
    through [0, 0, 0, 1] exactly when it is free of x4.
    """
    if plane not in ("x1", "x2"):
        raise ValueError("the coordinate planes of the pencil are x1 = 0 and x2 = 0")
    i = P3_VARS.index(plane)            # dropping terms keeps a canonical dict canonical
    restricted = Polynomial._canonical(P3_VARS, {e: k for e, k in _p3_items(f) if not e[i]})
    return restricted.exact_divide(_LINE_ON_PLANE[plane])


def is_scalar_multiple(f: Polynomial, exponents: Exponents) -> bool:
    """True iff f is c * (monomial with the given exponents), allowing c = 0."""
    return not f or f.monomials() == (tuple(exponents),)


# -- the two systems and their incidence conditions --------------------

def build_sextic_system(pencil: PencilCubic) -> LinearSystem:
    """The 11 sextics of multiplicity 5 along the line: the weighted-degree-6 pullback."""
    return pullback_system(weighted_parametrization(pencil), enumerate_monomials((1, 1, 4, 6), 6))


def build_degree12_system(pencil: PencilCubic) -> LinearSystem:
    """The 39 degree-12 surfaces of multiplicity 9 along the line: the anticanonical pullback."""
    return pullback_system(weighted_parametrization(pencil), enumerate_monomials((1, 1, 4, 6), 12))


def _contact_rows(tau: Fraction, j: int, n: int) -> list[list[int]]:
    """The dense rows, over b = 0..n, for (x2 - tau*x1)^j to divide sum_b a_b*x1^(n-b)*x2^b:
    sum_b C(b, k)*tau^(b-k)*a_b = 0 for k < j, times q^(n-k) for tau = p/q, so in integers."""
    p, q = tau.as_integer_ratio()
    return [[comb(b, k) * p ** (b - k) * q ** (n - b) if b >= k else 0 for b in range(n + 1)]
            for k in range(j)]


def constraint_rows(pencil: PencilCubic, degree: int) -> tuple[list[Exponents], list[list[int]]]:
    """Linear conditions cutting the degree-D system out of the forms near the line.

    The blocks x3^c*x4^d (j = c + d <= D // 4, j ascending, then c descending)
    hold the columns x1^(n-b)*x2^b*x3^c*x4^d, n = D - j, graded-lex descending.
    The rows say xi^(c+d)*(x1*x2)^d divides each block's form: 2d unit rows per
    block (its d end coefficients at each side vanish), then root by root the
    contact rows of every block.  At degree 6: 8 rows over 19.
    """
    blocks = [(c, j - c, degree - j) for j in range(degree // 4 + 1) for c in range(j, -1, -1)]
    monomials = sorted(((n - b, b, c, d) for c, d, n in blocks for b in range(n + 1)), reverse=True)
    units = [{(n - b, b, c, d): 1} for c, d, n in blocks for i in range(d) for b in (n - i, i)]
    contacts = [{(n - b, b, c, d): v for b, v in enumerate(row)}
                for tau in pencil.roots for c, d, n in blocks for row in _contact_rows(tau, c + d, n)]
    return monomials, [[row.get(e, 0) for e in monomials] for row in units + contacts]


def conditions_report(pencil: PencilCubic,
                      system: LinearSystem) -> tuple[int, int, LinearSystem, bool]:
    """Whether the conditions of ``constraint_rows`` cut out a system:
    (rank, dimension, inside, cut_out).

    Block (c, d)'s 2d unit rows are the only rows on its end columns, so the
    rank sums 2d and the rank of its contact rows on the inner columns
    d <= b <= n - d; the dimension is the column count minus the rank.
    One pass per contact order j = 0..D // 4 takes its blocks (j - d, d),
    d = 0..j, together: they share the three roots' contact rows and
    n = D - j, and their inner columns are those with |2b - n| <= n - 2d:
    keyed by (|2b - n|, b), each block's inner columns are a prefix of the
    column order.  In row echelon form, whose rows start at distinct pivot
    columns, the rows pivoting inside a prefix restrict to independent rows
    there and the others restrict to zero, so the rank on a prefix is the
    number of pivots inside it.  So one fraction-free echelon per j, over
    its dense rows in that column order, gives every block's rank: Bareiss
    elimination with exact division by the previous pivot (``echelon_pivots``).
    ``inside`` holds the generators whose terms lie on inner columns (c + d <=
    D // 4 and d <= b <= D - c - 2d) and whose blocks' dense forms over b = 0..n
    meet their order's contact rows in 0: the system itself when all do, its
    rank read as it is (a system built anew from them: verify runs +7.8% /
    +7.1%).  The conditions cut out the system, ``cut_out``, iff all are
    inside and its rank is the dimension: the library's one span comparison.
    """
    degree = system.degree
    rank = columns = 0
    contacts: list[list[list[int]]] = []          # by j, every root's dense contact rows
    for j in range(degree // 4 + 1):
        n = degree - j
        rows = [row for tau in pencil.roots for row in _contact_rows(tau, j, n)]
        order = sorted(range(n + 1), key=lambda b: (abs(2 * b - n), b))
        pivots = echelon_pivots([[row[b] for b in order] for row in rows])
        rank += sum(2 * d + sum(p <= n - 2 * d for p in pivots) for d in range(j + 1))
        columns += (j + 1) * (n + 1)
        contacts.append(rows)

    def is_inside(g: Polynomial) -> bool:
        forms: dict[tuple[int, int], list[Coefficient]] = {}
        for (_, b, c, d), k in _p3_items(g):
            if not (c + d <= degree // 4 and d <= b <= degree - c - 2 * d):
                return False        # off the inner columns, or in no block
            form = forms.get((c, d))
            if form is None:
                form = forms[c, d] = [0] * (degree - c - d + 1)
            form[b] = k
        return not any(sum(map(mul, row, form))
                       for (c, d), form in forms.items() for row in contacts[c + d])

    kept = [g for g in system.generators if is_inside(g)]
    if len(kept) == len(system.generators):
        return rank, columns - rank, system, system.rank == columns - rank
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
    """A pseudo-random combination of the generators, all coefficients nonzero.

    Each generator g_i draws +-a_i/b_i (a_i, b_i in 1..9) from ``rng``, in
    generator order, and the member is L * sum(+-a_i/b_i * g_i) with L the lcm
    of the b_i: the same surface as the rational combination, with the
    integer weights +-a_i*(L // b_i), so no Fraction is made.
    """
    draws = [(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
             for _ in system.generators]
    common = lcm(*(b for _, b in draws))
    factors = [a * (common // b) for a, b in draws]
    return Polynomial._from_valid_terms(system.ring, (
        (e, c * k) for g, c in zip(system.generators, factors) for e, k in g._terms.items()))
