"""Independent oracles and randomized case generators shared by the tests.

Everything here deliberately avoids the library's own code paths: polynomial
sums, products and substitutions are recomputed on plain term dicts, ranks
by dense Gaussian elimination over fractions, graded pieces by brute-force
exponent products, and Hilbert counts by literal truncated series
multiplication, by the coin-change table filled to the degree or, at large
degrees, by a closed sum; random members and pencil cubics as Fraction sums
and products of term dicts.  Frozen expected values in the tests were
produced by these oracles.  The command line's reference is argparse itself:
``build_parser`` is the parser ``fano72`` used before it read its own argv.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from fano72 import (EXTRA_SUITES, SUITES, ConfigurationError, Polynomial, enumerate_monomials,
                    hilbert_count, image_degrees, multiplicity_along_line)
from fano72.cli import cmd_hilbert, cmd_verify, cmd_wps
from fano72.grading import clip
from fano72.linsys import P3_VARS
from fano72.ratmap import TARGET_VARS


def rand_fraction(rng: random.Random, zero_ok: bool = True) -> Fraction:
    numerator = rng.randint(-9, 9)
    if not zero_ok and numerator == 0:
        numerator = 1
    return Fraction(numerator, rng.randint(1, 9))


def rand_poly(rng: random.Random, ring, max_terms: int = 3, max_exp: int = 2,
              allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exponents = tuple(rng.randint(0, max_exp) for _ in ring)
        terms[exponents] = rand_fraction(rng, zero_ok=False)
    p = Polynomial(ring, terms)
    if not allow_zero and not p:
        return Polynomial.constant(ring, 1)
    return p


# -- naive term-dict arithmetic, the polynomial oracle ---------------------
#
# A term dict maps exponent tuples to Fractions.  Each operation accumulates
# into a defaultdict and drops zeros; canonical_items orders a result
# leading term first, as Polynomial.items() must.

def naive_add(f: dict, g: dict) -> dict:
    total = defaultdict(Fraction)
    for terms in (f, g):
        for e, c in terms.items():
            total[e] += c
    return {e: c for e, c in total.items() if c}


def naive_mul(f: dict, g: dict) -> dict:
    total = defaultdict(Fraction)
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            total[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return {e: c for e, c in total.items() if c}


def naive_substitute(f: dict, images: list[dict], target_arity: int) -> dict:
    """Replace the i-th variable of f by images[i], term by term, power by power."""
    result: dict = {}
    for e, c in f.items():
        term = {(0,) * target_arity: c}
        for image, k in zip(images, e):
            for _ in range(k):
                term = naive_mul(term, image)
        result = naive_add(result, term)
    return result


def canonical_items(terms: dict) -> list:
    """The terms in graded lexicographic order, leading term first."""
    return sorted(terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)


def evaluate(p: Polynomial, values) -> Fraction:
    """Value of p at a rational point given as {variable name: value}."""
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for name, k in zip(p.ring, e):
            if k:
                term *= Fraction(values[name]) ** k
        total += term
    return total


def arithmetic_oracle_failures(seed: int, cases: int) -> list[str]:
    """Compare +, * and substitute with the naive term-dict oracle.

    Fixed cases cover the zero polynomial, cancellation to zero and
    colliding products; the random cases make every third right operand
    cancel part of the left one.
    """
    rng = random.Random(seed)
    ring, target = ("a", "b", "c"), ("u", "v")
    a, b, c = (Polynomial.variable(ring, name) for name in ring)
    zero = Polynomial.zero(ring)
    pairs = [(zero, zero), (zero, a + 1), (a + b, -(a + b)), (a + b, a - b),
             (a + b, a + b), (a * b - b * c, a * c + b), (a - 1, a ** 2 + a + 1)]
    for case in range(cases):
        f = rand_poly(rng, ring, max_terms=4)
        g = rand_poly(rng, ring, max_terms=4)
        pairs.append((f, g - f if case % 3 == 0 else g))
    failures = []
    for case, (f, g) in enumerate(pairs):
        tf, tg = dict(f.items()), dict(g.items())
        if list((f + g).items()) != canonical_items(naive_add(tf, tg)):
            failures.append(f"+ disagrees with the oracle at case {case}")
        if list((f * g).items()) != canonical_items(naive_mul(tf, tg)):
            failures.append(f"* disagrees with the oracle at case {case}")
        images = [rand_poly(rng, target) for _ in ring]
        pulled = f.substitute(dict(zip(ring, images)))
        expected = naive_substitute(tf, [dict(i.items()) for i in images], len(target))
        if pulled.ring != target or list(pulled.items()) != canonical_items(expected):
            failures.append(f"substitute disagrees with the oracle at case {case}")
    return failures


# -- dense rational elimination, the rank oracle ---------------------------

def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Dense reduced row echelon form over fractions and its pivot columns."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(matrix[0]) if matrix else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        scale = matrix[rank][c]
        matrix[rank] = [v / scale for v in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][c]:
                f = matrix[i][c]
                matrix[i] = [vi - f * vr for vi, vr in zip(matrix[i], matrix[rank])]
        pivots.append(c)
    return matrix, pivots


def rref_rank(rows) -> int:
    return len(_rref(rows)[1])


def rref_nullspace(rows, ncols: int) -> dict[int, list[Fraction]]:
    """For each free column f, the unique solution that is 1 at f and 0 at the
    other free columns, read off the dense reduced row echelon form."""
    matrix, pivots = _rref(rows)
    solutions = {}
    for f in (c for c in range(ncols) if c not in pivots):
        vector = [Fraction(int(c == f)) for c in range(ncols)]
        for row, p in zip(matrix, pivots):
            vector[p] = -row[f]
        solutions[f] = vector
    return solutions


def same_span(a, b) -> bool:
    """Whether two linear systems span one space: the dense ranks of each and of
    both together agree, over the union of their generators' monomials."""
    terms = [[dict(g.items()) for g in system.generators] for system in (a, b)]
    columns = sorted({e for side in terms for t in side for e in t})
    rows_a, rows_b = ([[t.get(e, 0) for e in columns] for t in side] for side in terms)
    return rref_rank(rows_a) == rref_rank(rows_b) == rref_rank(rows_a + rows_b)


def poly_matrix(polys, degree: int):
    """Dense coefficient matrix of homogeneous polynomials over one graded piece."""
    columns = enumerate_monomials((1,) * len(polys[0].ring), degree)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(columns)
        for e, c in p.items():
            row[index[e]] = c
        rows.append(row)
    return rows


def primitive_form(p: Polynomial) -> Polynomial:
    """The primitive integer multiple of a nonzero p: denominators cleared,
    content 1, and the coefficient of the smallest exponent tuple positive."""
    terms = {e: Fraction(c) for e, c in p.items()}
    scale = lcm(*(c.denominator for c in terms.values()))
    integers = {e: int(c * scale) for e, c in terms.items()}
    content = gcd(*integers.values())
    if integers[min(integers)] < 0:
        content = -content
    return Polynomial(p.ring, {e: c // content for e, c in integers.items()})


# -- the two systems as hand-written generator shapes -----------------------
#
# The lists the library once wrote out by hand, kept to pin the order and the
# content of the block loop that replaced them.

def _binary_monomials(degree: int) -> list[Polynomial]:
    """Monomials of the given degree in x1, x2 only, x1-power descending."""
    return [Polynomial.monomial(P3_VARS, (i, degree - i, 0, 0)) for i in range(degree, -1, -1)]


def sextic_shapes(pencil) -> list[Polynomial]:
    """x1*x2*x4*xi; x3*xi times each quadratic; every binary sextic."""
    x1, x2, x3, x4 = (Polynomial.variable(P3_VARS, name) for name in P3_VARS)
    xi = pencil.cubic
    return ([x1 * x2 * x4 * xi] + [x3 * xi * m for m in _binary_monomials(2)]
            + _binary_monomials(6))


def degree12_shapes(pencil) -> list[Polynomial]:
    """The seven shapes of sizes 1 + 3 + 7 + 1 + 5 + 9 + 13."""
    x1, x2, x3, x4 = (Polynomial.variable(P3_VARS, name) for name in P3_VARS)
    xi = pencil.cubic
    base, x3xi = x1 * x2 * x4 * xi, x3 * xi
    return ([base * base]
            + [base * x3xi * m for m in _binary_monomials(2)]
            + [base * m for m in _binary_monomials(6)]
            + [x3xi ** 3]
            + [x3xi ** 2 * m for m in _binary_monomials(4)]
            + [x3xi * m for m in _binary_monomials(8)]
            + _binary_monomials(12))


# -- graded-piece oracles ---------------------------------------------------

def brute_force_monomials(weights, degree: int) -> set[tuple[int, ...]]:
    ranges = [range(degree // w + 1) for w in weights]
    return {e for e in product(*ranges)
            if sum(ei * wi for ei, wi in zip(e, weights)) == degree}


def series_coefficients(weights, depth: int) -> list[int]:
    """Coefficients of prod 1/(1 - t^w) up to t^depth by truncated multiplication."""
    coefficients = [1] + [0] * depth
    for w in weights:
        factor = [1 if k % w == 0 else 0 for k in range(depth + 1)]
        coefficients = [sum(coefficients[i] * factor[k - i] for i in range(k + 1))
                        for k in range(depth + 1)]
    return coefficients


def coin_change_count(weights, degree: int) -> int:
    """Monomials of weighted degree ``degree``, by the coin-change table filled to the degree.

    After w1..wj are folded in, ``ways[x]`` counts the monomials in the first
    j variables of weighted degree x; folding in w adds ``ways[x - w]`` to
    ``ways[x]`` in increasing x.  O(k*d) additions, with no period shortcut.
    """
    ways = [1] + [0] * degree
    for w in weights:
        for x in range(w, degree + 1):
            ways[x] += ways[x - w]
    return ways[degree]


def closed_sum_count(a: int, b: int, degree: int) -> int:
    """Monomials x1^i x2^j x3^k x4^l of weighted degree ``degree`` for weights (1, 1, a, b).

    For fixed k and l the pairs (i, j) number degree - a*k - b*l + 1, so the
    count is the sum of that over a*k + b*l <= degree.  For fixed l, with
    r = degree - b*l, the sum over k is an arithmetic series of r // a + 1
    terms, which leaves one loop of degree // b + 1 steps.
    """
    total = 0
    for l in range(degree // b + 1):
        r = degree - b * l
        n = r // a + 1
        total += n * (r + 1) - a * n * (n - 1) // 2
    return total


# -- the root-finder oracle ------------------------------------------------

def cauchy_rational_roots(coeffs) -> list[Fraction]:
    """The rational roots of a0 + a1*t + a2*t^2 + a3*t^3, ascending, [] unless all
    three are rational: the same bisection as the library's, searched inside
    Cauchy's bound 1 + max|b| of the monic g(u) = u^3 + b2*u^2 + b1*u + b0."""
    a0, a1, a2, a3 = coeffs
    b2, b1, b0 = a2, a1 * a3, a0 * a3 * a3
    bound = 1 + max(abs(b2), abs(b1), abs(b0))

    def largest(b2: int, b1: int, b0: int) -> int:
        low, high = -bound, bound
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


# -- random members, pencil cubics and Fraction counts ---------------------

def rational_member(generators, rng: random.Random) -> tuple[dict, int]:
    """The combination sum(+-a_i/b_i * g_i) of the generators' term dicts, with
    a_i, b_i and the sign drawn from rng as random_member draws them, summed
    over Fractions; and L, the lcm of the drawn b_i."""
    total: dict = {}
    common = 1
    for g in generators:
        numerator, denominator = rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9)
        common = lcm(common, denominator)
        total = naive_add(total, {e: Fraction(numerator, denominator) * c for e, c in g.items()})
    return total, common


def pencil_cubic_terms(roots, scale) -> dict:
    """scale * (x2 - t1*x1)(x2 - t2*x1)(x2 - t3*x1) multiplied out over Fractions,
    as a term dict in the ring (x1, x2, x3, x4)."""
    cubic = {(0, 0, 0, 0): Fraction(scale)}
    for t in roots:
        cubic = naive_mul(cubic, {(0, 1, 0, 0): Fraction(1), (1, 0, 0, 0): -Fraction(t)})
    return cubic


def fraction_constructions(call):
    """call() and the number of Fraction.__new__ calls it made, the results of
    Fraction arithmetic among them, counted by a profile hook."""
    code, made = Fraction.__new__.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            made.append(None)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, len(made)


# -- the randomized property suites (counts chosen by the caller) -----------

def ring_axiom_failures(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    ring = ("a", "b", "c")
    failures = []
    for case in range(cases):
        f = rand_poly(rng, ring)
        g = rand_poly(rng, ring)
        h = rand_poly(rng, ring)
        if (f + g) + h != f + (g + h):
            failures.append(f"associativity of + broke at case {case}")
        if f + g != g + f or f * g != g * f:
            failures.append(f"commutativity broke at case {case}")
        if (f * g) * h != f * (g * h):
            failures.append(f"associativity of * broke at case {case}")
        if f * (g + h) != f * g + f * h:
            failures.append(f"distributivity broke at case {case}")
        if Polynomial(ring, dict(f.items())) != f:
            failures.append(f"canonical form is not a fixpoint at case {case}")
    return failures


def substitution_failures(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    source = ("u", "v")
    target = ("a", "b")
    failures = []
    for case in range(cases):
        f = rand_poly(rng, source)
        g = rand_poly(rng, source)
        images = {"u": rand_poly(rng, target), "v": rand_poly(rng, target)}
        if (f * g).substitute(images) != f.substitute(images) * g.substitute(images):
            failures.append(f"substitution broke multiplication at case {case}")
        if (f + g).substitute(images) != f.substitute(images) + g.substitute(images):
            failures.append(f"substitution broke addition at case {case}")
    return failures


def pullback_multiplicativity_failures(seed: int, cases: int, phi) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        g = _rand_weighted_form(rng, phi)
        h = _rand_weighted_form(rng, phi)
        if (g * h).substitute(phi) != g.substitute(phi) * h.substitute(phi):
            failures.append(f"pullback broke multiplication at case {case}")
    return failures


def _rand_weighted_form(rng: random.Random, phi) -> Polynomial:
    degree = rng.randint(1, 12)
    basis = enumerate_monomials(image_degrees(phi), degree)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[rng.choice(basis)] = rand_fraction(rng, zero_ok=False)
    return Polynomial(TARGET_VARS, terms)


def valuation_failures(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        f = rand_poly(rng, P3_VARS, max_terms=4, allow_zero=False)
        g = rand_poly(rng, P3_VARS, max_terms=4, allow_zero=False)
        total = multiplicity_along_line(f * g)
        if total != multiplicity_along_line(f) + multiplicity_along_line(g):
            failures.append(f"valuation additivity broke at case {case}")
    return failures


def hilbert_consistency_failures(seed: int, cases: int, max_degree: int = 40) -> list[str]:
    rng = random.Random(seed)
    failures = []
    jobs = [((1, 1, 4, 6), d) for d in range(max_degree + 1)]
    jobs += [((1, 1, 1, 3), d) for d in range(max_degree + 1)]
    while len(jobs) < cases:
        arity = rng.randint(2, 4)
        weights = tuple(rng.randint(2, 9) for _ in range(arity))
        jobs.append((weights, rng.randint(0, max_degree)))
    series_cache: dict[tuple[int, ...], list[int]] = {}
    for weights, degree in jobs[:cases]:
        if weights not in series_cache:
            series_cache[weights] = series_coefficients(weights, max_degree)
        counted = hilbert_count(weights, degree)
        listed = enumerate_monomials(weights, degree)
        if counted != len(listed):
            failures.append(f"count vs enumeration differ for {weights} degree {degree}")
        if counted != series_cache[weights][degree]:
            failures.append(f"count vs series differ for {weights} degree {degree}")
        if len(set(listed)) != len(listed):
            failures.append(f"enumeration has duplicates for {weights} degree {degree}")
    return failures


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One configuration-error line: words cut to 20 characters, the line to 160."""
        raise ConfigurationError(clip(" ".join(map(clip, message.split())), 160))

    def _get_values(self, action, arg_strings):
        # argparse (CPython 3.11) strips a value of exactly "--", as in --degree=--, and
        # would hand the command [] in place of a string or a number
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument, got '--'")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fano72",
        description="Exact certification that the degree-72 scroll-cone threefold "
                    "is anticanonically embedded P(1,1,4,6).")
    sub = parser.add_subparsers(dest="command", required=True)

    suite_names = ("all",) + SUITES + EXTRA_SUITES
    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", nargs="?", default="all", choices=suite_names,
                        help="suite to run (default: all)")
    verify.add_argument("--xi", default=None, metavar="CUBIC",
                        help="pencil cubic in x1, x2, e.g. "
                             "'x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3'")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the random-member sample checks")
    verify.add_argument("--json", default=None, metavar="PATH",
                        help="also write one JSON record per check to PATH")
    verify.set_defaults(func=cmd_verify)

    hilbert = sub.add_parser("hilbert", help="count monomials of a weighted degree")
    hilbert.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,1,4,6")
    hilbert.add_argument("--degree", type=int, required=True)
    hilbert.add_argument("--list", action="store_true", help="also print the monomials")
    hilbert.set_defaults(func=cmd_hilbert)

    wps = sub.add_parser("wps", help="anticanonical data of a weighted projective space")
    wps.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,1,4,6")
    wps.add_argument("--basis", action="store_true", help="also print the basis monomials")
    wps.set_defaults(func=cmd_wps)

    return parser
