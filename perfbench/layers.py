"""Traced verify op: spans around the benchmark's own calls into each fano72 layer.

A traced op has two root spans.  ``op`` repeats the work of one untraced op
(``run_all`` for suite ``all``) as the pencil resolution plus the five suite
functions, each in its own span; its median over the untraced median is the
tracing overhead.  ``replay`` then calls the lower layers' public functions
on the same pencil, in the order and number the suites call them, with a
span around each call and work counted at the same boundary.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import random
from dataclasses import asdict

from fano72 import checks
from fano72.grading import enumerate_monomials, hilbert_count
from fano72.linalg import RowSpace, nullspace_basis
from fano72.linsys import (P3_VARS, PENCIL_VARS, build_degree12_system,
                           build_sextic_system, coordinate_plane_residual,
                           random_member, restrict_to_pencil,
                           restrict_to_pencil_plane, sextic_constraint_rows,
                           solve_sextic_constraints)
from fano72.poly import Polynomial, generators
from fano72.ratmap import pullback_system, weighted_parametrization
from fano72.wps import WeightedProjectiveSpace

from tracing import SUITES, Tracer

SUITE_CALLS = {"wps": lambda pencil, rng: checks.wps_suite(),
               "scroll": lambda pencil, rng: checks.scroll_suite(),
               "system-s": checks.sextic_suite,
               "system-t": lambda pencil, rng: checks.degree12_suite(pencil),
               "theorem": lambda pencil, rng: checks.theorem_suite(pencil)}


def traced_op(tracer: Tracer, op: dict) -> list[dict]:
    """One traced verify op; returns its records as dicts, like the untraced op."""
    with tracer.span("op"):
        with tracer.span("linsys.resolve"):
            pencil = checks.resolve_pencil(op["xi"])
        rng = random.Random(op["seed"])
        records = []
        for name in SUITES:
            with tracer.span(f"checks.{name}"):
                records += SUITE_CALLS[name](pencil, rng)
    tracer.count("checks.recorded_ns", round(sum(r.elapsed for r in records) * 1e9))
    with tracer.span("replay"):
        _replay(tracer, pencil, op["seed"])
    return [asdict(r) for r in records]


def _binary_monomials(degree: int) -> list[Polynomial]:
    return [Polynomial.monomial(P3_VARS, (i, degree - i, 0, 0)) for i in range(degree, -1, -1)]


def _replay(tr: Tracer, pencil, seed: int) -> None:
    x1, x2, x3, x4 = generators(P3_VARS)
    xi = pencil.cubic

    def mul(a: Polynomial, b: Polynomial) -> Polynomial:
        tr.count("poly.mul.pairs", len(a) * len(b))
        with tr.span("poly.mul"):
            return a * b

    # The generator products of both systems, left to right as build_sextic_system
    # and build_degree12_system write them, with powers expanded into repeated products.
    base = mul(mul(mul(x1, x2), x4), xi)
    x3xi = mul(x3, xi)
    for m in _binary_monomials(2):
        mul(x3xi, m)
    mul(base, base)
    for m in _binary_monomials(2):
        mul(mul(base, x3xi), m)
    for m in _binary_monomials(6):
        mul(base, m)
    mul(mul(x3xi, x3xi), x3xi)
    for m in _binary_monomials(4):
        mul(mul(x3xi, x3xi), m)
    for m in _binary_monomials(8):
        mul(x3xi, m)

    with tr.span("linsys.build_sextic"):
        sextic = build_sextic_system(pencil)
    with tr.span("linsys.build_degree12"):
        degree12 = build_degree12_system(pencil)
    tr.count("linsys.coeff_bits.max", max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for g in degree12.generators for _, c in g.items()))

    members = list(sextic.generators) + [random_member(sextic, random.Random(seed))]
    t, p1, p3, p4 = generators(PENCIL_VARS)
    images = {"x1": p1, "x2": t * p1, "x3": p3, "x4": p4}
    for f in members:
        tr.count("poly.substitute.terms", len(f))
        with tr.span("poly.substitute"):
            f.substitute(images)
    for f in members:
        with tr.span("linsys.restrict"):
            restrict_to_pencil(f)
        for tau in pencil.roots:
            with tr.span("linsys.restrict"):
                restrict_to_pencil_plane(f, tau)
        for plane in ("x1", "x2"):
            with tr.span("linsys.restrict"):
                coordinate_plane_residual(f, plane)

    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    eta = weighted_parametrization(pencil)
    with tr.span("ratmap.pullback"):
        pulled = pullback_system(eta, basis)
    tr.count("ratmap.pullback.terms", sum(len(g) for g in pulled.generators))

    with tr.span("grading.hilbert"):
        hilbert_count((1, 1, 4, 6), 12)
    with tr.span("grading.enumerate"):
        columns = enumerate_monomials((1, 1, 1, 1), 12)
    tr.count("grading.enumerate.n", len(columns))

    def rows(system) -> list[dict]:
        return [system.coefficient_vector(g) for g in system.generators]

    def insert_all(vectors) -> RowSpace:
        space = RowSpace()
        for v in vectors:
            with tr.span("linalg.insert"):
                gained = space.insert(v)
            tr.count("linalg.insert.n")
            tr.count("linalg.insert.gained", gained)
        return space

    def contains_all(space: RowSpace, vectors) -> None:
        for v in vectors:
            with tr.span("linalg.contains"):
                space.contains(v)
            tr.count("linalg.contains.n")

    # The eliminations of the suites: system-s (sextic rank, constraint rank,
    # constraint-route span), system-t (rank and three member tests), theorem
    # (both ranks, both containments, the span comparison).
    sextic_rows, degree12_rows, pulled_rows = rows(sextic), rows(degree12), rows(pulled)
    insert_all(sextic_rows)
    monomials, constraints = sextic_constraint_rows(pencil)
    insert_all(constraints)
    with tr.span("linalg.nullspace"):
        nullspace_basis(constraints, len(monomials))
    contains_all(insert_all(rows(solve_sextic_constraints(pencil))), sextic_rows)
    degree12_space = insert_all(degree12_rows)
    contains_all(degree12_space, [degree12.coefficient_vector(f) for f in
                                  ((x1 * x2 * x4 * xi) ** 2, (x3 * xi) ** 3, x4 ** 12)])
    pulled_space, direct_space = insert_all(pulled_rows), insert_all(degree12_rows)
    for _ in range(2):
        contains_all(direct_space, pulled_rows)
        contains_all(pulled_space, degree12_rows)
