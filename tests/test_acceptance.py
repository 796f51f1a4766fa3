"""Acceptance suite: the exit criteria of the package, all checked exactly.

Every comparison is exact rational or integer arithmetic with zero
tolerance.  Each criterion prints one PASS/FAIL line with its wall time;
run ``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import random
from time import perf_counter

from fano72 import (BundleSystemSpec, RuledClass, SplitBundle,
                    WeightedProjectiveSpace, build_degree12_system,
                    build_sextic_system, conditions_report,
                    coordinate_plane_residual, factor_out, hilbert_count,
                    is_homogeneous, is_scalar_multiple, multiplicity_along_line,
                    pullback_system, random_member, restrict_to_pencil,
                    restrict_to_pencil_plane, solve_constraints,
                    solve_sextic_constraints, system_dim,
                    weighted_parametrization)
from fano72.linsys import PencilCubic, sextic_constraint_rows

from oracles import (hilbert_consistency_failures,
                     pullback_multiplicativity_failures, rref_rank,
                     ring_axiom_failures, same_span, substitution_failures,
                     valuation_failures)

DEFAULT = PencilCubic.default()
ALTERNATE = PencilCubic.from_roots((1, 5, 7))
MEMBER_SEED = 42


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def _conclude(number, label, failures, started):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number:>2} ({perf_counter() - started:.2f}s): {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_weighted_degree_12_space():
    started = perf_counter()
    failures = []
    _check(failures, hilbert_count((1, 1, 4, 6), 12) == 39,
           f"hilbert count is {hilbert_count((1, 1, 4, 6), 12)}, wanted 39")
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    _check(failures, len(basis) - 1 == 38,
           f"embedding dimension is {len(basis) - 1}, wanted 38")
    _conclude(1, "39 degree-12 monomials, anticanonical embedding in P^38",
              failures, started)


def test_criterion_02_both_spaces_have_degree_72():
    started = perf_counter()
    failures = []
    for weights in ((1, 1, 4, 6), (1, 1, 1, 3)):
        space = WeightedProjectiveSpace(weights)
        degree = space.anticanonical_selfintersection()
        _check(failures, degree == 72, f"P{weights} degree is {degree}, wanted 72")
        _check(failures, degree.denominator == 1, f"P{weights} degree is not an integer")
        _check(failures, len(space.anticanonical_basis()) == 39,
               f"P{weights} basis size is {len(space.anticanonical_basis())}, wanted 39")
    _conclude(2, "anticanonical self-intersection 72 and basis size 39 for both spaces",
              failures, started)


def test_criterion_03_bundle_system_dimensions():
    started = perf_counter()
    failures = []
    cone = SplitBundle((0, 2, 6))
    got = system_dim(cone, BundleSystemSpec(3, -6))
    _check(failures, got == 38, f"cubic-minus-six-fibres dimension is {got}, wanted 38")
    got = system_dim(cone, BundleSystemSpec(1, 0))
    _check(failures, got == 10, f"tautological dimension is {got}, wanted 10")
    _conclude(3, "bundle system dimensions 38 and 10 on the cone's resolution",
              failures, started)


def test_criterion_04_scroll_intersection_numbers():
    started = perf_counter()
    failures = []
    e = RuledClass(4, 1, 0)
    fibre = RuledClass(4, 0, 1)
    hyperplane = RuledClass(4, 1, 6)
    _check(failures, hyperplane.intersect(hyperplane) == 8, "hyperplane^2 is not 8")
    _check(failures, e.intersect(hyperplane) == 2, "section degree is not 2")
    _check(failures, fibre.intersect(hyperplane) == 1, "ruling degree is not 1")
    _check(failures, SplitBundle((2, 6)).h0() == 10, "h0(O(2)+O(6)) is not 10")
    _conclude(4, "scroll degree 8, conic section, line rulings, P^9 embedding",
              failures, started)


def test_criterion_05_sextic_system():
    started = perf_counter()
    failures = []
    system = build_sextic_system(DEFAULT)
    _check(failures, len(system.generators) == 11,
           f"{len(system.generators)} generators, wanted 11")
    _check(failures, system.projective_dim() == 10,
           f"projective dimension {system.projective_dim()}, wanted 10")
    _check(failures, all(is_homogeneous(g, (1, 1, 1, 1)) == 6 for g in system.generators),
           "not every generator has degree 6")
    _check(failures, min(multiplicity_along_line(g) for g in system.generators) == 5,
           "generator multiplicity along the line is not 5")
    member = random_member(system, random.Random(MEMBER_SEED))
    _check(failures, multiplicity_along_line(member) == 5,
           "random member multiplicity is not exactly 5")
    for f in list(system.generators) + [member]:
        residual = factor_out(restrict_to_pencil(f), "x1", 5)
        _check(failures, residual.degree_in(("x1", "x3", "x4")) <= 1,
               f"pencil residual of {f} is not linear")
    _conclude(5, "sextic system: 11 generators, dimension 10, quintuple line, "
                 "linear moving part", failures, started)


def test_criterion_06_plane_sections():
    started = perf_counter()
    failures = []
    system = build_sextic_system(DEFAULT)
    members = list(system.generators) + [random_member(system, random.Random(MEMBER_SEED))]
    for f in members:
        for plane in ("x1", "x2"):
            residual = coordinate_plane_residual(f, plane)
            _check(failures, not residual.uses_variable("x4"),
                   f"{plane} = 0 residual of {f} involves x4")
        for tau in DEFAULT.roots:
            section = restrict_to_pencil_plane(f, tau)
            _check(failures, is_scalar_multiple(section, (6, 0, 0, 0)),
                   f"section at x2 = {tau}*x1 of {f} is not scalar * x1^6")
    _conclude(6, "coordinate-plane sections are lines through [0,0,0,1]; "
                 "root-plane sections are the sextuple line", failures, started)


def test_criterion_07_constraint_route():
    started = perf_counter()
    failures = []
    solved = solve_sextic_constraints(DEFAULT)
    _check(failures, len(solved.generators) == 11,
           f"constraint solution dimension {len(solved.generators)}, wanted 11")
    _check(failures, same_span(solved, build_sextic_system(DEFAULT)),
           "constraint route disagrees with the generator route")
    _, rows = sextic_constraint_rows(DEFAULT)
    _check(failures, rref_rank(rows) == 8,
           "independent elimination oracle does not see rank 8")
    _conclude(7, "incidence constraints cut dimension 11 and match the sextic system",
              failures, started)


def test_criterion_08_degree12_system():
    started = perf_counter()
    failures = []
    system = build_degree12_system(DEFAULT)
    _check(failures, len(system.generators) == 39,
           f"{len(system.generators)} generators, wanted 39")
    _check(failures, system.projective_dim() == 38,
           f"projective dimension {system.projective_dim()}, wanted 38")
    _check(failures, all(is_homogeneous(g, (1, 1, 1, 1)) == 12 for g in system.generators),
           "not every generator has degree 12")
    _check(failures, all(multiplicity_along_line(g) >= 9 for g in system.generators),
           "a generator has multiplicity below 9 along the line")
    _conclude(8, "degree-12 system: 39 generators, dimension 38, ninefold line",
              failures, started)


def test_criterion_09_span_identity():
    started = perf_counter()
    failures = []
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    for pencil, name in ((DEFAULT, "default"), (ALTERNATE, "alternate")):
        pulled = pullback_system(weighted_parametrization(pencil), basis)
        solved = solve_constraints(pencil, 12)
        for label, system in (("pullback", pulled), ("conditions", solved)):
            rank = system.row_space().rank
            _check(failures, rank == 39, f"{name}: {label} rank {rank}, wanted 39")
        _check(failures, same_span(pulled, solved), f"{name}: span identity failed")
        _check(failures, conditions_report(pencil, pulled)[3],
               f"{name}: the certificate does not see the conditions cut out the pullback")
    _conclude(9, "anticanonical pullback span equals the span cut out by the degree-12 "
                 "conditions for two pencils",
              failures, started)


def test_criterion_10_randomized_property_suites():
    started = perf_counter()
    failures = []
    failures += ring_axiom_failures(seed=101, cases=1000)
    failures += substitution_failures(seed=102, cases=1000)
    failures += pullback_multiplicativity_failures(
        seed=103, cases=1000, phi=weighted_parametrization(DEFAULT))
    failures += valuation_failures(seed=104, cases=1000)
    failures += hilbert_consistency_failures(seed=105, cases=1000, max_degree=40)
    _conclude(10, "1000-case property suites: ring axioms, substitution, pullback "
                  "multiplicativity, valuation, Hilbert counts", failures, started)
