import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from fano72 import (ArityError, ConfigurationError, ExactDivisionError, InvalidPencilError,
                    LinearSystem, Polynomial, build_degree12_system, build_sextic_system,
                    coordinate_plane_residual,
                    enumerate_monomials, generators, is_homogeneous, is_scalar_multiple,
                    multiplicity_along_line, pullback_system, random_member,
                    restrict_to_pencil, restrict_to_pencil_plane, solve_sextic_constraints,
                    VerifyConfig, WeightedProjectiveSpace, weighted_parametrization)
from fano72 import checks, linalg, linsys, poly
from fano72.checks import sextic_suite
from fano72.linalg import RowSpace
from fano72.cli import main
from fano72.linsys import (P3_VARS, PENCIL_VARS, PencilCubic, conditions_report,
                           constraint_rows, sextic_constraint_rows, solve_constraints)

from oracles import (cauchy_rational_roots, degree12_shapes, pencil_cubic_terms,
                     primitive_form, rational_member, rref_rank, sextic_shapes,
                     valuation_failures)

X1, X2, X3, X4 = generators(P3_VARS)
DEFAULT = PencilCubic.default()
FOUR_ROOTS = [(1, 2, 3), (1, 5, 7), (-3, Fraction(1, 2), 11),
              (Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3))]
FOUR_IDS = ["default", "roots157", "fractional", "tall"]


# -- the pencil cubic -------------------------------------------------------

def test_default_cubic_expansion():
    expected = X2 ** 3 - 6 * X1 * X2 ** 2 + 11 * X1 ** 2 * X2 - 6 * X1 ** 3
    assert DEFAULT.cubic == expected
    assert DEFAULT.roots == (1, 2, 3)
    assert DEFAULT.cubic.coefficient((0, 3, 0, 0)) == 1


def test_cubic_recovered_from_text():
    pencil = PencilCubic.from_text("x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3")
    assert pencil == DEFAULT
    assert pencil.roots == (1, 2, 3)


def test_pencils_are_immutable_values():
    pencils = [PencilCubic.from_roots((1, 2, 3)),
               PencilCubic.from_text("x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3"),
               PencilCubic.default()]
    assert pencils[0] == pencils[1] == pencils[2]
    assert len({hash(pencil) for pencil in pencils}) == 1
    with pytest.raises(AttributeError):
        pencils[0].roots = (4, 5, 6)
    assert repr(pencils[0]) == "PencilCubic(-6*x1^3 + 11*x1^2*x2 - 6*x1*x2^2 + x2^3)"


def test_scaled_cubic_keeps_its_roots():
    pencil = PencilCubic.from_polynomial(Fraction(5, 3) * DEFAULT.cubic)
    assert pencil.roots == (1, 2, 3)
    assert pencil.cubic.coefficient((0, 3, 0, 0)) == Fraction(5, 3)


def test_fractional_roots_are_recovered():
    pencil = PencilCubic.from_roots((Fraction(1, 2), -2, 3))
    again = PencilCubic.from_polynomial(pencil.cubic)
    assert again.roots == (-2, Fraction(1, 2), 3)


def test_repeated_root_is_rejected():
    for roots in ((0, 0, 1), (1, 1, 2), (1, 1, 1), (1, -1, -1)):
        product = (X2 - roots[0] * X1) * (X2 - roots[1] * X1) * (X2 - roots[2] * X1)
        listed = ", ".join(map(str, sorted(roots)))
        with pytest.raises(InvalidPencilError, match=f"pairwise distinct, got {listed}$"):
            PencilCubic.from_polynomial(product)
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_roots((1, 1, 2))


def test_zero_root_is_rejected():
    with_zero = X2 * (X2 - X1) * (X2 - 2 * X1)
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(with_zero)
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_roots((0, 1, 2))


def test_irrational_split_is_rejected():
    for cubic in (X2 ** 3 - 2 * X1 ** 3,
                  X2 ** 3 - X1 ** 3,                         # one rational root
                  X2 ** 3 - 3 * X1 ** 2 * X2 + X1 ** 3,      # three irrational real roots
                  X2 ** 3 + X1 ** 3,
                  # root 1 beside the complex pair 1 +- i: each candidate of the
                  # search is a root, but their product is not the cubic
                  (X2 - X1) * ((X2 - X1) ** 2 + X1 ** 2)):
        with pytest.raises(InvalidPencilError,
                           match=f"^the cubic {re.escape(str(cubic))} does not split into rational planes$"):
            PencilCubic.from_polynomial(cubic)


def test_tall_roots_are_recovered():
    rng = random.Random(71)
    for _ in range(100):
        height = 10 ** rng.randint(1, 30)
        roots = set()
        while len(roots) < 3:
            root = Fraction(rng.randint(-height, height), rng.randint(1, height))
            if root:
                roots.add(root)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
        pencil = PencilCubic.from_polynomial(PencilCubic.from_roots(roots, scale).cubic)
        assert pencil.roots == tuple(sorted(roots))
        assert pencil.cubic.coefficient((0, 3, 0, 0)) == scale


def test_verify_resolves_a_tall_prime_root_in_bounded_time(capsys):
    # trial division up to the square root of 10^16 + 61 ran past 20 s
    cubic = PencilCubic.from_roots((10 ** 16 + 61, 2, -5)).cubic
    started = time.perf_counter()
    assert main(["verify", "--xi", str(cubic)]) == 0
    assert time.perf_counter() - started < 2
    assert "45 checks: 45 passed" in capsys.readouterr().out


def test_fuzzed_cubics_resolve_to_themselves_or_are_refused():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.integers(-10 ** 40, 10 ** 40)
    plane = st.tuples(st.integers(-10 ** 13, 10 ** 13), st.integers(-10 ** 13, 10 ** 13))

    def product(scale, planes):
        cubic = Polynomial.constant(P3_VARS, scale)
        for a, b in planes:
            cubic = cubic * (b * X2 - a * X1)
        return cubic

    cubics = st.one_of(
        st.lists(coefficient, min_size=4, max_size=4).map(
            lambda c: sum((k * X1 ** (3 - i) * X2 ** i for i, k in enumerate(c)),
                          Polynomial.zero(P3_VARS))),
        st.builds(product, st.integers(-10 ** 9, 10 ** 9), st.lists(plane, min_size=3, max_size=3)))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(cubics)
    def check(cubic):
        started = time.perf_counter()
        try:
            pencil = VerifyConfig(xi_text=str(cubic)).pencil
        except ConfigurationError:
            pass
        else:
            assert pencil.cubic == cubic
        assert time.perf_counter() - started < 1

    check()


def test_rational_roots_agree_with_the_cauchy_bound_search():
    # The bisection runs inside a Fujiwara-type bound, far below Cauchy's for
    # tall coefficients; it must find what the search inside Cauchy's bound
    # finds, for split cubics (repeated and zero roots too) and for others.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    height = st.integers(0, 400).map(lambda bits: 2 ** bits)
    coefficient = height.flatmap(lambda h: st.integers(-h, h))
    lead = coefficient.filter(bool)
    plane = st.tuples(coefficient, lead)

    def product(scale, planes):           # scale * prod(q*t - p), low degree first
        coeffs = [scale]
        for p, q in planes:
            coeffs = [q * high - p * low for low, high in zip(coeffs + [0], [0] + coeffs)]
        return tuple(coeffs)

    cubics = st.one_of(st.tuples(coefficient, coefficient, coefficient, lead),
                       st.builds(product, lead, st.lists(plane, min_size=3, max_size=3)))

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cubics)
    def check(coeffs):
        assert linsys._rational_roots(coeffs) == cauchy_rational_roots(coeffs)

    check()


def test_x1_component_is_rejected():
    # no x2^3 term means the plane x1 = 0 divides the cubic
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(X1 * X2 ** 2 - 3 * X1 ** 2 * X2 + 2 * X1 ** 3)


def test_wrong_roots_are_rejected_by_an_explicit_check(monkeypatch, capsys):
    # The product check must survive python -O, so it cannot be an assert.
    monkeypatch.setattr(linsys, "_rational_roots",
                        lambda coeffs: [Fraction(1), Fraction(2), Fraction(4)])
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(DEFAULT.cubic)
    assert main(["verify", "--xi", str(DEFAULT.cubic)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_refusals_of_a_cubic_at_the_bit_cap_stay_short(monkeypatch, capsys):
    # a cubic within the coefficient cap whose text runs past 2 kB; 4 bits under
    # the cap, so that the planes of the mocked roots 1, 2, 4, whose product
    # scales the coefficients by up to 14, stay inside the cap of from_roots
    rng = random.Random(1024)
    denominator = rng.getrandbits(1020) | 1 << 1019
    text = str(Polynomial(P3_VARS, {(3 - k, k, 0, 0): Fraction(rng.getrandbits(1020), denominator)
                                    for k in range(4)}))
    assert len(text) > 2000
    for refusal in ("does not split into rational planes", "is not the product of its root planes"):
        assert main(["verify", "--xi", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: invalid pencil cubic: the cubic ")
        assert err.endswith(f"... {refusal}\n")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200
        monkeypatch.setattr(linsys, "_rational_roots",
                            lambda coeffs: [Fraction(1), Fraction(2), Fraction(4)])


def test_a_cubic_exactly_at_the_bit_cap_builds_from_either_constructor():
    # -6 * 2^1021 * x1^3 needs exactly 1024 bits; one more bit is refused
    at_cap = PencilCubic.from_roots((2 ** 1021, 2, 3))
    assert max(abs(k) for _, k in at_cap.cubic.items()).bit_length() == linsys.MAX_COEFFICIENT_BITS
    assert PencilCubic.from_polynomial(at_cap.cubic) == at_cap
    for refused in (lambda: PencilCubic.from_roots((2 ** 1022, 2, 3)),
                    lambda: PencilCubic.from_polynomial(2 * at_cap.cubic)):
        with pytest.raises(InvalidPencilError, match="need 1025 bits, more than the cap of 1024"):
            refused()


def test_non_cubic_inputs_are_rejected():
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(X2 ** 2 - X1 ** 2)
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(X2 ** 3 - X1 ** 2)
    with pytest.raises(InvalidPencilError):
        PencilCubic.from_polynomial(X3 * X2 ** 2 - X1 ** 3 + X2 ** 3)


# -- linear system plumbing --------------------------------------------------

def test_generators_are_rescaled_and_deduplicated():
    system = LinearSystem(P3_VARS, 1, [2 * X1, X1, X2, Polynomial.zero(P3_VARS)])
    assert system.generators == (X1, X2)
    assert system.projective_dim() == 1


def test_proportional_generators_collapse_to_one_primitive_generator():
    system = LinearSystem(P3_VARS, 1, [X1, 2 * X1, X1 / 3])
    assert system.generators == (X1,)
    assert LinearSystem(P3_VARS, 1, [-X1 / 3 + X2 / 2]).generators == (-2 * X1 + 3 * X2,)
    assert LinearSystem(P3_VARS, 1, [X1 - 2 * X2]).generators == (-X1 + 2 * X2,)
    # a one-term generator ends positive too, from an int or a Fraction coefficient
    assert LinearSystem(P3_VARS, 1, [-3 * X1, X1, -X1 / 2]).generators == (X1,)


def test_primitive_generators_are_kept_and_the_others_normalised():
    primitive = [2 * X2 - X1, X2 ** 2 * X3 + 3 * X1 ** 3]
    others = [6 * X1 * X2 * X3 + 4 * X4 ** 3,          # content 2
              X1 ** 3 - X2 ** 3,                        # negative at the smallest column
              X1 ** 2 * X4 / 6 + X3 ** 3 * Fraction(-3, 4)]    # Fraction coefficients
    system = LinearSystem(P3_VARS, 3, primitive[1:] + others)
    assert system.generators[0] is primitive[1]
    assert LinearSystem(P3_VARS, 1, primitive[:1]).generators[0] is primitive[0]
    assert system.generators[1:] == (3 * X1 * X2 * X3 + 2 * X4 ** 3, X2 ** 3 - X1 ** 3,
                                     -2 * X1 ** 2 * X4 + 9 * X3 ** 3)
    assert all(type(c) is int for g in system.generators for _, c in g.items())


def test_proportional_generators_span_a_point():
    system = LinearSystem(P3_VARS, 1, [X1, 2 * X1])
    assert system.projective_dim() == 0


def test_inhomogeneous_generator_is_rejected():
    with pytest.raises(ValueError):
        LinearSystem(P3_VARS, 2, [X1 ** 2 + X2])
    for g in (X1 ** 2 * X2 + X3, X1 ** 3):      # mixed degrees, or the wrong one throughout
        with pytest.raises(ValueError, match=r"^generator .* is not homogeneous of degree 2$"):
            LinearSystem(P3_VARS, 2, [X1 ** 2, g])


def test_empty_system_has_dimension_minus_one():
    assert LinearSystem(P3_VARS, 3, []).projective_dim() == -1


def test_member_accepts_generators_and_combinations():
    system = build_sextic_system(DEFAULT)
    for g in system.generators:
        assert system.member(g)
    rng = random.Random(2)
    assert system.member(random_member(system, rng))


def test_member_refuses_forms_of_another_degree():
    system = build_sextic_system(DEFAULT)
    assert not system.member(X1 ** 5)
    assert not system.member(X1 ** 6 + X2)


def test_zero_is_a_member_of_every_system():
    system = build_sextic_system(DEFAULT)
    assert system.member(Polynomial.zero(P3_VARS))


def test_projective_dim_is_invariant_under_recombination():
    system = build_sextic_system(DEFAULT)
    gens = list(system.generators)
    rng = random.Random(6)
    for _ in range(3):
        k = len(gens)
        lower = [[Fraction(rng.randint(1, 5)) if i == j
                  else Fraction(rng.randint(-3, 3)) if i > j else Fraction(0)
                  for j in range(k)] for i in range(k)]
        upper = [[Fraction(rng.randint(1, 5)) if i == j
                  else Fraction(rng.randint(-3, 3)) if i < j else Fraction(0)
                  for j in range(k)] for i in range(k)]
        mixer = [[sum(lower[i][m] * upper[m][j] for m in range(k)) for j in range(k)]
                 for i in range(k)]
        recombined = []
        for i in range(k):
            g = Polynomial.zero(P3_VARS)
            for j in range(k):
                g = g + mixer[i][j] * gens[j]
            recombined.append(g)
        assert LinearSystem(P3_VARS, 6, recombined).projective_dim() == 10


# -- multiplicity and restrictions -------------------------------------------

def test_multiplicity_of_plain_monomials():
    assert multiplicity_along_line(X3 ** 6) == 0
    assert multiplicity_along_line(X1 ** 2 * X2 ** 3 * X4) == 5


def test_multiplicity_of_zero_is_undefined():
    with pytest.raises(ValueError):
        multiplicity_along_line(Polynomial.zero(P3_VARS))


def test_multiplicity_is_a_valuation():
    assert valuation_failures(seed=34, cases=200) == []


def test_restrict_to_pencil_of_x2():
    t, x1, _, _ = generators(PENCIL_VARS)
    assert restrict_to_pencil(X2) == t * x1


def test_exact_divide_by_one_term():
    f = X1 ** 5 * X3 + X1 ** 6
    assert f.exact_divide(X1 ** 5) == X3 + X1
    assert [(e, type(c), c) for e, c in (6 * f).exact_divide(2 * X1 ** 5).items()] == \
        [((1, 0, 0, 0), int, 3), ((0, 0, 1, 0), int, 3)]
    assert f.exact_divide(Fraction(2, 3) * X1 ** 5) == Fraction(3, 2) * (X3 + X1)
    with pytest.raises(ExactDivisionError):
        (X1 ** 2 + X2 ** 2).exact_divide(X1)


def test_restrictions_agree_with_substitution():
    # Also the zero polynomial, an x2-free one (x2-degree 0) and roots with a
    # negative numerator.  The restriction to a pencil plane has the
    # substitution's coefficient types, int where integral: on the integer
    # pencils, at an integral root, a generator's restriction is all int.
    t, p1, p3, p4 = generators(PENCIL_VARS)
    zero = Polynomial.zero(P3_VARS)
    x2_free = Fraction(3, 4) * X1 ** 6 - 5 * X1 ** 5 * X3 + Fraction(7, 2) * X1 ** 5 * X4
    rng = random.Random(11)
    for roots in ((1, 2, 3), (1, 5, 7), (-3, Fraction(1, 2), 11),
                  (Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3))):
        pencil = PencilCubic.from_roots(roots)
        polys, integral = [zero, x2_free], []
        for system in (build_sextic_system(pencil), build_degree12_system(pencil)):
            polys += list(system.generators) + [random_member(system, rng)]
            integral += system.generators if all(r.denominator == 1 for r in pencil.roots) else ()
        for f in polys:
            assert restrict_to_pencil(f) == f.substitute(
                {"x1": p1, "x2": t * p1, "x3": p3, "x4": p4})
            for tau in pencil.roots + (Fraction(-5, 3), -4):
                restricted = restrict_to_pencil_plane(f, tau)
                substituted = f.substitute({"x1": X1, "x2": tau * X1, "x3": X3, "x4": X4})
                assert [(e, type(c), c) for e, c in restricted.items()] == \
                    [(e, type(c), c) for e, c in substituted.items()]
                if f in integral and Fraction(tau).denominator == 1:
                    assert all(type(c) is int for _, c in restricted.items())
            for plane, line in (("x1", X2), ("x2", X1)):
                images = {"x1": X1, "x2": X2, "x3": X3, "x4": X4, plane: zero}
                assert coordinate_plane_residual(f, plane) == \
                    f.substitute(images).exact_divide(line ** 5)


def test_restrictions_reject_other_rings():
    swapped = Polynomial(("x2", "x1", "x3", "x4"), {(6, 0, 0, 0): 1})
    for f in (restrict_to_pencil(X2 ** 6), swapped):
        with pytest.raises(ArityError):
            restrict_to_pencil(f)
        with pytest.raises(ArityError):
            restrict_to_pencil_plane(f, 2)
        with pytest.raises(ArityError):
            coordinate_plane_residual(f, "x1")
        with pytest.raises(ArityError):
            multiplicity_along_line(f)


# -- the sextic system --------------------------------------------------------

def test_sextic_system_counts():
    system = build_sextic_system(DEFAULT)
    assert len(system.generators) == 11
    assert system.projective_dim() == 10
    assert all(is_homogeneous(g, (1, 1, 1, 1)) == 6 for g in system.generators)


def test_sextic_multiplicity_along_the_line():
    system = build_sextic_system(DEFAULT)
    multiplicities = [multiplicity_along_line(g) for g in system.generators]
    assert min(multiplicities) == 5
    assert all(m >= 5 for m in multiplicities)
    member = random_member(system, random.Random(1))
    assert multiplicity_along_line(member) == 5


def test_sextic_pencil_restriction_has_linear_moving_part():
    system = build_sextic_system(DEFAULT)
    members = list(system.generators) + [random_member(system, random.Random(8))]
    x1_fifth = Polynomial.monomial(PENCIL_VARS, (0, 5, 0, 0))
    for f in members:
        residual = restrict_to_pencil(f).exact_divide(x1_fifth)
        assert residual.degree_in(("x1", "x3", "x4")) <= 1


def test_sextic_sections_of_coordinate_planes_are_lines_through_the_point():
    system = build_sextic_system(DEFAULT)
    members = list(system.generators) + [random_member(system, random.Random(14))]
    for f in members:
        for plane in ("x1", "x2"):
            residual = coordinate_plane_residual(f, plane)
            assert not residual.uses_variable("x4")
            if residual:
                assert is_homogeneous(residual, (1, 1, 1, 1)) == 1


def test_sextic_sections_of_pencil_root_planes_are_the_sextuple_line():
    system = build_sextic_system(DEFAULT)
    members = list(system.generators) + [random_member(system, random.Random(15))]
    for tau in DEFAULT.roots:
        for f in members:
            section = restrict_to_pencil_plane(f, tau)
            assert is_scalar_multiple(section, (6, 0, 0, 0))
    # at a non-root parameter the section is not just the line
    member = members[-1]
    assert not is_scalar_multiple(restrict_to_pencil_plane(member, 4), (6, 0, 0, 0))


def test_restriction_at_a_root_for_a_single_generator():
    # the x1*x2*x4*xi generator collapses to 0 at a root; a pure binary sextic
    # restricts to a nonzero multiple of x1^6
    generator = primitive_form(X1 * X2 * X4 * DEFAULT.cubic)
    assert generator in build_sextic_system(DEFAULT).generators
    collapsed = restrict_to_pencil_plane(generator, DEFAULT.roots[0])
    assert not collapsed
    monomial = restrict_to_pencil_plane(X2 ** 6, DEFAULT.roots[0])
    assert monomial == X1 ** 6


# -- the constraint route ------------------------------------------------------

def test_constraint_matrix_shape_and_rank():
    monomials, rows = sextic_constraint_rows(DEFAULT)
    assert len(monomials) == 19
    assert len(rows) == 8
    # frozen from the dense elimination oracle: all 8 conditions independent
    assert rref_rank(rows) == 8


@pytest.mark.parametrize("roots", [(1, 2, 3),
                                   (Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3))],
                         ids=["default", "tall"])
def test_constraint_rows_are_the_rational_conditions_times_q_to_the_fifth(roots):
    pencil = PencilCubic.from_roots(roots)
    monomials, rows = sextic_constraint_rows(pencil)
    assert all(type(v) is int for row in rows for v in row)
    rational = [[int(m == plane) for m in monomials] for plane in ((0, 5, 0, 1), (5, 0, 0, 1))]
    scales = [1, 1]
    for tau in pencil.roots:
        for tail in ((1, 0), (0, 1)):
            rational.append([tau ** m[1] if m[2:] == tail else 0 for m in monomials])
            scales.append(tau.denominator ** 5)
    assert rows == [[scale * v for v in row] for scale, row in zip(scales, rational)]
    assert rref_rank(rows) == rref_rank(rational) == 8


def test_constraint_solution_dimension_and_span():
    solved = solve_sextic_constraints(DEFAULT)
    assert len(solved.generators) == 11
    assert solved.projective_dim() == 10
    # the conditions cut out both systems, so the two spans are one
    assert conditions_report(DEFAULT, solved)[3]
    assert conditions_report(DEFAULT, build_sextic_system(DEFAULT))[3]


def test_dropping_one_plane_condition_grows_the_solution_space():
    _, rows = sextic_constraint_rows(DEFAULT)
    # frozen from the dense elimination oracle: 19 - rank(7 rows) = 12
    assert 19 - rref_rank(rows[1:]) == 12


def test_constraint_route_for_another_pencil():
    pencil = PencilCubic.from_roots((-1, Fraction(1, 2), 5))
    solved = solve_sextic_constraints(pencil)
    assert len(solved.generators) == 11
    assert conditions_report(pencil, solved)[3]
    assert conditions_report(pencil, build_sextic_system(pencil))[3]


def test_spans_differ_when_the_pencils_differ():
    other = PencilCubic.from_roots((1, 2, 4))
    assert conditions_report(DEFAULT, build_sextic_system(DEFAULT))[3]
    assert not conditions_report(DEFAULT, build_sextic_system(other))[3]
    assert not conditions_report(other, build_sextic_system(DEFAULT))[3]


# -- the degree-12 system --------------------------------------------------------

def test_degree12_system_counts():
    system = build_degree12_system(DEFAULT)
    assert len(system.generators) == 39
    assert system.projective_dim() == 38
    assert all(is_homogeneous(g, (1, 1, 1, 1)) == 12 for g in system.generators)


def test_degree12_multiplicity_along_the_line():
    system = build_degree12_system(DEFAULT)
    multiplicities = [multiplicity_along_line(g) for g in system.generators]
    assert min(multiplicities) == 9
    assert all(m >= 9 for m in multiplicities)


def test_degree12_membership_examples():
    system = build_degree12_system(DEFAULT)
    xi = DEFAULT.cubic
    assert system.member((X1 * X2 * X4 * xi) ** 2)
    assert system.member((X3 * xi) ** 3)
    assert not system.member(X4 ** 12)


def test_degree12_membership_against_rank_oracle():
    # independent route: appending x4^12 must raise the dense-matrix rank
    system = build_degree12_system(DEFAULT)
    columns = enumerate_monomials((1, 1, 1, 1), 12)
    rows = [[g.coefficient(e) for e in columns] for g in system.generators]
    assert rref_rank(rows) == 39
    extra = [(X4 ** 12).coefficient(e) for e in columns]
    assert rref_rank(rows + [extra]) == 40
    inside = [((X3 * DEFAULT.cubic) ** 3).coefficient(e) for e in columns]
    assert rref_rank(rows + [inside]) == 39


@pytest.mark.parametrize("roots", FOUR_ROOTS, ids=FOUR_IDS)
def test_builders_return_the_hand_written_shapes_in_order(roots):
    # The builders are pullbacks and list their generators in the order of the
    # weighted basis, not in the shapes' block order, so the sets are compared.
    pencil = PencilCubic.from_roots(roots)
    for build, shapes in ((build_sextic_system, sextic_shapes),
                          (build_degree12_system, degree12_shapes)):
        generators = build(pencil).generators
        expected = [primitive_form(g) for g in shapes(pencil)]
        assert len(generators) == len(expected)
        assert set(generators) == set(expected)


def test_builders_multiply_once_per_image_power_and_block(monkeypatch):
    # Each basis monomial's image is a shift of one memoised product per
    # (x3, x4)-exponent block, and the components are single terms and shifts
    # of xi, so the products are those of the image powers and the blocks
    # (4 and 0), none of them with 1, not one or more per generator (126 and
    # 38 when every monomial was multiplied out).  The single-term images and
    # the one-term images of the basis are shifts, and the basis is checked
    # term by term, with no merged polynomial (one merge each before), so the
    # merges are, at degree 12, the four products of multi-term images:
    # (x3*xi)^2, (x3*xi)^3, (x1*x2*x4*xi)^2 and their block (1, 1), and none
    # at degree 6, not 88 and 28 as when every one-term image went through
    # the merge.
    calls, merges = [], []
    multiply, merge = Polynomial.__mul__, poly._merged_terms

    def counted(a, b):
        calls.append(None)
        return multiply(a, b)

    def counted_merge(terms):
        merges.append(None)
        return merge(terms)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(poly, "_merged_terms", counted_merge)
    for build, bound, merged in ((build_degree12_system, 4, 4), (build_sextic_system, 0, 0)):
        calls.clear()
        merges.clear()
        build(DEFAULT)
        assert len(calls) <= bound, build.__name__
        assert len(merges) == merged, build.__name__


def _assert_span_agrees_three_ways(system, probes):
    # The private span LinearSystem made from its rows, a RowSpace that
    # normalises the coefficient vectors again, and the dense oracle must
    # give one rank and one membership answer per probe, and leave every
    # generator's terms as they were.  Each generator times -3/7 is a member
    # by construction, so only the probes need the oracle's answer.
    before = [g.items() for g in system.generators]
    span = system._span
    again = RowSpace(system.coefficient_vector(g) for g in system.generators)
    columns = sorted({e for f in (*system.generators, *probes) for e in f.monomials()})
    dense = [[g.coefficient(e) for e in columns] for g in system.generators]
    rank = rref_rank(dense)
    assert system.rank == span.rank == again.rank == rank == len(system.generators)
    cases = [(f, rref_rank(dense + [[f.coefficient(e) for e in columns]]) == rank)
             for f in probes]
    cases += [(Fraction(-3, 7) * g, True) for g in system.generators]
    for f, expected in cases:
        vector = system.coefficient_vector(f)
        assert span.contains(vector) == again.contains(vector) == system.member(f) == expected
        assert span.reduce(vector) == again.reduce(vector)
    assert [g.items() for g in system.generators] == before


@pytest.mark.parametrize("roots", FOUR_ROOTS, ids=FOUR_IDS)
def test_the_span_of_the_stored_rows_is_the_span_of_the_generators(roots):
    pencil = PencilCubic.from_roots(roots)
    xi = pencil.cubic
    special = [(X1 * X2 * X4 * xi) ** 2, (X3 * xi) ** 3, X4 ** 12]
    for build in (build_sextic_system, build_degree12_system):
        system = build(pencil)
        _assert_span_agrees_three_ways(system, special)
    assert [build_degree12_system(pencil).member(f) for f in special] == [True, True, False]


def test_a_built_system_hands_out_no_span_and_changes_no_slot():
    # The span is made with the generators and stays private: no attribute
    # returns it, and no slot, rank included, can be set afterwards.
    system = build_sextic_system(DEFAULT)
    assert not hasattr(system, "row_space")
    assert not any(isinstance(getattr(system, name), RowSpace)
                   for name in dir(system) if not name.startswith("_"))
    with pytest.raises(AttributeError):
        system.rank = 0
    assert (len(system.generators), system.rank, system.projective_dim()) == (11, 11, 10)
    assert not system.member(X4 ** 6)
    assert conditions_report(DEFAULT, system)[3]


def test_hand_made_generators_are_normalised_once_into_their_span():
    # A non-primitive int generator, a Fraction one, one whose last term is
    # negative, and an exact duplicate: the system keeps three primitive
    # generators, and its span of their stored rows is theirs.
    a = 6 * X1 ** 2 + 4 * X2 * X3
    b = Fraction(1, 3) * X1 * X2 - Fraction(1, 2) * X3 ** 2
    c = X1 * X4 - X4 ** 2
    inputs = [a, b, c, a]
    before = [f.items() for f in inputs]
    system = LinearSystem(P3_VARS, 2, inputs)
    assert system.generators == (3 * X1 ** 2 + 2 * X2 * X3, -2 * X1 * X2 + 3 * X3 ** 2,
                                 -X1 * X4 + X4 ** 2)
    probes = [a + b, a - c, Fraction(-3, 7) * b, X1 ** 2, X2 ** 2, X1 * X2 + X4 ** 2]
    _assert_span_agrees_three_ways(system, probes)
    assert [system.member(f) for f in probes] == [True, True, True, False, False, False]
    assert [f.items() for f in inputs] == before


def test_a_span_normalises_each_generator_once(monkeypatch):
    # LinearSystem makes each generator's primitive integer row once, and its
    # span inserts those rows as they are.  An all-int row goes straight to
    # _primitive, which hands a primitive row back as it is, so for the
    # default pencil each generator's own term dict is made primitive once and
    # no row goes through _to_int_row (39 and 11 calls before, one per
    # generator).  With the scale 1/6 the images with a factor of xi, 26 of
    # 39 and 4 of 11, have Fraction rows, and each goes through _to_int_row
    # once.  No row is normalised twice, as when the span normalised them
    # again.
    primitive, normalise = linalg._primitive, linalg._to_int_row
    made_primitive, normalised = [], []

    def counted_primitive(row):
        made_primitive.append(row)
        return primitive(row)

    def counted_normalise(row):
        normalised.append(row)
        return normalise(row)

    monkeypatch.setattr(linalg, "_primitive", counted_primitive)
    monkeypatch.setattr(linalg, "_to_int_row", counted_normalise)
    fractional = PencilCubic.from_roots((1, 2, 3), Fraction(1, 6))
    for pencil, build, count, with_fractions in (
            (DEFAULT, build_degree12_system, 39, 0), (DEFAULT, build_sextic_system, 11, 0),
            (fractional, build_degree12_system, 39, 26), (fractional, build_sextic_system, 11, 4)):
        made_primitive.clear()
        normalised.clear()
        system = build(pencil)
        assert system.rank == count
        assert len({id(row) for row in normalised}) == len(normalised) == with_fractions
        assert all(any(type(k) is Fraction for k in row.values()) for row in normalised)
        if not with_fractions:
            assert [sum(row is g._terms for row in made_primitive)
                    for g in system.generators] == [1] * count, build.__name__


def test_scalars_and_single_terms_skip_the_checked_constructor(monkeypatch):
    # A scalar operand is one trusted term, so c * g is a trusted product, -g
    # and g / c are plain shifts, and the pencil's product is scaled the same
    # way: no caller terms to check anywhere in a random member, a scaled,
    # negated or divided generator or a pencil.
    checked = []
    check = poly._checked_terms

    def counted(ring, terms):
        checked.append(ring)
        return check(ring, terms)

    system = build_sextic_system(DEFAULT)
    g = system.generators[0]
    monkeypatch.setattr(poly, "_checked_terms", counted)
    member = random_member(system, random.Random(5))
    scaled = Fraction(-3, 4) * g
    negated = -g
    divided = g / 3
    pencil = PencilCubic.from_roots((Fraction(1, 2), -3, 7), Fraction(5, 2))
    assert checked == []
    assert scaled == Polynomial(P3_VARS, {e: Fraction(-3, 4) * k for e, k in g.items()})
    assert negated == Polynomial(P3_VARS, {e: -k for e, k in g.items()})
    assert divided == Polynomial(P3_VARS, {e: Fraction(k, 3) for e, k in g.items()})
    assert system.member(member)
    assert pencil.cubic.coefficient((0, 3, 0, 0)) == Fraction(5, 2)


# -- the constraint route at degree 12 ---------------------------------------------

def test_degree12_constraint_matrix_shape_and_rank():
    monomials, rows = constraint_rows(DEFAULT, 12)
    assert len(monomials) == 110
    assert all(e[0] + e[1] >= 9 for e in monomials)
    assert len(rows) == 80
    # the dense elimination oracle: 110 - 71 = 39 solutions
    assert rref_rank(rows) == 71


@pytest.mark.parametrize("roots", FOUR_ROOTS, ids=FOUR_IDS)
def test_degree12_conditions_cut_out_the_system_and_the_pullback(roots):
    pencil = PencilCubic.from_roots(roots)
    solved = solve_constraints(pencil, 12)
    assert len(solved.generators) == 39
    pulled = pullback_system(weighted_parametrization(pencil),
                             WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis())
    for system in (solved, LinearSystem(P3_VARS, 12, degree12_shapes(pencil)), pulled):
        assert conditions_report(pencil, system)[3]


@dataclass(frozen=True)
class RootsOnly:
    """A stand-in pencil for roots PencilCubic refuses: the roots and their product cubic."""
    roots: tuple[Fraction, ...]
    cubic: Polynomial


def _stand_in(roots) -> RootsOnly:
    cubic = Polynomial.constant(P3_VARS, 1)
    for root in roots:
        cubic = cubic * (X2 - root * X1)
    return RootsOnly(tuple(Fraction(r) for r in roots), cubic)


@pytest.mark.parametrize("roots, ranks", [((0, 1, 2), (7, 67)), ((1, 1, 2), (6, 58))],
                         ids=["zero-root", "repeated-root"])
def test_inadmissible_roots_lose_conditions_and_the_span(roots, ranks):
    pencil = _stand_in(roots)
    for degree, build, rank in zip((6, 12), (build_sextic_system, build_degree12_system), ranks):
        monomials, rows = constraint_rows(pencil, degree)
        assert rref_rank(rows) == rank
        system = build(pencil)
        assert not conditions_report(pencil, system)[3]
        assert len(solve_constraints(pencil, degree).generators) == len(monomials) - rank \
            > system.rank


# -- the certificate: rank of the conditions and annihilation -----------------------

@pytest.mark.parametrize("roots", FOUR_ROOTS, ids=FOUR_IDS)
@pytest.mark.parametrize("degree, build", [(6, build_sextic_system), (12, build_degree12_system)],
                         ids=["sextic", "degree12"])
def test_conditions_report_agrees_with_the_dense_rank_and_the_solutions(roots, degree, build):
    pencil = PencilCubic.from_roots(roots)
    system = build(pencil)
    rank, dimension, inside, cut_out = conditions_report(pencil, system)
    monomials, rows = constraint_rows(pencil, degree)
    assert rank == rref_rank(rows)
    assert dimension == len(monomials) - rank == len(solve_constraints(pencil, degree).generators)
    assert (rank, dimension) == {6: (8, 11), 12: (71, 39)}[degree]
    assert inside is system
    assert system.rank == dimension
    assert cut_out


@pytest.mark.parametrize("roots, ranks, dimensions", [((0, 1, 2), (7, 67), (12, 43)),
                                                      ((1, 1, 2), (6, 58), (13, 52))],
                         ids=["zero-root", "repeated-root"])
def test_conditions_report_on_inadmissible_roots_fails_the_equality(roots, ranks, dimensions):
    pencil = _stand_in(roots)
    for degree, build, rank, dimension in zip((6, 12), (build_sextic_system, build_degree12_system),
                                              ranks, dimensions):
        system = build(pencil)
        report = conditions_report(pencil, system)
        assert report[:2] == (rank, dimension)
        assert rank == rref_rank(constraint_rows(pencil, degree)[1])
        _, _, inside, cut_out = report
        assert not cut_out
        assert not (inside.generators == system.generators
                    and system.rank == dimension)
        # inside holds exactly the generators whose coefficient vectors lie on the
        # conditions' columns and meet every row in 0.  Against their own weakened
        # conditions all are inside; against the default pencil's, only some are.
        for conditions, partial in ((pencil, False), (DEFAULT, True)):
            monomials, rows = constraint_rows(conditions, degree)
            expected = []
            for g in system.generators:
                terms = dict(g.items())
                vector = [terms.get(e, 0) for e in monomials]
                if terms.keys() <= set(monomials) and not any(
                        sum(r * v for r, v in zip(row, vector)) for row in rows):
                    expected.append(g)
            inside = conditions_report(conditions, system)[2]
            assert inside.generators == tuple(expected)
            assert (len(expected) < len(system.generators)) == partial


DEGENERATE_ROOTS = [(0, 1, 2), (0, -3, Fraction(5, 2)), (1, 1, 2), (-2, -2, 7), (3, 3, 3),
                    (0, 0, 4), (0, 0, 0), (-1, 1, 2), (Fraction(-1, 2), Fraction(1, 2), 0),
                    (5, -5, 5)]


def test_conditions_rank_on_degenerate_roots_matches_the_dense_oracle():
    # A zero root, a repeated or triple root, two or three zeros, and +-r
    # pairs.  Zero and repeated roots are the only ones whose contact rows
    # meet a zero pivot entry or a column with nothing left: the echelon's row
    # swaps and column skips.  The degree-12 oracle takes about 0.15 s a
    # pencil, so it runs on the last six.
    for degree, build, cases in ((6, build_sextic_system, DEGENERATE_ROOTS),
                                 (12, build_degree12_system, DEGENERATE_ROOTS[4:])):
        for roots in cases:
            pencil = _stand_in(roots)
            rank = conditions_report(pencil, build(pencil))[0]
            assert rank == rref_rank(constraint_rows(pencil, degree)[1])


@pytest.mark.parametrize("roots", [FOUR_ROOTS[0], FOUR_ROOTS[3]], ids=["default", "tall"])
def test_the_certificate_takes_no_gcd_pass(monkeypatch, roots):
    # The conditions' ranks come from one fraction-free echelon per contact
    # order: no sparse elimination and no content division.  The system's own
    # rank was read when it was built, before the count starts.
    pencil = PencilCubic.from_roots(roots)
    systems = [build_sextic_system(pencil), build_degree12_system(pencil)]
    calls = []
    for name in ("_eliminate", "_primitive"):
        def counted(*args, name=name, original=getattr(linalg, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(linalg, name, counted)
    for system in systems:
        assert conditions_report(pencil, system)[3]
    assert calls == []


def test_conditions_report_counts_generators_off_the_conditions_as_outside():
    # x2^5*x4 sits on an end column of block (0, 1); x1^5*x3 lies on inner
    # columns but does not vanish on the pencil planes; x4^6 is in no block.
    system = LinearSystem(P3_VARS, 6, [X2 ** 5 * X4, X1 ** 5 * X3, X4 ** 6, X1 ** 6])
    rank, dimension, inside, cut_out = conditions_report(DEFAULT, system)
    assert (rank, dimension) == (8, 11)
    assert inside.generators == (X1 ** 6,)
    assert not cut_out


def test_conditions_report_counts_a_sum_across_blocks_as_inside():
    xi = DEFAULT.cubic
    sextic = LinearSystem(P3_VARS, 6, [X1 * X2 * X4 * xi + X3 * xi * X1 * X2])
    degree12 = LinearSystem(P3_VARS, 12, [(X1 * X2 * X4 * xi) ** 2 - 3 * (X3 * xi) ** 3
                                          + X3 * xi * X1 ** 8])
    for system in (sextic, degree12):
        _, _, inside, cut_out = conditions_report(DEFAULT, system)
        assert inside is system
        assert not cut_out      # inside, but one generator does not span the whole space


def test_conditions_report_rejects_other_rings():
    system = LinearSystem(PENCIL_VARS, 1, [Polynomial.variable(PENCIL_VARS, "t")])
    with pytest.raises(ArityError):
        conditions_report(DEFAULT, system)


@pytest.mark.parametrize("roots", FOUR_ROOTS, ids=FOUR_IDS)
def test_random_member_is_the_rational_combination_times_the_lcm(roots, monkeypatch):
    # random_member draws +-a_i/b_i per generator as the rational combination
    # does and returns it times L = lcm(b_i), in int: the same surface, so
    # the sextic suite counts the same on either member.
    pencil = PencilCubic.from_roots(roots)
    for system in (build_sextic_system(pencil), build_degree12_system(pencil)):
        for seed in range(6):
            member = random_member(system, random.Random(seed))
            rational, common = rational_member(system.generators, random.Random(seed))
            assert member == Polynomial(P3_VARS, {e: common * c for e, c in rational.items()})
            assert all(type(c) is int for _, c in member.items())
    for seed in (0, 3, 11):
        integral = [(r.check_id, r.computed) for r in sextic_suite(pencil, random.Random(seed))]
        with monkeypatch.context() as patched:
            patched.setattr(checks, "random_member", lambda system, rng: Polynomial(
                P3_VARS, rational_member(system.generators, rng)[0]))
            assert [(r.check_id, r.computed)
                    for r in sextic_suite(pencil, random.Random(seed))] == integral


def test_from_roots_is_the_fraction_product_of_its_planes():
    # from_roots multiplies the integer factors q*x2 - p*x1 and scales once by
    # scale / (q1*q2*q3); the oracle multiplies scale*(x2 - t*x1) over Fractions.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nonzero = st.integers(-10 ** 30, 10 ** 30).filter(bool)
    root = st.one_of(nonzero, st.builds(Fraction, nonzero, st.integers(1, 10 ** 30)),
                     st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 99)))
    scale = st.one_of(nonzero, st.builds(Fraction, nonzero, st.integers(2, 10 ** 30)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(root, min_size=3, max_size=3, unique_by=Fraction), scale)
    def check(roots, scale):
        pencil = PencilCubic.from_roots(roots, scale)
        expected = pencil_cubic_terms(roots, scale)
        assert dict(pencil.cubic.items()) == expected
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for _, c in pencil.cubic.items())
        assert pencil.roots == tuple(sorted(map(Fraction, roots)))

    check()
