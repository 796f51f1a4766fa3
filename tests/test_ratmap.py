import random
from fractions import Fraction

import pytest

from fano72 import (ArityError, GradingError, LinearSystem, Polynomial,
                    WeightedProjectiveSpace, conditions_report, enumerate_monomials,
                    generators, hilbert_count, image_degrees, is_homogeneous,
                    pullback_system, solve_constraints, substitute_all,
                    weighted_parametrization)
from fano72.linsys import P3_VARS, PencilCubic
from fano72.ratmap import TARGET_VARS

from oracles import (degree12_shapes, pullback_multiplicativity_failures, primitive_form,
                     rand_fraction)

X1, X2, X3, X4 = generators(P3_VARS)
Y1, Y2, Y3, Y4 = generators(TARGET_VARS)
DEFAULT = PencilCubic.default()
ETA = weighted_parametrization(DEFAULT)
TALL = (Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3))


def test_parametrization_component_degrees_and_weights():
    assert image_degrees(ETA) == (1, 1, 4, 6)
    assert tuple(ETA) == TARGET_VARS
    assert ETA["y1"] == X1
    assert ETA["y2"] == X2


def test_quadratic_pencil_factor_breaks_the_grading():
    quadratic = (X2 - X1) * (X2 - 2 * X1)
    with pytest.raises(GradingError):
        image_degrees({"y1": X1, "y2": X2, "y3": X3 * (DEFAULT.cubic + quadratic),
                       "y4": X1 * X2 * X4 * DEFAULT.cubic})
    # homogeneous images of the wrong degrees: the target's weights are (1, 1, 3, 5),
    # in which the anticanonical basis of P(1, 1, 4, 6) has no one degree
    phi = dict(zip(TARGET_VARS, (X1, X2, X3 * quadratic, X1 * X2 * X4 * quadratic)))
    assert image_degrees(phi) == (1, 1, 3, 5)
    with pytest.raises(GradingError):
        pullback_system(phi, WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis())


def test_zero_component_is_rejected():
    with pytest.raises(GradingError):
        image_degrees(dict(zip(TARGET_VARS, (X1, X2, X3 * DEFAULT.cubic,
                                             Polynomial.zero(P3_VARS)))))


def test_pullback_of_the_weight_six_square():
    xi = DEFAULT.cubic
    assert (Y4 ** 2).substitute(ETA) == X1 ** 2 * X2 ** 2 * X4 ** 2 * xi ** 2


def test_pullback_of_the_weight_four_cube():
    xi = DEFAULT.cubic
    assert (Y3 ** 3).substitute(ETA) == X3 ** 3 * xi ** 3


def test_weight_one_variables_pull_back_to_themselves():
    rng = random.Random(21)
    for _ in range(50):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        assert (Y1 ** a * Y2 ** b).substitute(ETA) == X1 ** a * X2 ** b


def test_pullback_requires_weighted_homogeneity():
    with pytest.raises(GradingError):        # Y1 + Y3
        pullback_system(ETA, [(1, 0, 0, 0), (0, 0, 1, 0)])


def test_pullback_of_zero_is_zero():
    assert not Polynomial.zero(TARGET_VARS).substitute(ETA)


def test_pullback_preserves_weighted_degree():
    rng = random.Random(22)
    for _ in range(100):
        degree = rng.randint(1, 24)
        basis = enumerate_monomials((1, 1, 4, 6), degree)
        terms = {rng.choice(basis): rand_fraction(rng, zero_ok=False)
                 for _ in range(rng.randint(1, 3))}
        g = Polynomial(TARGET_VARS, terms)
        pulled = g.substitute(ETA)
        assert is_homogeneous(pulled, (1, 1, 1, 1)) == degree


def test_pullback_is_multiplicative():
    assert pullback_multiplicativity_failures(seed=35, cases=200, phi=ETA) == []


def test_pullback_is_injective_on_graded_pieces():
    for degree in (12, 24):
        basis = enumerate_monomials((1, 1, 4, 6), degree)
        system = pullback_system(ETA, basis)
        assert len(system.generators) == len(basis) == hilbert_count((1, 1, 4, 6), degree)
        assert system.projective_dim() + 1 == len(basis)


def test_pullbacks_of_the_anticanonical_basis_are_pairwise_distinct():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    pulled = [Polynomial.monomial(TARGET_VARS, e).substitute(ETA) for e in basis]
    assert len({str(p) for p in pulled}) == 39


def test_pullback_system_of_the_anticanonical_basis():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    system = pullback_system(ETA, basis)
    assert len(system.generators) == 39
    assert system.projective_dim() == 38
    assert system.degree == 12


def test_pullback_system_rejects_mixed_degrees():
    for basis in ([(12, 0, 0, 0), (1, 0, 0, 0)], []):
        with pytest.raises(GradingError):
            pullback_system(ETA, basis)
    with pytest.raises(ArityError):
        pullback_system(ETA, [(1, 2)])


def test_pullback_system_equals_the_per_monomial_pullbacks():
    # the batch shares one image-power table; each product here is multiplied
    # out on its own, and the system holds each in primitive integer form
    for roots in ((1, 2, 3), (1, 5, 7), TALL):
        pencil = PencilCubic.from_roots(roots)
        y3, y4 = X3 * pencil.cubic, X1 * X2 * X4 * pencil.cubic
        eta = weighted_parametrization(pencil)
        for degree in (12, 24):
            basis = enumerate_monomials((1, 1, 4, 6), degree)
            expected = [primitive_form(X1 ** a * X2 ** b * y3 ** c * y4 ** d)
                        for a, b, c, d in basis]
            assert pullback_system(eta, basis).generators == tuple(expected)


def test_eta_and_its_inverse_compose_to_scalings():
    # psi inverts eta: each composite is the identity up to the scaling by a form
    for roots in ((1, 2, 3), TALL):
        pencil = PencilCubic.from_roots(roots)
        eta = weighted_parametrization(pencil)
        xi_y = pencil.cubic.substitute({"x1": Y1, "x2": Y2})
        psi = dict(zip(P3_VARS, (Y1 ** 2 * Y2 * xi_y, Y1 * Y2 ** 2 * xi_y, Y1 * Y2 * Y3, Y4)))
        lam = Y1 * Y2 * xi_y
        assert substitute_all(eta.values(), psi) == [lam * Y1, lam * Y2, lam ** 4 * Y3,
                                                     lam ** 6 * Y4]
        scale = X1 * X2 * pencil.cubic
        assert substitute_all(psi.values(), eta) == [x * scale for x in (X1, X2, X3, X4)]


def test_pullback_system_of_a_single_monomial():
    system = pullback_system(ETA, [(12, 0, 0, 0)])
    assert system.generators == (X1 ** 12,)


def test_span_identity_for_the_default_pencil():
    # the pullback against the solutions of the degree-12 incidence conditions:
    # the conditions cut out both, so the two spans are one
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    pulled, solved = pullback_system(ETA, basis), solve_constraints(DEFAULT, 12)
    assert pulled.rank == solved.rank == 39
    assert conditions_report(DEFAULT, pulled)[3]
    assert conditions_report(DEFAULT, solved)[3]


def test_span_identity_for_other_pencils():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    for roots in ((1, 2, 3), (1, 5, 7), (-3, Fraction(1, 2), 11), (-1, Fraction(2, 3), 4)):
        pencil = PencilCubic.from_roots(roots)
        pulled = pullback_system(weighted_parametrization(pencil), basis)
        direct = LinearSystem(P3_VARS, 12, degree12_shapes(pencil))    # written by hand
        assert pulled.rank == 39
        assert set(pulled.generators) == set(direct.generators)
        assert conditions_report(pencil, pulled)[3]
        assert conditions_report(pencil, solve_constraints(pencil, 12))[3]


def test_tampered_system_fails_with_named_offender():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    pulled = pullback_system(ETA, basis)
    full = LinearSystem(P3_VARS, 12, degree12_shapes(DEFAULT))
    tampered = LinearSystem(P3_VARS, 12, [g for g in full.generators if g != X2 ** 12])
    assert conditions_report(DEFAULT, pulled)[3]
    _, dimension, inside, cut_out = conditions_report(DEFAULT, tampered)
    assert not cut_out
    assert inside is tampered       # what is left satisfies the conditions, but is too small
    assert (pulled.rank, tampered.rank, dimension) == (39, 38, 39)
    missing = [g for g in pulled.generators if not tampered.member(g)]
    assert missing == [X2 ** 12]
    assert all(pulled.member(g) for g in tampered.generators)
