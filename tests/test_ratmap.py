import random
from fractions import Fraction

import pytest

from fano72 import (ArityError, GradedRationalMap, GradingError, LinearSystem,
                    Polynomial, WeightedProjectiveSpace, conditions_report,
                    enumerate_monomials, generators, hilbert_count,
                    is_homogeneous, pullback_system, solve_constraints,
                    weighted_parametrization)
from fano72.linsys import P3_VARS, PencilCubic
from fano72.ratmap import TARGET_VARS

from oracles import (degree12_shapes, pullback_multiplicativity_failures, primitive_form,
                     rand_fraction)

X1, X2, X3, X4 = generators(P3_VARS)
Y1, Y2, Y3, Y4 = generators(TARGET_VARS)
DEFAULT = PencilCubic.default()
ETA = weighted_parametrization(DEFAULT)


def test_parametrization_component_degrees_and_weights():
    assert ETA.component_degrees() == (1, 1, 4, 6)
    assert ETA.target_weights == (1, 1, 4, 6)
    assert ETA.components[0] == X1
    assert ETA.components[1] == X2


def test_quadratic_pencil_factor_breaks_the_grading():
    quadratic = (X2 - X1) * (X2 - 2 * X1)
    with pytest.raises(GradingError):
        GradedRationalMap(P3_VARS, TARGET_VARS, (1, 1, 4, 6),
                          (X1, X2, X3 * quadratic, X1 * X2 * X4 * quadratic))


def test_zero_component_is_rejected():
    with pytest.raises(GradingError):
        GradedRationalMap(P3_VARS, TARGET_VARS, (1, 1, 4, 6),
                          (X1, X2, X3 * DEFAULT.cubic, Polynomial.zero(P3_VARS)))


def test_pullback_of_the_weight_six_square():
    xi = DEFAULT.cubic
    assert ETA.pullback(Y4 ** 2) == X1 ** 2 * X2 ** 2 * X4 ** 2 * xi ** 2


def test_pullback_of_the_weight_four_cube():
    xi = DEFAULT.cubic
    assert ETA.pullback(Y3 ** 3) == X3 ** 3 * xi ** 3


def test_weight_one_variables_pull_back_to_themselves():
    rng = random.Random(21)
    for _ in range(50):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        assert ETA.pullback(Y1 ** a * Y2 ** b) == X1 ** a * X2 ** b


def test_pullback_requires_weighted_homogeneity():
    with pytest.raises(GradingError):
        ETA.pullback(Y1 + Y3)


def test_pullback_of_zero_is_zero():
    assert ETA.pullback(Polynomial.zero(TARGET_VARS)).is_zero


def test_pullback_preserves_weighted_degree():
    rng = random.Random(22)
    for _ in range(100):
        degree = rng.randint(1, 24)
        basis = enumerate_monomials((1, 1, 4, 6), degree)
        terms = {rng.choice(basis): rand_fraction(rng, zero_ok=False)
                 for _ in range(rng.randint(1, 3))}
        g = Polynomial(TARGET_VARS, terms)
        pulled = ETA.pullback(g)
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
    pulled = [ETA.pullback(Polynomial.monomial(TARGET_VARS, e)) for e in basis]
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
    # the batch shares one image-power table; each pullback here builds its own,
    # and the system holds each in primitive integer form
    tall = (Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3))
    for roots in ((1, 2, 3), (1, 5, 7), tall):
        eta = weighted_parametrization(PencilCubic.from_roots(roots))
        for degree in (12, 24):
            basis = enumerate_monomials((1, 1, 4, 6), degree)
            expected = []
            for e in basis:
                expected.append(primitive_form(eta.pullback(Polynomial.monomial(TARGET_VARS, e))))
            assert pullback_system(eta, basis).generators == tuple(expected)


def test_pullback_system_of_a_single_monomial():
    system = pullback_system(ETA, [(12, 0, 0, 0)])
    assert system.generators == (X1 ** 12,)


def test_span_identity_for_the_default_pencil():
    # the pullback against the solutions of the degree-12 incidence conditions:
    # the conditions cut out both, so the two spans are one
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    pulled, solved = pullback_system(ETA, basis), solve_constraints(DEFAULT, 12)
    assert pulled.row_space().rank == solved.row_space().rank == 39
    assert conditions_report(DEFAULT, pulled)[3]
    assert conditions_report(DEFAULT, solved)[3]


def test_span_identity_for_other_pencils():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    for roots in ((1, 2, 3), (1, 5, 7), (-3, Fraction(1, 2), 11), (-1, Fraction(2, 3), 4)):
        pencil = PencilCubic.from_roots(roots)
        pulled = pullback_system(weighted_parametrization(pencil), basis)
        direct = LinearSystem(P3_VARS, 12, degree12_shapes(pencil))    # written by hand
        assert pulled.row_space().rank == 39
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
    assert (pulled.row_space().rank, tampered.row_space().rank, dimension) == (39, 38, 39)
    missing = [g for g in pulled.generators if not tampered.member(g)]
    assert missing == [X2 ** 12]
    assert all(pulled.member(g) for g in tampered.generators)
