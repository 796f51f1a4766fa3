import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest

from fano72 import (LinearSystem, P3_VARS, PencilCubic, Polynomial, RuledClass, SplitBundle,
                    VerifyConfig, WeightedProjectiveSpace, build_sextic_system, generators,
                    random_member)
from fano72.grading import FrozenValue, enumerate_monomials

from oracles import brute_force_monomials

# frozen from the brute-force oracle below: anticanonical monomials of
# P(1,1,4,6) grouped by their (y3, y4) exponents
SHAPE_1146 = {(0, 2): 1, (1, 1): 3, (0, 1): 7, (3, 0): 1, (2, 0): 5, (1, 0): 9, (0, 0): 13}


def _shape(basis):
    counts: dict[tuple[int, int], int] = {}
    for e in basis:
        counts[(e[2], e[3])] = counts.get((e[2], e[3]), 0) + 1
    return counts


def test_well_formedness_is_enforced():
    WeightedProjectiveSpace((1, 1, 4, 6))
    WeightedProjectiveSpace((1, 1, 1, 3))
    with pytest.raises(ValueError):
        WeightedProjectiveSpace((2, 2, 4))
    with pytest.raises(ValueError):
        WeightedProjectiveSpace((1, 2, 2))
    with pytest.raises(ValueError):
        WeightedProjectiveSpace((3,))


def test_anticanonical_weights():
    assert WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_weight() == 12
    assert WeightedProjectiveSpace((1, 1, 1, 3)).anticanonical_weight() == 6
    assert WeightedProjectiveSpace((1, 1, 1, 1)).anticanonical_weight() == 4


def test_anticanonical_selfintersections():
    assert WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_selfintersection() == 72
    assert WeightedProjectiveSpace((1, 1, 1, 3)).anticanonical_selfintersection() == 72
    assert WeightedProjectiveSpace((1, 1, 1, 1)).anticanonical_selfintersection() == 64


def test_selfintersection_is_an_exact_rational():
    value = WeightedProjectiveSpace((1, 2, 3)).anticanonical_selfintersection()
    assert value == Fraction(36, 6)
    assert isinstance(value, Fraction)


def test_selfintersection_is_permutation_invariant():
    for weights in permutations((1, 1, 4, 6)):
        assert WeightedProjectiveSpace(weights).anticanonical_selfintersection() == 72


def test_all_one_weights_give_ordinary_projective_degree():
    for n in range(1, 5):
        space = WeightedProjectiveSpace((1,) * (n + 1))
        assert space.dimension == n
        assert space.anticanonical_selfintersection() == (n + 1) ** n


def test_basis_sizes():
    assert len(WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()) == 39
    assert len(WeightedProjectiveSpace((1, 1, 1, 3)).anticanonical_basis()) == 39
    assert len(WeightedProjectiveSpace((1, 1)).anticanonical_basis()) == 3


def test_embedding_dimension_is_38_for_both_extremal_spaces():
    for weights in ((1, 1, 4, 6), (1, 1, 1, 3)):
        assert len(WeightedProjectiveSpace(weights).anticanonical_basis()) - 1 == 38


def test_basis_shape_of_p1146():
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    assert _shape(basis) == SHAPE_1146
    # independent oracle: brute-force product enumeration, same grouping
    oracle = brute_force_monomials((1, 1, 4, 6), 12)
    assert _shape(sorted(oracle)) == SHAPE_1146


XY = ("x", "y")
X, Y = generators(XY)

# The package's frozen values: (build one, build an equal one another way,
# a different one of the same class, its repr, its fields and their values).
FROZEN_VALUES = {
    "WeightedProjectiveSpace": (
        lambda: WeightedProjectiveSpace((1, 1, 4, 6)),
        lambda: WeightedProjectiveSpace([1, 1, 4, 6]),
        lambda: WeightedProjectiveSpace((1, 1, 1, 3)),
        "P(1, 1, 4, 6)", {"weights": (1, 1, 4, 6)}),
    "SplitBundle": (
        lambda: SplitBundle((2, 6)), lambda: SplitBundle([6, 2]), lambda: SplitBundle((0, 2, 6)),
        "SplitBundle(twists=(2, 6))", {"twists": (2, 6)}),
    "RuledClass": (
        lambda: RuledClass(4, 1, 6), lambda: RuledClass(e=4, a=1, b=6), lambda: RuledClass(4, 6, 1),
        "RuledClass(e=4, a=1, b=6)", {"e": 4, "a": 1, "b": 6}),
    "PencilCubic": (
        PencilCubic.default,
        lambda: PencilCubic.from_text("x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3"),
        lambda: PencilCubic.from_roots((1, 5, 7)),
        "PencilCubic(-6*x1^3 + 11*x1^2*x2 - 6*x1*x2^2 + x2^3)",
        {"roots": (1, 2, 3), "cubic": PencilCubic.default().cubic}),
    "VerifyConfig": (
        lambda: VerifyConfig(None, "wps", 3), lambda: VerifyConfig(suite="wps", seed=3),
        lambda: VerifyConfig(suite="wps", seed=4),
        "VerifyConfig(xi_text=None, suite='wps', seed=3)",
        {"xi_text": None, "suite": "wps", "seed": 3}),
    "Polynomial": (
        lambda: Polynomial(XY, {(1, 0): Fraction(1, 2), (0, 1): 3}),
        lambda: Polynomial(list(XY), [((0, 1), Fraction(6, 2)), ((1, 0), Fraction(2, 4))]),
        lambda: Polynomial(XY, {(1, 0): Fraction(1, 2)}),
        "1/2*x + 3*y", {"ring": XY, "_terms": {(1, 0): Fraction(1, 2), (0, 1): 3}}),
    "LinearSystem": (       # equal by generator tuple: one span in another order differs
        lambda: LinearSystem(XY, 1, [X, X + Y]),
        lambda: LinearSystem(list(XY), 1, [-3 * X, 2 * X + 2 * Y, X]),
        lambda: LinearSystem(XY, 1, [X + Y, X]),
        "LinearSystem(degree=1, generators=2, ring=('x', 'y'))",
        {"ring": XY, "degree": 1, "generators": (X, X + Y)}),
}


@pytest.mark.parametrize("name", FROZEN_VALUES)
def test_frozen_values_are_immutable(name):
    make, make_equal, make_other, text, fields = FROZEN_VALUES[name]
    value, equal, other = make(), make_equal(), make_other()
    assert type(value).__name__ == name and isinstance(value, FrozenValue)
    assert value == equal and hash(value) == hash(equal) and not value != equal
    assert value != other and value != fields and value != tuple(fields.values())
    assert repr(value) == text
    assert copy.copy(value) == value
    for field in (*fields, "unknown"):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(value, field)
    assert {field: getattr(value, field) for field in fields} == fields


@pytest.mark.parametrize("name", FROZEN_VALUES)
def test_frozen_values_pickle_and_deep_copy(name):
    value = FROZEN_VALUES[name][0]()
    for rebuilt in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(rebuilt) is type(value) and rebuilt is not value
        assert rebuilt == value and hash(rebuilt) == hash(value) and repr(rebuilt) == repr(value)


def test_a_value_built_from_the_wrong_number_of_fields_is_a_type_error():
    # PencilCubic has no constructor of its own: FrozenValue.__init__ counts its fields.
    cubic, roots = PencilCubic.default().cubic, (1, 2, 3)
    assert PencilCubic(cubic, roots) == PencilCubic.default()
    for values in ((cubic,), (cubic, roots, None)):
        with pytest.raises(TypeError, match="PencilCubic takes 2 values"):
            PencilCubic(*values)


def test_a_rebuilt_system_keeps_its_rank_and_its_members():
    system = build_sextic_system(PencilCubic.from_roots((1, 5, 7)))
    candidates = [random_member(system, random.Random(5)),
                  *(Polynomial.monomial(P3_VARS, e) for e in enumerate_monomials((1,) * 4, 6))]
    members = [system.member(f) for f in candidates]
    assert True in members and False in members
    for rebuilt in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system)):
        assert rebuilt == system and rebuilt.rank == system.rank == 11
        assert [rebuilt.member(f) for f in candidates] == members


def test_a_config_resolves_its_pencil_once():
    config = VerifyConfig()
    pencil = config.pencil
    assert config.pencil is pencil and pencil == PencilCubic.default()
    assert config == VerifyConfig() and hash(config) == hash(VerifyConfig())
