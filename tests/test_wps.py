from fractions import Fraction
from itertools import permutations

import pytest

from fano72 import WeightedProjectiveSpace

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


def test_spaces_are_immutable_values():
    space = WeightedProjectiveSpace((1, 1, 4, 6))
    assert space == WeightedProjectiveSpace((1, 1, 4, 6))
    assert space.dimension == 3
    with pytest.raises(AttributeError):
        space.weights = None
    listed = WeightedProjectiveSpace([1, 1, 4, 6])
    assert listed == space and hash(listed) == hash(space)
    assert listed.weights == (1, 1, 4, 6)
