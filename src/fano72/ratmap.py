"""Graded rational maps into weighted projective space and their pullbacks.

The central map sends [x1, x2, x3, x4] to
[x1, x2, x3*xi(x1, x2), x1*x2*x4*xi(x1, x2)] in P(1, 1, 4, 6); pulling the
39 anticanonical monomials back along it must reproduce, as a span, the
degree-12 system built directly from the pencil cubic.  That span identity,
compared in ``checks.theorem_suite``, is the computable content of the
identification of the scroll-cone image with anticanonically embedded
P(1, 1, 4, 6).
"""

from __future__ import annotations

from typing import Sequence

from .grading import (ANY_DEGREE, WeightSystem, Weights, is_homogeneous,
                      weighted_degree, _weights_tuple)
from .linsys import LinearSystem, P3_VARS, PencilCubic, X1, X2, X3, X4
from .poly import Exponents, Polynomial

TARGET_VARS = ("y1", "y2", "y3", "y4")


class GradingError(ValueError):
    """A component or pullback fails the required degree bookkeeping."""


class GradedRationalMap:
    """A rational map from ordinary projective space to a weighted target.

    Component i must be homogeneous of degree multiplier * weight_i, so the
    map respects the scaling actions and pullback multiplies weighted degree
    by the multiplier.
    """

    __slots__ = ("source_ring", "target_ring", "target_weights", "components", "multiplier")

    def __init__(self, source_ring: Sequence[str], target_ring: Sequence[str],
                 target_weights: Weights, components: Sequence[Polynomial],
                 multiplier: int = 1):
        source_ring = tuple(source_ring)
        target_ring = tuple(target_ring)
        weights = WeightSystem(_weights_tuple(target_weights))
        if multiplier < 1:
            raise GradingError("the degree multiplier must be a positive integer")
        if len(target_ring) != len(weights):
            raise GradingError("target ring and target weights disagree in arity")
        if len(components) != len(target_ring):
            raise GradingError(
                f"need one component per target variable: {len(components)} vs {len(target_ring)}")
        for name, weight, component in zip(target_ring, weights, components):
            if component.ring != source_ring:
                raise GradingError(f"component for {name} lives in the wrong ring")
            if component.is_zero:
                raise GradingError(f"component for {name} is the zero polynomial")
            degree = is_homogeneous(component, (1,) * len(source_ring))
            if degree != multiplier * weight:
                raise GradingError(
                    f"component for {name} has degree {degree}, expected "
                    f"{multiplier} * {weight} = {multiplier * weight}")
        object.__setattr__(self, "source_ring", source_ring)
        object.__setattr__(self, "target_ring", target_ring)
        object.__setattr__(self, "target_weights", weights)
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "multiplier", multiplier)

    def __setattr__(self, name, value):
        raise AttributeError("GradedRationalMap is immutable")

    def __repr__(self) -> str:
        inside = ", ".join(str(c) for c in self.components)
        return f"GradedRationalMap([{inside}] -> P{self.target_weights.weights})"

    def component_degrees(self) -> tuple[int, ...]:
        unit = (1,) * len(self.source_ring)
        return tuple(is_homogeneous(c, unit) for c in self.components)

    def pullback(self, g: Polynomial) -> Polynomial:
        """Substitute the components for the target variables of a weighted form.

        Requires g weighted-homogeneous; the result is checked to be
        ordinary-homogeneous of multiplier * (weighted degree of g).
        """
        if g.ring != self.target_ring:
            raise GradingError(f"pullback input must live in the ring {self.target_ring}")
        degree = is_homogeneous(g, self.target_weights)
        if degree is None:
            raise GradingError(f"pullback input is not weighted-homogeneous: {g}")
        if degree is ANY_DEGREE:
            return Polynomial.zero(self.source_ring)
        images = dict(zip(self.target_ring, self.components))
        result = g.substitute(images)
        result_degree = is_homogeneous(result, (1,) * len(self.source_ring))
        if result_degree is not ANY_DEGREE and result_degree != self.multiplier * degree:
            raise GradingError(
                f"pullback of {g} has degree {result_degree}, expected {self.multiplier * degree}")
        return result

    def pullback_monomial(self, exponents: Exponents) -> Polynomial:
        return self.pullback(Polynomial.monomial(self.target_ring, exponents))


def weighted_parametrization(pencil: PencilCubic) -> GradedRationalMap:
    """The birational map P^3 -> P(1,1,4,6) attached to a pencil cubic.

    Components: (x1, x2, x3*xi, x1*x2*x4*xi) with degrees (1, 1, 4, 6).
    """
    xi = pencil.cubic
    return GradedRationalMap(P3_VARS, TARGET_VARS, (1, 1, 4, 6),
                             (X1, X2, X3 * xi, X1 * X2 * X4 * xi))


def pullback_system(phi: GradedRationalMap, basis: Sequence[Exponents]) -> LinearSystem:
    """Pull a one-degree family of target monomials back to a linear system."""
    degrees = {weighted_degree(e, phi.target_weights) for e in basis}
    if len(degrees) != 1:
        raise GradingError(f"basis monomials have mixed weighted degrees: {sorted(degrees)}")
    degree = degrees.pop()
    gens = [phi.pullback_monomial(e) for e in basis]
    return LinearSystem(phi.source_ring, phi.multiplier * degree, gens)
