"""Graded rational maps into weighted projective space and their pullbacks.

The central map sends [x1, x2, x3, x4] to
[x1, x2, x3*xi(x1, x2), x1*x2*x4*xi(x1, x2)] in P(1, 1, 4, 6); the pullback
of its 39 anticanonical monomials is the degree-12 system of ``linsys``.
That this span is exactly the one cut out by the degree-12 incidence
conditions, certified in ``checks.theorem_suite``, is the computable content
of the identification of the scroll-cone image with anticanonically
embedded P(1, 1, 4, 6).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .grading import ANY_DEGREE, check_weights, is_homogeneous
from .linsys import LinearSystem, P3_VARS, PencilCubic, X1, X2, X3, X4
from .poly import Exponents, Polynomial, substitute_all

TARGET_VARS = ("y1", "y2", "y3", "y4")


class GradingError(ValueError):
    """A component or pullback fails the required degree bookkeeping."""


@dataclass(frozen=True, slots=True, eq=False)
class GradedRationalMap:
    """A rational map from ordinary projective space to a weighted target.

    Component i must be homogeneous of degree weight_i, so the map respects
    the scaling actions and pullback turns weighted degree into ordinary
    degree.
    """

    source_ring: tuple[str, ...]
    target_ring: tuple[str, ...]
    target_weights: tuple[int, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        source_ring, target_ring = tuple(self.source_ring), tuple(self.target_ring)
        weights, components = check_weights(self.target_weights), tuple(self.components)
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
            if degree != weight:
                raise GradingError(
                    f"component for {name} has degree {degree}, expected {weight}")
        object.__setattr__(self, "source_ring", source_ring)
        object.__setattr__(self, "target_ring", target_ring)
        object.__setattr__(self, "target_weights", weights)
        object.__setattr__(self, "components", components)

    def __repr__(self) -> str:
        inside = ", ".join(str(c) for c in self.components)
        return f"GradedRationalMap([{inside}] -> P{self.target_weights})"

    def component_degrees(self) -> tuple[int, ...]:
        unit = (1,) * len(self.source_ring)
        return tuple(is_homogeneous(c, unit) for c in self.components)

    def pullback(self, g: Polynomial) -> Polynomial:
        """Substitute the components for the target variables of a weighted form.

        Requires g weighted-homogeneous; the result is checked to be
        ordinary-homogeneous of the weighted degree of g.
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
        if result_degree is not ANY_DEGREE and result_degree != degree:
            raise GradingError(f"pullback of {g} has degree {result_degree}, expected {degree}")
        return result


def weighted_parametrization(pencil: PencilCubic) -> GradedRationalMap:
    """The birational map P^3 -> P(1,1,4,6) attached to a pencil cubic.

    Components: (x1, x2, x3*xi, x1*x2*x4*xi) with degrees (1, 1, 4, 6).
    """
    xi = pencil.cubic
    return GradedRationalMap(P3_VARS, TARGET_VARS, (1, 1, 4, 6),
                             (X1, X2, X3 * xi, X1 * X2 * X4 * xi))


def pullback_system(phi: GradedRationalMap, basis: Sequence[Exponents]) -> LinearSystem:
    """Pull a one-degree family of target monomials back to a linear system.

    One checked degree test validates the whole basis, so its monomials are
    built unchecked, and all of them go through one :func:`substitute_all`
    call: for the components (x1, x2, x3*xi, x1*x2*x4*xi) each monomial's
    image is a shift of one memoised product (x3*xi)^c * (x1*x2*x4*xi)^d.
    ``LinearSystem`` keeps each image that is primitive already, as all are for
    the default cubic, and merges only the rest anew.
    """
    degree = is_homogeneous(Polynomial(phi.target_ring, {e: 1 for e in basis}),
                            phi.target_weights)
    if degree is None or degree is ANY_DEGREE:
        raise GradingError("basis monomials must be nonempty and share one weighted degree")
    monomials = [Polynomial._from_valid_terms(phi.target_ring, ((tuple(e), 1),)) for e in basis]
    images = dict(zip(phi.target_ring, phi.components))
    return LinearSystem(phi.source_ring, degree, substitute_all(monomials, images))
