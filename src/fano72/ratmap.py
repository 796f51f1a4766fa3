"""Maps into weighted projective space, as image dicts, and their pullbacks.

A map is the dict from each target variable to its image polynomial, the
form ``substitute_all`` takes, so two maps compose by substitution.  The
target's weights are the images' degrees, read by :func:`image_degrees`.
The central map sends [x1, x2, x3, x4] to
[x1, x2, x3*xi(x1, x2), x1*x2*x4*xi(x1, x2)] in P(1, 1, 4, 6); the pullback
of its 39 anticanonical monomials is the degree-12 system of ``linsys``.
That this span is exactly the one cut out by the degree-12 incidence
conditions, certified in ``checks.theorem_suite``, is the computable content
of the identification of the scroll-cone image with anticanonically
embedded P(1, 1, 4, 6).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import mul

from .grading import check_weights, clip
from .linalg import LinearSystem
from .poly import Exponents, Polynomial, _checked_terms, is_homogeneous, substitute_all

TARGET_VARS = ("y1", "y2", "y3", "y4")


class GradingError(ValueError):
    """An image or a basis fails the required degree bookkeeping."""


def image_degrees(images: Mapping[str, Polynomial]) -> tuple[int, ...]:
    """The ordinary degree of each image: the weights of the target it maps into.

    Each image must be nonzero and homogeneous, so the map respects the
    scaling actions and pullback turns weighted degree into ordinary degree.
    """
    degrees = []
    for name, image in images.items():
        if not image:
            raise GradingError(f"image of {clip(name)} is the zero polynomial")
        degree = is_homogeneous(image, (1,) * len(image.ring))
        if degree is None:
            raise GradingError(f"image of {clip(name)} is not homogeneous: {clip(image, 60)}")
        degrees.append(degree)
    return tuple(degrees)


def weighted_parametrization(pencil) -> dict[str, Polynomial]:
    """The birational map P^3 -> P(1,1,4,6) attached to a ``linsys.PencilCubic``.

    Images: (x1, x2, x3*xi, x1*x2*x4*xi) with degrees (1, 1, 4, 6), read off
    the cubic xi alone: two single terms and two shifts of xi."""
    xi = pencil.cubic
    x1, x2 = (Polynomial._term(xi.ring, e, 1) for e in ((1, 0, 0, 0), (0, 1, 0, 0)))
    return dict(zip(TARGET_VARS, (x1, x2, xi._shifted((0, 0, 1, 0), 1),
                                  xi._shifted((1, 1, 0, 1), 1))))


def pullback_system(images: Mapping[str, Polynomial], basis: Sequence[Exponents]) -> LinearSystem:
    """Pull a one-degree family of target monomials back to a linear system.

    The target ring is the dict's keys and its weights are the images'
    degrees, checked as weights (a constant image has weight 0).  The
    constructor's own check, ``_checked_terms``, validates the basis's
    exponent tuples, and the set of their weighted degrees must hold one
    value, so the monomials are built unchecked and unmerged, and all of
    them go through one :func:`substitute_all` call: for the images
    (x1, x2, x3*xi, x1*x2*x4*xi) each monomial's image is a shift of one
    memoised product (x3*xi)^c * (x1*x2*x4*xi)^d.  ``LinearSystem`` keeps
    each image that is primitive already, as all are for the default cubic,
    and takes the primitive row of the rest.
    """
    target = tuple(images)
    if not target:
        raise ValueError("a polynomial ring needs at least one variable")
    basis = [e for e, _ in _checked_terms(target, ((e, 1) for e in basis))]
    weights = check_weights(image_degrees(images))
    degrees = {sum(map(mul, e, weights)) for e in basis}
    if len(degrees) != 1:
        raise GradingError("basis monomials must be nonempty and share one weighted degree")
    pulled = substitute_all([Polynomial._canonical(target, {e: 1}) for e in basis], images)
    return LinearSystem(pulled[0].ring, degrees.pop(), pulled)
