"""Every refusal of caller input, and the reprs, in one table.

Each row calls the public API with one bad input (or asks for a repr) and
names the error and message it must meet (or the text it must return).  A
message quotes a caller's value through ``clip``, so it stays under 200
characters however large the value: the rows built on ``LONG`` (455 terms),
on 10^4-entry tuples, on the 10^4-variable ring ``MANY``, on the
10^5-character name ``NAME`` and on 5001-digit integers check that.
"""

import re
from fractions import Fraction

import pytest

from fano72 import (ArityError, ExactDivisionError, GradingError, InvalidPencilError,
                    LinearSystem, P3_VARS, PencilCubic, Polynomial, RuledClass, SplitBundle,
                    SubstitutionError, WeightedProjectiveSpace, coordinate_plane_residual,
                    check_weights, enumerate_monomials, generators, hilbert_count,
                    image_degrees, is_homogeneous, multiplicity_along_line, parse_polynomial,
                    pullback_system, substitute_all, weighted_parametrization)

X1, X2, X3, X4 = generators(P3_VARS)
XY = Polynomial.variable(("x", "y"), "x")
LONG = (X1 + X2 + X3 + X4) ** 12
MANY = tuple(f"v{i}" for i in range(10 ** 4))
V0 = Polynomial.variable(MANY, "v0")
MANY_TEXT = "('v0', 'v1', 'v2', 'v3', 'v4', 'v5', 'v6', 'v7', 'v8', 'v9',..."
NAME = "z" * 10 ** 5
NAME_TEXT, NAME_REPR = "z" * 20 + "...", "'" + "z" * 19 + "..."
ETA = weighted_parametrization(PencilCubic.default())


CASES = {
    # LinearSystem
    "system-non-polynomial": (lambda: LinearSystem(P3_VARS, 1, [1]),
                              ArityError, "linear system generators must be Polynomials"),
    "system-ring": (lambda: LinearSystem(P3_VARS, 1, [XY]),
                    ArityError, "generator ring ('x', 'y') does not match system ring"),
    **{f"system-set-{name}": (lambda name=name: setattr(LinearSystem(P3_VARS, 1, [X1]), name, 0),
                              AttributeError, "LinearSystem is immutable")
       for name in ("ring", "degree", "generators", "rank", "_span", "row_space")},
    **{f"system-del-{name}": (lambda name=name: delattr(LinearSystem(P3_VARS, 1, [X1]), name),
                              AttributeError, "LinearSystem is immutable")
       for name in ("ring", "degree", "generators", "rank", "_span")},
    "system-repr": (lambda: repr(LinearSystem(P3_VARS, 1, [X1, 2 * X1, X2])), None,
                    "LinearSystem(degree=1, generators=2, ring=('x1', 'x2', 'x3', 'x4'))"),
    "member-ring": (lambda: LinearSystem(P3_VARS, 1, [X1]).member(XY),
                    ArityError, "ring mismatch"),
    "system-ring-many": (lambda: LinearSystem(P3_VARS, 1, [V0]), ArityError,
                         f"generator ring {MANY_TEXT} does not match system ring ('x1', "),
    "member-ring-many": (lambda: LinearSystem(P3_VARS, 1, [X1]).member(V0),
                         ArityError, f"ring mismatch: {MANY_TEXT} vs ('x1', 'x2', 'x3', 'x4')"),
    "p3-ring-many": (lambda: multiplicity_along_line(V0), ArityError,
                     f"in the ring ('x1', 'x2', 'x3', 'x4'), got {MANY_TEXT}"),
    "system-long-generator": (lambda: LinearSystem(P3_VARS, 1, [LONG]), ValueError,
                              "generator x1^12 + 12*x1^11*x2"),
    # PencilCubic and the coordinate planes
    "pencil-two-roots": (lambda: PencilCubic.from_roots((1, 2)),
                         InvalidPencilError, "need exactly three pencil roots, got 2"),
    "pencil-scale-zero": (lambda: PencilCubic.from_roots((1, 2, 3), 0),
                          InvalidPencilError, "the pencil cubic must be nonzero"),
    # from_roots takes int (bool too) or Fraction roots and scale, nothing it would convert
    "pencil-float-root": (lambda: PencilCubic.from_roots((0.1, 2, 3)), InvalidPencilError,
                          "pencil roots and the scale must be int or Fraction, got 0.1"),
    "pencil-subnormal-root": (lambda: PencilCubic.from_roots((1, 2, 1e-320)), InvalidPencilError,
                              "pencil roots and the scale must be int or Fraction, got 1e-320"),
    "pencil-text-root": (lambda: PencilCubic.from_roots(("1/3", 2, 3)), InvalidPencilError,
                         "pencil roots and the scale must be int or Fraction, got '1/3'"),
    "pencil-nan-root": (lambda: PencilCubic.from_roots((1, float("nan"), 3)), InvalidPencilError,
                        "pencil roots and the scale must be int or Fraction, got nan"),
    "pencil-inf-scale": (lambda: PencilCubic.from_roots((1, 2, 3), float("inf")),
                         InvalidPencilError,
                         "pencil roots and the scale must be int or Fraction, got inf"),
    # from_roots caps its cubic's coefficients as from_polynomial, and so --xi, does
    "pencil-tall-root": (lambda: PencilCubic.from_roots((Fraction(1, 2 ** 3000 + 1), 2, 3)),
                         InvalidPencilError, "over their common denominator, need 3003 bits, "
                                             "more than the cap of 1024"),
    "pencil-ring": (lambda: PencilCubic.from_polynomial(XY ** 3),
                    InvalidPencilError, "the pencil cubic must live in the ring"),
    "residual-plane": (lambda: coordinate_plane_residual(X1 ** 6, "x3"),
                       ValueError, "the coordinate planes of the pencil are x1 = 0 and x2 = 0"),
    # graded pieces: a degree is an int, as a power is
    "enumerate-float-degree": (lambda: enumerate_monomials((1, 2), 4.0),
                               ValueError, "degree must be a natural number"),
    "enumerate-fractional-degree": (lambda: enumerate_monomials((1, 1), 2.5),
                                    ValueError, "degree must be a natural number"),
    "hilbert-fractional-degree": (lambda: hilbert_count((1, 1), 2.5),
                                  ValueError, "degree must be a natural number"),
    "weights-huge-negative": (lambda: check_weights((-10 ** 5000,)), ValueError,
                              "weights must be integers >= 1, got <int too long to print> at "),
    "weights-text": (lambda: check_weights((1, "a")),
                     ValueError, "weights must be integers >= 1, got 'a' at entry 1 of 2"),
    # Polynomial
    "poly-empty-ring": (lambda: Polynomial(()),
                        ValueError, "a polynomial ring needs at least one variable"),
    "poly-variable": (lambda: Polynomial.variable(P3_VARS, "z"),
                      ArityError, "variable 'z' is not in the ring"),
    "poly-variable-many": (lambda: Polynomial.variable(MANY, "z"),
                           ArityError, f"variable 'z' is not in the ring {MANY_TEXT}"),
    "poly-uses-variable-many": (lambda: V0.uses_variable("z"),
                                ArityError, f"variable 'z' is not in the ring {MANY_TEXT}"),
    "poly-variable-long-name": (lambda: Polynomial.variable(P3_VARS, NAME),
                                ArityError, f"variable {NAME_REPR} is not in the ring ('x1', "),
    "poly-degree-in-long-name": (lambda: X1.degree_in((NAME,)),
                                 ArityError, f"variable {NAME_REPR} is not in the ring ('x1', "),
    "poly-power-long-text": (lambda: X1 ** NAME, ValueError,
                             f"polynomial power requires a natural exponent, got {NAME_REPR}"),
    "poly-power-huge-negative": (lambda: X1 ** -10 ** 5000, ValueError,
                                 "requires a natural exponent, got <int too long to print>"),
    "poly-add-ring": (lambda: X1 + XY,
                      ArityError, "ring mismatch: ('x1', 'x2', 'x3', 'x4') vs ('x', 'y')"),
    "poly-add-ring-many": (lambda: V0 + X1,
                           ArityError, f"ring mismatch: {MANY_TEXT} vs ('x1', 'x2', 'x3', 'x4')"),
    "parse-ring-many": (lambda: parse_polynomial("z", MANY), ValueError,
                        f"variable 'z' is not declared in the ring {MANY_TEXT}"),
    "poly-zero-lead": (lambda: Polynomial.zero(P3_VARS).leading_term(),
                       ValueError, "the zero polynomial has no leading term"),
    "poly-uses-variable": (lambda: X1.uses_variable("z"),
                           ArityError, "variable 'z' is not in the ring"),
    "poly-divide-text": (lambda: X1.exact_divide("x"),
                         ArityError, "exact_divide requires a polynomial divisor"),
    "poly-divide-long": (lambda: LONG.exact_divide(X1),
                         ExactDivisionError, "x1 does not divide x1^12 + 12*x1^11*x2"),
    "poly-long-exponent-tuple": (lambda: Polynomial(P3_VARS, {(0,) * 10 ** 4: 1}), ArityError,
                                 "exponent tuple (0, 0, 0, 0, 0, 0, 0..."),
    "poly-negative-exponents": (lambda: Polynomial(MANY, {(-1,) * 10 ** 4: 1}), ValueError,
                                "exponents must be natural numbers, got (-1, -1, -1, -1, -1,..."),
    "substitute-no-image": (lambda: substitute_all([X1], {}), SubstitutionError,
                            "substitution needs at least one image to fix the target ring"),
    "substitute-scalar-image": (lambda: substitute_all([X1], {"x1": 1}),
                                SubstitutionError, "image of 'x1' is not a Polynomial"),
    "substitute-rings-many": (lambda: substitute_all([X1], {"x1": X1, "x2": V0}),
                              SubstitutionError, "images live in different rings: ('x1', 'x2', "
                                                 f"'x3', 'x4') vs {MANY_TEXT}"),
    "substitute-long": (lambda: substitute_all([LONG], {"x1": X1}), SubstitutionError,
                        "no image for variable 'x2' occurring in x1^12 + 12*x1^11*x2"),
    "substitute-image-long-name": (lambda: substitute_all([X1], {NAME: 1}), SubstitutionError,
                                   f"image of {NAME_REPR} is not a Polynomial"),
    "substitute-no-image-long-name": (lambda: substitute_all([Polynomial.variable((NAME,), NAME)],
                                                             {"x1": X1}), SubstitutionError,
                                      f"no image for variable {NAME_REPR} occurring in zzzzz"),
    "image-long": (lambda: image_degrees({"y1": LONG + X1}),
                   GradingError, "image of y1 is not homogeneous: x1^12 + 12*x1^11*x2"),
    "image-zero-long-name": (lambda: image_degrees({NAME: Polynomial.zero(P3_VARS)}),
                             GradingError, f"image of {NAME_TEXT} is the zero polynomial"),
    "image-long-name": (lambda: image_degrees({NAME: X1 + X2 ** 2}),
                        GradingError, f"image of {NAME_TEXT} is not homogeneous: x2^2 + x1"),
    "homogeneous-arity": (lambda: is_homogeneous(X1, (1, 1)), ArityError,
                          "ring arity 4 does not match weight arity 2"),
    # pullback_system: the target's weights, then the basis
    "pullback-constant-image": (lambda: pullback_system({**ETA, "y3": X1 ** 0}, [(12, 0, 0, 0)]),
                                ValueError, "weights must be integers >= 1, got 0 at entry 2 of 4"),
    "pullback-empty-basis": (lambda: pullback_system(ETA, []), GradingError,
                             "basis monomials must be nonempty and share one weighted degree"),
    "pullback-mixed-degrees": (lambda: pullback_system(ETA, [(12, 0, 0, 0), (1, 0, 0, 0)]),
                               GradingError,
                               "basis monomials must be nonempty and share one weighted degree"),
    "pullback-arity": (lambda: pullback_system(ETA, [(1, 2)]), ArityError,
                       "exponent tuple (1, 2) has length 2, ring has 4 variables"),
    "pullback-no-images": (lambda: pullback_system({}, [()]),
                           ValueError, "a polynomial ring needs at least one variable"),
    # weighted projective spaces and bundles
    "wps-repr": (lambda: repr(WeightedProjectiveSpace((1, 1, 4, 6))), None, "P(1, 1, 4, 6)"),
    "bundle-text-twist": (lambda: SplitBundle((1, "a")),
                          ValueError, "twists must be integers, got (1, 'a')"),
    "bundle-float-twist": (lambda: SplitBundle((2, 1.5)),
                           ValueError, "twists must be integers, got (2, 1.5)"),
    "bundle-many-float-twists": (lambda: SplitBundle((1.5,) * 10 ** 4), ValueError,
                                 "twists must be integers, got (1.5, 1.5, 1.5, 1.5,..."),
    "bundle-float-power": (lambda: SplitBundle((1, 2)).sym_power(2.0),
                           ValueError, "symmetric power requires a natural exponent"),
    "ruled-float-a": (lambda: RuledClass(4, 1.5, 0),
                      ValueError, "e, a and b must be integers, got (4, 1.5, 0)"),
    "ruled-float-e": (lambda: RuledClass(1.0, 0, 0),
                      ValueError, "e, a and b must be integers, got (1.0, 0, 0)"),
    "ruled-negative-e": (lambda: RuledClass(-1, 0, 0), ValueError,
                         "the Hirzebruch invariant e must be a natural number"),
    "ruled-intersect-int": (lambda: RuledClass(0, 1, 0).intersect(3),
                            TypeError, "intersect expects another RuledClass"),
    "ruled-intersect-huge-e": (lambda: RuledClass(10 ** 5000, 1, 0).intersect(RuledClass(1, 1, 0)),
                               ValueError, "classes live on different surfaces: "
                                           "F_<int too long to print> vs F_1"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_each_refusal_and_repr(call, error, message):
    if error is None:
        assert call() == message
    else:
        with pytest.raises(error, match=re.escape(message)) as refused:
            call()
        assert len(str(refused.value)) < 200
