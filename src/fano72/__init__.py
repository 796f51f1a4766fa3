"""Exact-arithmetic toolkit certifying the degree-72 scroll-cone threefold.

The library verifies, over the rationals and with zero tolerance, the
dimension counts, intersection numbers, linear systems, and the span
identity that together identify the threefold obtained from the cone over
the degree-8 scroll (mapped by cubics through six ruling planes) with the
anticanonically embedded weighted projective space P(1,1,4,6).

``import fano72`` loads no submodule.  Each exported name is resolved on
first access, through ``_EXPORTS`` and the module ``__getattr__`` of
PEP 562, and loads only the submodule that defines it and what that one
imports; so ``fano72 hilbert`` loads ``cli`` and ``grading`` alone.
"""

__version__ = "0.1.0"

SUITES = ("wps", "scroll", "system-s", "system-t", "theorem")
EXTRA_SUITES = ("sprime",)


class ConfigurationError(Exception):
    """The requested run cannot start (bad pencil cubic or unknown suite)."""


# Exported name -> the submodule defining it.
_EXPORTS = {name: module for module, names in {
    "bundles": ("RuledClass", "SplitBundle", "system_dim"),
    "checks": ("CheckRecord", "VerifyConfig", "run_all"),
    "grading": ("check_weights", "enumerate_monomials", "hilbert_count", "monomial_text"),
    "linalg": ("LinearSystem", "RowSpace", "nullspace_basis"),
    "linsys": ("InvalidPencilError", "P3_VARS", "PENCIL_VARS", "PencilCubic",
               "build_degree12_system", "build_sextic_system", "conditions_report",
               "coordinate_plane_residual", "is_scalar_multiple", "multiplicity_along_line",
               "random_member", "restrict_to_pencil", "restrict_to_pencil_plane",
               "solve_constraints", "solve_sextic_constraints"),
    "poly": ("ArityError", "ExactDivisionError", "ParseError", "Polynomial",
             "SubstitutionError", "generators", "is_homogeneous", "parse_polynomial",
             "substitute_all"),
    "ratmap": ("GradingError", "TARGET_VARS", "image_degrees", "pullback_system",
               "weighted_parametrization"),
    "wps": ("WeightedProjectiveSpace",),
}.items() for name in names}

__all__ = ["ConfigurationError", "EXTRA_SUITES", "SUITES", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        clip = __import__(f"{__name__}.grading", fromlist=["clip"]).clip
        raise AttributeError(f"module {__name__!r} has no attribute {clip(name, render=repr)}")
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
