"""Exact-arithmetic toolkit certifying the degree-72 scroll-cone threefold.

The library verifies, over the rationals and with zero tolerance, the
dimension counts, intersection numbers, linear systems, and the span
identity that together identify the threefold obtained from the cone over
the degree-8 scroll (mapped by cubics through six ruling planes) with the
anticanonically embedded weighted projective space P(1,1,4,6).
"""

from .bundles import BundleSystemSpec, RuledClass, SplitBundle, system_dim
from .checks import (CheckRecord, ConfigurationError, VerifyConfig, run_all)
from .grading import (ANY_DEGREE, check_weights, enumerate_monomials,
                      hilbert_count, is_homogeneous)
from .linalg import RowSpace, nullspace_basis
from .linsys import (InvalidPencilError, LinearSystem, P3_VARS, PENCIL_VARS,
                     PencilCubic, SpanIdentityReport, build_degree12_system,
                     build_sextic_system, compare_spans,
                     coordinate_plane_residual, factor_out, is_scalar_multiple,
                     multiplicity_along_line, random_member, restrict_to_pencil,
                     restrict_to_pencil_plane, solve_constraints,
                     solve_sextic_constraints)
from .poly import (ArityError, ExactDivisionError, ParseError, Polynomial,
                   SubstitutionError, generators, monomial_text,
                   parse_polynomial, substitute_all)
from .ratmap import (GradedRationalMap, GradingError, TARGET_VARS,
                     pullback_system, weighted_parametrization)
from .wps import WeightedProjectiveSpace

__version__ = "0.1.0"
