"""polyevp: polyhedral cone scalarization, lower-boundedness diagnostics,
and certified variational descent on finite metric spaces.

Everything is computed exactly, so answers are certificates rather than
approximations: through rational linear programming, and for the descent
solver's repeated questions about one pair (H, K) through an integer
halfspace representation computed once per problem.
"""

from .boundedness import (
    BoundednessReport,
    classify,
    find_kstar,
    is_H_lower_bounded,
    is_K_lower_bounded,
    is_quasi_K_lower_bounded,
    separating_epsilon_for,
)
from .evp import (
    EfficiencyMode,
    EVPCertificate,
    EVPProblem,
    FiniteMetricSpace,
    HypothesisViolatedError,
    PlainMode,
    ScaledMode,
    ScaleMismatchWarning,
    SetValuedMapTable,
    VerificationReport,
    ae_efficient,
    condition_ii_witness,
    coradiant_escape_check,
    dominates,
    lower_section,
    solve,
    verify_certificate,
)
from .geometry import (
    ConeGen,
    ConeHalfspaces,
    DimensionMismatchError,
    InvalidConfigurationError,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    cone_halfspaces,
    homogenized_generators,
    homogenized_halfspaces,
    is_pointed,
    scaled_H_minus_K_contains,
    scaled_H_plus_K_contains,
    union_disjoint_from,
    zero_notin_H_plus_K,
)
from .lp_core import LinearProgram, LPFormatError, LPResult
from .lp_core import solve as solve_lp
from .scalarization import (
    BracketExhaustedError,
    ExtendedReal,
    InternalConsistencyError,
    SeparationFunctional,
    evaluate,
    evaluate_bisection,
)

__version__ = "0.1.0"
