"""Differentially private conic optimization via chance-constrained decision rules.

The pipeline: express the task as a standard-form conic program, estimate
the query sensitivity over adjacent datasets, calibrate Laplace/Gaussian
noise, and solve the chance-constrained rule counterpart whose released
query carries a data-independent random part.
"""

__version__ = "0.1.0"

from .conic import (
    ConeKind,
    ConeSpec,
    ConicProgram,
    Solution,
    Status,
    build_simple_lp,
    cone_membership,
    program_from_json,
    program_to_json,
    slack,
    validate,
)
from .dp import (
    AdjacencyModel,
    NoiseSpec,
    PrivacyParams,
    SensitivityReport,
    calibrate_gaussian,
    calibrate_laplace,
    estimate_sensitivity,
    privacy_ratio_check,
    sample_noise,
    sensitivity_sample_size,
)
from .ldr import (
    ChanceSpec,
    ConflictingConstraints,
    DecisionRule,
    FixedRecourseQuery,
    IdentityQuery,
    IndividualChance,
    SumQuery,
    VertexChance,
    WeightedSumQuery,
    apply_query_constraint,
    hyperrectangle_vertices,
    nominal_query,
    privatize,
    reduce_quadratic_objective,
    release_query,
    safety_factor,
    split_equalities,
    vertex_sample_size,
)
from .risk import CVaRSpec, augment_with_cvar, cvar_empirical, var_empirical
from .solver import NumericalBreakdown, SolverSettings, kkt_report, solve, solve_batch

__all__ = [name for name in dir() if not name.startswith("_")]
