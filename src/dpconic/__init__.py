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
    NotOptimal,
    Solution,
    Status,
    build_simple_lp,
    cone_membership,
    program_from_json,
    program_to_json,
    slack,
)
from .dp import (
    AdjacencyModel,
    NoiseSpec,
    SensitivityReport,
    calibrate_gaussian,
    calibrate_laplace,
    estimate_sensitivity,
    sample_noise,
    sensitivity_sample_size,
)
from .ldr import (
    ChanceSpec,
    ConflictingConstraints,
    DecisionRule,
    IndividualChance,
    Privatization,
    SelectQuery,
    VertexChance,
    WeightedSumQuery,
    hyperrectangle_vertices,
    privatize,
    reduce_quadratic_objective,
    safety_factor,
)
from .risk import CVaRSpec, augment_with_cvar, cvar_empirical, var_empirical
from .solver import NumericalBreakdown, SolverSettings, kkt_report, solve, solve_batch

__all__ = [name for name in dir() if not name.startswith("_")]
