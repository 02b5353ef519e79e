"""Implicit variational flow of p-elastic planar curve networks.

The package advances three arc-length-parametrized planar curves, tied
together at junctions through four tangent-integral constraints, by
minimizing movements for the p-elastic energy: each time step minimizes the
elastic energy plus a movement penalty over the constraint set.  Energy
monotonicity, dissipation and multiplier estimates hold step by step and
are enforced as runtime assertions; long runs can be scanned for
convergence to critical points of the constrained energy.
"""

from .energy import (
    ConstraintVector,
    MultiplierMatrices,
    OscillationStats,
    assemble_multiplier_data,
    constraint_gradients,
    constraint_vector,
    det_identity_check,
    implicit_step_energy,
    oscillation_stats,
    p_energy,
    step_gradient,
)
from .errors import (
    DegenerateGeometry,
    EstimateViolation,
    FlatnessBlowup,
    GridMismatch,
    InnerSolveFailed,
    InvalidLengths,
    ProjectionFailed,
    SingularSystem,
    ThetaflowError,
)
from .grids import (
    AngleField,
    Grid,
    NetworkState,
    cumulative_tangent_integral,
    midpoint_gradient,
    require_compatible,
    trapezoid_integral,
    trapezoid_weights,
)
from .multipliers import (
    Multipliers,
    assemble_kkt,
    bound_constant,
    compute_remainders,
    directional_constraint_jacobian,
    multiplier_bound,
    solve_multipliers,
    variation_directions,
)
from .scheme import (
    FlowConfig,
    StepReport,
    Trajectory,
    minimize_step,
    project_to_H,
    run_flow,
    weak_residual,
)
from .stationary import (
    StationaryReport,
    conserved_coefficients,
    conserved_quantity,
    detect_stationarity,
    junction_balance,
    stationary_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AngleField",
    "ConstraintVector",
    "DegenerateGeometry",
    "EstimateViolation",
    "FlatnessBlowup",
    "FlowConfig",
    "Grid",
    "GridMismatch",
    "InnerSolveFailed",
    "InvalidLengths",
    "MultiplierMatrices",
    "Multipliers",
    "NetworkState",
    "OscillationStats",
    "ProjectionFailed",
    "SingularSystem",
    "StationaryReport",
    "StepReport",
    "ThetaflowError",
    "Trajectory",
    "assemble_kkt",
    "assemble_multiplier_data",
    "bound_constant",
    "compute_remainders",
    "conserved_coefficients",
    "conserved_quantity",
    "constraint_gradients",
    "constraint_vector",
    "cumulative_tangent_integral",
    "det_identity_check",
    "detect_stationarity",
    "directional_constraint_jacobian",
    "implicit_step_energy",
    "junction_balance",
    "midpoint_gradient",
    "require_compatible",
    "minimize_step",
    "multiplier_bound",
    "oscillation_stats",
    "p_energy",
    "project_to_H",
    "run_flow",
    "solve_multipliers",
    "stationary_residual",
    "step_gradient",
    "trapezoid_integral",
    "trapezoid_weights",
    "variation_directions",
    "weak_residual",
]
