"""Implicit variational flow of p-elastic planar curve networks.

The package advances three arc-length-parametrized planar curves, tied
together at junctions through four tangent-integral constraints, by
minimizing movements for the p-elastic energy: each time step minimizes the
elastic energy plus a movement penalty over the constraint set.  Energy
monotonicity, dissipation and multiplier estimates hold step by step and
are enforced as runtime assertions; long runs can be scanned for
convergence to critical points of the constrained energy.

The names below are what the CLI, the demos and the README use; everything
else, the assemblies the tests check included, is imported from its
defining module.
"""

from .energy import p_energy
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
from .grids import AngleField, Grid, NetworkState
from .scheme import FlowConfig, StepReport, Trajectory, run_flow
from .stationary import (
    conserved_coefficients,
    conserved_quantity,
    detect_stationarity,
)

__version__ = "0.1.0"

__all__ = [
    "AngleField",
    "DegenerateGeometry",
    "EstimateViolation",
    "FlatnessBlowup",
    "FlowConfig",
    "Grid",
    "GridMismatch",
    "InnerSolveFailed",
    "InvalidLengths",
    "NetworkState",
    "ProjectionFailed",
    "SingularSystem",
    "StepReport",
    "ThetaflowError",
    "Trajectory",
    "conserved_coefficients",
    "conserved_quantity",
    "detect_stationarity",
    "p_energy",
    "run_flow",
]
