"""Exception hierarchy for the network-flow solver.

Errors that abort a flow mid-run may carry the partial trajectory computed so
far in their ``trajectory`` attribute (set by the driver) so callers can
inspect the approach to a blow-up.
"""


class ThetaflowError(Exception):
    """Base class for all solver errors."""

    #: partial trajectory attached by the flow driver when the error
    #: interrupts a run; None otherwise.
    trajectory = None


class InvalidLengths(ThetaflowError):
    """Curve lengths violate an ordering or feasibility requirement."""


class GridMismatch(ThetaflowError):
    """Two states that must share grids (and exponent) do not."""


class SingularSystem(ThetaflowError):
    """A 4x4 system is singular or numerically unusable: the multiplier
    system, or the Jacobian of the Newton projection in ``project_to_H``.

    Signals flat (or aligned) curves; the solve refuses rather than picking
    one of the nonunique solutions.
    """


class DegenerateGeometry(ThetaflowError):
    """Determinant floor or well-posedness guard violated by the input."""


class ProjectionFailed(ThetaflowError):
    """Newton projection onto the constraint set stagnated."""


class InnerSolveFailed(ThetaflowError):
    """Per-step minimization failed even after time-step rejection."""


class FlatnessBlowup(ThetaflowError):
    """Two curve oscillations fell below the flatness floor mid-run."""


class EstimateViolation(ThetaflowError):
    """A runtime a-priori estimate (energy monotonicity, dissipation,
    multiplier or L2 budget) failed on an accepted step.

    These assertions hold by construction for a correct implementation, so
    seeing this error means a solver bug or a poisoned input, never normal
    dynamics.
    """
