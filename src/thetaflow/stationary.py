"""Criticality diagnostics: residuals of the stationary system.

A critical point of the constrained p-elastic energy satisfies, curve by
curve, the strong system

    (|theta_s|^(p-2) theta_s)_s = rhs_j(theta^j; lambda, mu)

with natural boundary conditions theta_s = 0 at both ends and trigonometric
right-hand sides in the multiplier vector x = (lambda_1, lambda_2, mu_1, mu_2)

    rhs_1 = -(lambda_1 - mu_1) sin theta1 + (lambda_2 - mu_2) cos theta1
    rhs_2 =  lambda_1 sin theta2 - lambda_2 cos theta2
    rhs_3 = -mu_1 sin theta3 + mu_2 cos theta3.

Multiplying row j by theta_s and integrating shows that a specific scalar,
(p-1)/p |theta_s|^p minus a fixed linear combination of (cos, sin) theta,
is constant along each curve of a critical point (see
:func:`conserved_quantity`); and combining the three rows at a junction with
the boundary condition yields a force balance: the sum over curves of (flux
divergence) * (unit normal) equals xi T1 + lam T2 + mu T3, with xi, lam, mu
the conserved scalars of the three curves at that end and T_j the unit
tangents there (the identity only uses the three stationary equations and
theta_s = 0 at the ends).  :func:`stationary_residual` reports all of these
defects, computed with one-sided second-order differences at the endpoints
so that their decay under refinement is not masked by the stencil.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .energy import PackedLayout, cell_flux
from .grids import AngleField, NetworkState, midpoint_gradient

__all__ = [
    "StationaryReport",
    "stationary_residual",
    "conserved_coefficients",
    "conserved_quantity",
    "check_scan",
    "detect_stationarity",
]


@dataclass(frozen=True)
class StationaryReport(object):
    """Sup-norm criticality defects of a state/multiplier pair."""

    residuals: np.ndarray          # (3,) interior equation residuals
    bc_defect: float               # max |theta_s| over boundary cells
    conserved_drift: np.ndarray    # (3,) sup - inf of the conserved scalars
    junction_balance_defect: float
    multipliers: np.ndarray        # x = (lambda_1, lambda_2, mu_1, mu_2)
    step_index: int = -1

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _endpoint_value(cells: np.ndarray, start: bool) -> float:
    """Extrapolate cell-midpoint data to the nearest grid endpoint."""
    c = cells if start else cells[::-1]
    if c.shape[0] >= 3:
        return float(1.875 * c[0] - 1.25 * c[1] + 0.375 * c[2])
    return float(1.5 * c[0] - 0.5 * c[1])


def _endpoint_fluxdiv(flux: np.ndarray, h: float, start: bool) -> float:
    """One-sided flux divergence at an endpoint from cell fluxes."""
    f = flux if start else -flux[::-1]
    if f.shape[0] >= 3:
        return float((-2.0 * f[0] + 3.0 * f[1] - f[2]) / h)
    return float((f[1] - f[0]) / h)


def conserved_coefficients(mult: np.ndarray) -> np.ndarray:
    """(3, 2) array whose row j holds the (cos, sin) coefficients of curve
    j's conserved scalar: (lambda - mu, -lambda, mu), the junction signs of
    :attr:`thetaflow.energy.PackedLayout.SIGNS`."""
    return PackedLayout.SIGNS.T @ np.reshape(mult, (2, 2))


def _conserved(slopes: np.ndarray, cos: np.ndarray, sin: np.ndarray,
               coeff, p: float) -> np.ndarray:
    """:func:`conserved_quantity` from a curve's cell slopes and nodal
    cos, sin theta."""
    nodal = np.empty(cos.shape[0])
    nodal[1:-1] = 0.5 * (slopes[:-1] + slopes[1:])
    nodal[0] = slopes[0]
    nodal[-1] = slopes[-1]
    return ((p - 1.0) / p) * np.abs(nodal) ** p - (coeff[0] * cos
                                                    + coeff[1] * sin)


def conserved_quantity(f: AngleField, coeff, p: float) -> np.ndarray:
    """Nodal samples of (p-1)/p |theta_s|^p - coeff . (cos, sin) theta.

    theta_s is averaged from the two adjacent cells at interior nodes and
    taken from the single adjacent cell at the endpoints.  Along a curve of
    an exact critical point this array is constant.
    """
    return _conserved(midpoint_gradient(f), np.cos(f.values),
                      np.sin(f.values), np.asarray(coeff, dtype=float), p)


def stationary_residual(state: NetworkState,
                        mult: np.ndarray) -> StationaryReport:
    """Sup-norm residuals of the stationary system at a state.

    Each curve is differentiated once; its slopes, fluxes and right-hand
    side c_2 cos theta - c_1 sin theta (c its row of
    :func:`conserved_coefficients`) give the interior residual, the
    boundary slopes, the conserved drift and its terms of the junction
    balance, whose larger Euclidean defect over the two ends is reported.
    """
    p = state.p_exponent
    residuals, drift = np.empty(3), np.empty(3)
    bc = 0.0
    # per end: the two sides of the junction force balance
    flux_side, conserved_side = np.zeros((2, 2)), np.zeros((2, 2))
    for j, (f, c) in enumerate(zip(state.fields,
                                   conserved_coefficients(mult))):
        h = f.grid.spacing
        slopes = midpoint_gradient(f)
        flux = cell_flux(slopes, p)
        cos, sin = np.cos(f.values), np.sin(f.values)
        rhs = c[1] * cos - c[0] * sin
        residuals[j] = np.max(np.abs(np.diff(flux) / h - rhs[1:-1]))
        bc = max(bc, abs(float(slopes[0])), abs(float(slopes[-1])))
        drift[j] = np.ptp(_conserved(slopes, cos, sin, c, p))
        for end, k in enumerate((0, -1)):
            start = k == 0
            tangent = np.array([cos[k], sin[k]])
            normal = np.array([-tangent[1], tangent[0]])
            conserved = ((p - 1.0) / p) * abs(
                _endpoint_value(slopes, start)) ** p - float(c @ tangent)
            flux_side[end] += _endpoint_fluxdiv(flux, h, start) * normal
            conserved_side[end] += conserved * tangent
    junction = np.linalg.norm(flux_side - conserved_side, axis=1)
    return StationaryReport(residuals, bc, drift, float(np.max(junction)),
                            mult)


def check_scan(window: int, tol: float) -> None:
    """Raise ValueError unless ``window`` is an integer >= 1 and ``tol`` is
    finite and positive."""
    if not (isinstance(window, numbers.Integral) and window >= 1):
        raise ValueError(f"window must be an integer >= 1 (got {window!r})")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive (got {tol!r})")


def detect_stationarity(traj, window: int = 25, tol: float = 1e-6):
    """Scan the last ``window`` steps for an L2 velocity below ``tol``.

    Returns the StationaryReport (with ``step_index`` set) of the earliest
    minimum-velocity step in the window, or None when every velocity in the
    window exceeds the tolerance.  Raises ValueError on the arguments that
    :func:`check_scan` rejects.
    """
    check_scan(window, tol)
    if not traj.reports:
        return None
    w = min(window, len(traj.reports))
    tail = traj.reports[-w:]
    vels = np.sqrt([r.velocity_l2sq for r in tail])
    best = int(np.argmin(vels))
    if vels[best] > tol:
        return None
    idx = len(traj.reports) - w + best
    report = stationary_residual(traj.states[idx + 1],
                                 traj.reports[idx].multipliers)
    return replace(report, step_index=idx)
