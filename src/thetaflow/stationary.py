"""Criticality diagnostics: residuals of the stationary system.

A critical point of the constrained p-elastic energy satisfies, curve by
curve, the strong system

    (|theta_s|^(p-2) theta_s)_s = rhs_j(theta^j; lambda, mu)

with natural boundary conditions theta_s = 0 at both ends and trigonometric
right-hand sides

    rhs_1 = -(lambda_1 - mu_1) sin theta1 + (lambda_2 - mu_2) cos theta1
    rhs_2 =  lambda_1 sin theta2 - lambda_2 cos theta2
    rhs_3 = -mu_1 sin theta3 + mu_2 cos theta3.

Multiplying row j by theta_s and integrating shows that a specific scalar,
(p-1)/p |theta_s|^p minus a fixed linear combination of (cos, sin) theta,
is constant along each curve of a critical point (see
:func:`conserved_quantity`); and combining the three rows at a junction with
the boundary condition yields a force balance between the flux divergences
and those conserved scalars (see :func:`junction_balance`).  All three
diagnostics are computed here with one-sided second-order differences at the
endpoints so that their decay under refinement is not masked by the stencil.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .energy import PackedLayout, cell_flux
from .grids import AngleField, NetworkState, midpoint_gradient
from .multipliers import Multipliers

__all__ = [
    "StationaryReport",
    "stationary_residual",
    "conserved_coefficients",
    "conserved_quantity",
    "junction_balance",
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
    multipliers: Multipliers
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


def conserved_coefficients(mult: Multipliers):
    """Per-curve (cos, sin) coefficients of the conserved scalars."""
    lam, mu = mult.lam, mult.mu
    return (
        np.array([lam[0] - mu[0], lam[1] - mu[1]]),
        np.array([-lam[0], -lam[1]]),
        np.array([mu[0], mu[1]]),
    )


def conserved_quantity(f: AngleField, coeff, p: float) -> np.ndarray:
    """Nodal samples of (p-1)/p |theta_s|^p - coeff . (cos, sin) theta.

    theta_s is averaged from the two adjacent cells at interior nodes and
    taken from the single adjacent cell at the endpoints.  Along a curve of
    an exact critical point this array is constant.
    """
    slopes = midpoint_gradient(f)
    nodal = np.empty(f.grid.node_count)
    nodal[1:-1] = 0.5 * (slopes[:-1] + slopes[1:])
    nodal[0] = slopes[0]
    nodal[-1] = slopes[-1]
    coeff = np.asarray(coeff, dtype=float)
    return ((p - 1.0) / p) * np.abs(nodal) ** p - (
        coeff[0] * np.cos(f.values) + coeff[1] * np.sin(f.values)
    )


def junction_balance(state: NetworkState, mult: Multipliers) -> float:
    """Force-balance defect at the two curve ends.

    At each end the sum over curves of (flux divergence) * (unit normal) is
    compared with xi T1 + lam T2 + mu T3, where xi, lam, mu are the
    conserved scalars of the three curves extrapolated to that end and T_j
    the unit tangents there.  For an exact critical point both sides agree
    at either end (the identity only uses the three stationary equations
    and theta_s = 0 at the ends).  Returns the larger Euclidean defect.
    """
    p = state.p_exponent
    coeffs = conserved_coefficients(mult)
    worst = 0.0
    for start in (True, False):
        lhs = np.zeros(2)
        rhs_vec = np.zeros(2)
        for j, f in enumerate(state.fields):
            k = 0 if start else -1
            theta = f.values[k]
            tangent = np.array([np.cos(theta), np.sin(theta)])
            normal = np.array([-tangent[1], tangent[0]])
            flux = cell_flux(midpoint_gradient(f), p)
            lhs += _endpoint_fluxdiv(flux, f.grid.spacing, start) * normal
            slope_end = _endpoint_value(midpoint_gradient(f), start)
            conserved = ((p - 1.0) / p) * abs(slope_end) ** p - float(
                coeffs[j] @ tangent
            )
            rhs_vec += conserved * tangent
        worst = max(worst, float(np.linalg.norm(lhs - rhs_vec)))
    return worst


def stationary_residual(state: NetworkState,
                        mult: Multipliers) -> StationaryReport:
    """Sup-norm residuals of the stationary system at a state."""
    p = state.p_exponent
    layout, theta = PackedLayout.of(state)
    # rhs_1..rhs_3 are the constraint gradients weighted by (lambda, mu)
    x = np.concatenate([mult.lam, mult.mu])
    rhs = layout.unpack(layout.fields(x @ layout.E, layout.tangents(theta)))
    divergence = layout.unpack(-layout.elastic_gradient(theta))
    residuals = np.array([float(np.max(np.abs(div[1:-1] - r[1:-1])))
                          for div, r in zip(divergence, rhs)])
    bc = 0.0
    for f in state.fields:
        slopes = midpoint_gradient(f)
        bc = max(bc, abs(float(slopes[0])), abs(float(slopes[-1])))
    coeffs = conserved_coefficients(mult)
    drift = np.array([
        float(np.ptp(conserved_quantity(f, c, p)))
        for f, c in zip(state.fields, coeffs)
    ])
    return StationaryReport(
        residuals=residuals,
        bc_defect=bc,
        conserved_drift=drift,
        junction_balance_defect=junction_balance(state, mult),
        multipliers=mult,
    )


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
