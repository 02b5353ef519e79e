"""Junction multipliers: the 4x4 multiplier system and explicit bounds.

At a minimizer of the implicit step functional the first variation vanishes
along every admissible direction.  Testing against four specific variation
fields phi_1..phi_4 (built from sines and cosines of the current angles, one
pair coupling curves 2 and 3, one pair coupling curves 1 and 2) produces a
4x4 linear system for the multiplier row vector x = (lambda_1, lambda_2,
mu_1, mu_2):

    x . J = rhs,   J[l, r] = <g_l, phi_r>,   rhs = -(D E) f + R

J is the derivative of constraint l along direction phi_r, built like
every 4x4 matrix of the solver from the per-curve moments of T = (sin,
cos) theta with F = D E (see :class:`thetaflow.energy.PackedLayout`); the
elastic forcing -(D E) f tests the cellwise |D theta|^p against the
rotated tangents dT/dtheta = (cos, -sin) theta.  A step takes both from
:meth:`thetaflow.energy.PackedLayout.multiplier_data` and the movement
remainders R from :meth:`~thetaflow.energy.PackedLayout.remainders`;
:func:`thetaflow.energy.assemble_multiplier_data` and
:func:`compute_remainders` wrap them for a NetworkState.  The multipliers
are carried as the (4,) array x; :func:`multiplier_norm` gives |lambda| +
|mu|.

The Gram determinants det A_i of the per-curve moments yield a fully
explicit a-priori bound on |lambda| + |mu| in terms of det A1, det A2, the
lengths, the elastic energy and the L1 speed of the step; see
:func:`multiplier_bound`.  Every inequality used there (operator norm of a
PSD 2x2 matrix by its trace, inverse norm by norm/det, det(I + A3 M) >= 1
for M positive definite) overestimates the exact elimination, so the bound
provably dominates the solved multipliers whenever both determinants are
positive.
"""

import importlib.machinery
import importlib.util
import math
import os

import numpy as np
import scipy

from .energy import PackedLayout, _pair
from .errors import DegenerateGeometry, SingularSystem
from .grids import NetworkState

__all__ = [
    "multiplier_norm",
    "variation_directions",
    "directional_constraint_jacobian",
    "compute_remainders",
    "solve_multipliers",
    "bound_constant",
    "multiplier_bound",
]

# Limits of the multiplier stage; the Newton projection of ``scheme`` shares
# the condition cap through :func:`solve_capped`.
COND_CAP = 1e12    # largest condition number of a 4x4 system that is solved
DET_FLOOR = 1e-12  # det A1 or det A2 at or below this is degenerate geometry


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without running
    ``scipy.linalg``'s package init, which imports much of numpy and scipy
    that thetaflow does not use."""
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError("thetaflow needs scipy's compiled LAPACK module "
                          "scipy/linalg/_flapack, which was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the one handle on LAPACK; ``scheme`` takes its routines from it too
_flapack = _load_flapack()


def multiplier_norm(x: np.ndarray) -> float:
    """|lambda| + |mu|: the Euclidean norms of the pairs x[:2], x[2:]."""
    return math.sqrt(x[:2].dot(x[:2])) + math.sqrt(x[2:].dot(x[2:]))


def variation_directions(state: NetworkState):
    """The four variation fields phi_1..phi_4 as nodal triples.

    phi_1 = (0, sin theta2, -sin theta3)   phi_2 = (0, -cos theta2, cos theta3)
    phi_3 = (sin theta1, -sin theta2, 0)   phi_4 = (-cos theta1, cos theta2, 0)

    phi = D g, D the constant ``PackedLayout.D``.  Each leaves the
    constraint set invariant to first order in the direction complementary
    to its own constraint pair, which is what gives the multiplier matrix
    J[l, r] = <g_l, phi_r> its 2x2 blocks.
    """
    layout, theta = PackedLayout.of(state)
    phi = layout.fields(layout.DE, layout.tangents(theta))
    return tuple(layout.unpack(d) for d in phi)


def directional_constraint_jacobian(state: NetworkState, directions) -> np.ndarray:
    """Matrix of constraint derivatives J[l, r] = d c_l / d t along
    direction r, for arbitrary nodal direction triples.

    With ``directions = variation_directions(state)`` this reproduces the
    J of :func:`thetaflow.energy.assemble_multiplier_data` exactly.  The
    flow does not call it: the Newton projection of
    :func:`thetaflow.scheme.project_to_H` takes its Jacobian from
    :meth:`thetaflow.energy.PackedLayout.moment_products` of the
    :meth:`~thetaflow.energy.PackedLayout.moments` of packed vectors.
    """
    layout, theta = PackedLayout.of(state)
    dirs = np.stack([np.concatenate(d) for d in directions])
    tangents = layout.tangents(theta)
    return layout.E @ np.stack([layout.products(tangents, d) for d in dirs],
                               axis=-1)


def compute_remainders(candidate: NetworkState, prev: NetworkState,
                       tau: float) -> np.ndarray:
    """Movement contributions (R23, R21) to the multiplier right-hand side.

    R23 = (1/tau) [ int_3 (dtheta3)(sin theta3, -cos theta3)
                    - int_2 (dtheta2)(sin theta2, -cos theta2) ]
    R21 = (1/tau) [ int_2 (dtheta2)(sin theta2, -cos theta2)
                    - int_1 (dtheta1)(sin theta1, -cos theta1) ]

    with dtheta = candidate - prev and all trigonometric factors evaluated
    at the candidate, returned as one array: -(1/tau) <phi_r, dtheta>.  At
    tau-scale movement dtheta = O(tau) these stay O(1), which is what keeps
    the multipliers bounded along the flow.
    """
    layout, theta, theta_prev = _pair(candidate, prev, tau)
    return layout.remainders(layout.tangents(theta), theta - theta_prev, tau)


def solve_capped(matrix: np.ndarray, rhs: np.ndarray, what: str):
    """x with ``matrix @ x = rhs`` from one SVD U S V^T (LAPACK ``dgesdd``,
    the routine and call of ``np.linalg.svd``): x = V (U^T rhs / S).
    Raises SingularSystem, naming ``what``, unless sigma_max / sigma_min is
    at most ``COND_CAP``; a singular matrix fails.  Raises LinAlgError, as
    numpy does, when the SVD fails or, before LAPACK is called, when
    ``matrix`` has a non-finite entry: on an inf entry the SVD does not
    return."""
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    u, s, vt, info = _flapack.dgesdd(matrix)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    # numpy's C-ordered factors: the products below pick their BLAS kernel
    # from the layout, so Fortran-ordered ones round differently
    u, vt = np.ascontiguousarray(u), np.ascontiguousarray(vt)
    # Python floats: a zero sigma_min gives no numpy division warning
    cond = float(s[0]) / float(s[-1]) if s[-1] > 0.0 else np.inf
    if not cond <= COND_CAP:
        raise SingularSystem(f"{what} condition number {cond:.3e} exceeds "
                             f"cap {COND_CAP:.3e}")
    return vt.T @ ((u.T @ rhs) / s)


def solve_multipliers(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve x . J = rhs, i.e. J^T x = rhs by :func:`solve_capped` (one
    ``dgesdd``), for the multiplier vector x, J and the elastic part of
    rhs being those of :meth:`thetaflow.energy.PackedLayout.multiplier_data`.

    Raises SingularSystem when J or rhs has a non-finite entry, J has a
    condition number above ``COND_CAP`` (at least two essentially flat or
    aligned curves), or the solved residual fails
    ``|x.J - rhs| <= 1e-9 (1 + |rhs|)``.
    """
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(rhs))):
        raise SingularSystem("multiplier system contains non-finite entries")
    x = solve_capped(jac.T, rhs, "multiplier system")
    resid = float(np.max(np.abs(x @ jac - rhs)))
    # NaN-safe: a NaN residual fails too
    if not resid <= 1e-9 * (1.0 + math.sqrt(rhs.dot(rhs))):
        raise SingularSystem(
            f"multiplier solve residual {resid:.3e} out of tolerance"
        )
    return x


def bound_constant(dets: np.ndarray, lengths) -> float:
    """Geometry factor C of the multiplier bound, explicit in the curve
    ``lengths`` and the first two Gram determinants ``dets`` of
    :meth:`thetaflow.energy.PackedLayout.multiplier_data`.

    With k_i = L_i / det A_i and m = k_1 + k_2:

        C_mu     = (1 + L_3 m)(k_1 + m)
        C_lambda = k_2 (1 + L_3 C_mu)
        C        = C_lambda + C_mu

    Monotone increasing in 1/det A_1 and 1/det A_2.  Raises
    DegenerateGeometry when either determinant sits at or below
    ``DET_FLOOR``.
    """
    det1, det2 = float(dets[0]), float(dets[1])
    if det1 <= DET_FLOOR or det2 <= DET_FLOOR:
        raise DegenerateGeometry(
            "Gram determinants of curves 1 and 2 must exceed the floor "
            f"{DET_FLOOR:g} (got {det1:g}, {det2:g})"
        )
    l1, l2, l3 = lengths
    k1 = l1 / det1
    k2 = l2 / det2
    m = k1 + k2
    c_mu = (1.0 + l3 * m) * (k1 + m)
    c_lam = k2 * (1.0 + l3 * c_mu)
    return c_lam + c_mu


def multiplier_bound(bound_const: float, p_exponent: float, energy: float,
                     velocity_l1: float, tau: float) -> float:
    """Explicit upper bound on |lambda| + |mu| for the step's multipliers:

        C * ( sum_j int |theta_s|^p  +  velocity_l1 / tau )

    where C = ``bound_const`` is :func:`bound_constant` of the candidate,
    S = sum_j int |theta_s|^p = ``p_exponent * energy`` with ``energy`` its
    elastic energy, and ``velocity_l1 = sum_j int |candidate - prev|``.
    The right-hand sides of the multiplier system satisfy
    |rhs| <= S + velocity_l1 / tau, and C dominates the norm of the block
    elimination, so the solved multipliers always sit below this number
    (up to rounding).
    """
    return bound_const * (p_exponent * energy + velocity_l1 / tau)
