"""Junction multipliers: the 4x4 saddle-point system and explicit bounds.

At a minimizer of the implicit step functional the first variation vanishes
along every admissible direction.  Testing against four specific variation
fields phi_1..phi_4 (built from sines and cosines of the current angles, one
pair coupling curves 2 and 3, one pair coupling curves 1 and 2) produces a
4x4 linear system for the multiplier row vector x = (lambda_1, lambda_2,
mu_1, mu_2):

    x . J = rhs,   J = [[ A2, -(A1 + A2)],      rhs = (G3 - G2 + R23,
                        [ A3,   A1      ]]              G2 - G1 + R21)

with the 2x2 Gram blocks A_i and elastic forcings G_i from
:func:`thetaflow.energy.assemble_multiplier_data` and movement remainders
R23, R21 from :func:`compute_remainders`.  Entry (l, r) of J is the
derivative of constraint l along direction phi_r.  The multipliers are
carried as the (4,) array x; :func:`multiplier_norm` gives |lambda| + |mu|.

The same blocks yield a fully explicit a-priori bound on |lambda| + |mu|
in terms of the two determinants det A1, det A2, the lengths, the elastic
energy and the L1 speed of the step; see :func:`multiplier_bound`.  Every
inequality used there (operator norm of a PSD 2x2 matrix by its trace,
inverse norm by norm/det, det(I + A3 M) >= 1 for M positive definite)
overestimates the exact elimination, so the bound provably dominates the
solved multipliers whenever both determinants are positive.
"""

import numpy as np

from .energy import MultiplierMatrices, PackedLayout
from .errors import DegenerateGeometry, SingularSystem
from .grids import NetworkState, require_compatible

__all__ = [
    "multiplier_norm",
    "variation_directions",
    "assemble_kkt",
    "directional_constraint_jacobian",
    "compute_remainders",
    "solve_multipliers",
    "bound_constant",
    "multiplier_bound",
]

# Limits of the multiplier stage; the Newton projection of ``scheme`` shares
# the condition cap.
COND_CAP = 1e12    # largest condition number of a 4x4 system that is solved
DET_FLOOR = 1e-12  # det A1 or det A2 at or below this is degenerate geometry


def multiplier_norm(x: np.ndarray) -> float:
    """|lambda| + |mu|: the Euclidean norms of the pairs x[:2], x[2:]."""
    return float(np.linalg.norm(x[:2]) + np.linalg.norm(x[2:]))


def variation_directions(state: NetworkState):
    """The four variation fields phi_1..phi_4 as nodal triples.

    phi_1 = (0, sin theta2, -sin theta3)   phi_2 = (0, -cos theta2, cos theta3)
    phi_3 = (sin theta1, -sin theta2, 0)   phi_4 = (-cos theta1, cos theta2, 0)

    Each leaves the constraint set invariant to first order in the direction
    complementary to its own constraint pair, which is what decouples the
    multiplier system into the 2x2 blocks of :func:`assemble_kkt`.
    """
    layout, theta = PackedLayout.of(state)
    phi = layout.fields(layout.D @ layout.E, layout.tangents(theta))
    return tuple(layout.unpack(d) for d in phi)


def assemble_kkt(data: MultiplierMatrices) -> np.ndarray:
    """Block matrix [[A2, -(A1 + A2)], [A3, A1]] of the multiplier system."""
    a1, a2, a3 = data.A
    j = np.empty((4, 4))
    j[:2, :2] = a2
    j[:2, 2:] = -(a1 + a2)
    j[2:, :2] = a3
    j[2:, 2:] = a1
    return j


def directional_constraint_jacobian(state: NetworkState, directions) -> np.ndarray:
    """Matrix of constraint derivatives J[l, r] = d c_l / d t along
    direction r, for arbitrary nodal direction triples.

    With ``directions = variation_directions(state)`` this reproduces
    ``assemble_kkt`` exactly; the Newton projection uses it with directions
    frozen at a different state.
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
    require_compatible(candidate, prev)
    layout, theta = PackedLayout.of(candidate)
    return layout.remainders(layout.tangents(theta), theta - layout.pack(prev),
                             tau)


def solve_multipliers(data: MultiplierMatrices,
                      rem: np.ndarray) -> np.ndarray:
    """Solve x . J = rhs for the multiplier vector x.

    Raises SingularSystem when the condition number of J exceeds
    ``COND_CAP`` (at least two essentially flat or aligned curves) or the
    solved residual fails ``|x.J - rhs| <= 1e-9 (1 + |rhs|)``.
    """
    kkt = assemble_kkt(data)
    if not np.all(np.isfinite(kkt)):
        raise SingularSystem("multiplier system contains non-finite entries")
    cond = float(np.linalg.cond(kkt))
    if cond > COND_CAP:
        raise SingularSystem(
            f"multiplier system condition number {cond:.3e} exceeds "
            f"cap {COND_CAP:.3e}"
        )
    g1, g2, g3 = data.G
    rhs = np.concatenate([g3 - g2, g2 - g1]) + rem
    x = np.linalg.solve(kkt.T, rhs)
    resid = float(np.max(np.abs(x @ kkt - rhs)))
    if resid > 1e-9 * (1.0 + float(np.linalg.norm(rhs))):
        raise SingularSystem(
            f"multiplier solve residual {resid:.3e} out of tolerance"
        )
    return x


def bound_constant(data: MultiplierMatrices, state: NetworkState) -> float:
    """Geometry factor C of the multiplier bound, explicit in the lengths
    and the first two Gram determinants.

    With k_i = L_i / det A_i and m = k_1 + k_2:

        C_mu     = (1 + L_3 m)(k_1 + m)
        C_lambda = k_2 (1 + L_3 C_mu)
        C        = C_lambda + C_mu

    Monotone increasing in 1/det A_1 and 1/det A_2.  Raises
    DegenerateGeometry when either determinant sits at or below
    ``DET_FLOOR``.
    """
    det1, det2 = float(data.dets[0]), float(data.dets[1])
    if det1 <= DET_FLOOR or det2 <= DET_FLOOR:
        raise DegenerateGeometry(
            "Gram determinants of curves 1 and 2 must exceed the floor "
            f"{DET_FLOOR:g} (got {det1:g}, {det2:g})"
        )
    l1, l2, l3 = state.lengths
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
