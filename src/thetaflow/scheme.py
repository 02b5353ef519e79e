"""Minimizing-movement scheme for the constrained p-elastic flow.

Each time step minimizes the implicit step functional (elastic energy plus
movement penalty) over the four junction constraints, on one packed nodal
vector (:class:`thetaflow.energy.PackedLayout`, shared by a run's states);
only the step's result becomes a validated NetworkState.  The inner solve
(:func:`_inner_descent`) projects the gradient onto the tangent space of
the constraints (:func:`_tangent_project`), takes the constrained Newton
direction (:func:`_newton_direction`) of the tridiagonal matrix of
:func:`_hessian_bands`, SQP Newton at p >= 2, and backtracks until the step
functional passes an Armijo test, each trial projected onto the constraint
set (:func:`_project`).  Acceptance is monotone in the step functional, so
these a-priori estimates hold by construction; :func:`steps` checks them,
and the constraint defect, on every step's report (:func:`_step`):

  * the elastic energy never increases along the flow,
  * half the summed tau * ||velocity||_L2^2 stays below the initial energy,
  * the multipliers of every step obey the explicit bound of
    :func:`thetaflow.multipliers.multiplier_bound` and their summed squares
    stay below an explicit budget in (T, initial energy, lengths, p),
  * nodal L2 norms grow at most like sqrt(2 T E_0).

The run is a stream: :func:`steps` yields each state and report once its
step is accepted, and :func:`run_flow` collects them into a Trajectory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import PackedLayout, constraint_defect, step_gradient
from .errors import (
    DegenerateGeometry,
    EstimateViolation,
    FlatnessBlowup,
    InnerSolveFailed,
    ProjectionFailed,
    SingularSystem,
)
from .grids import NetworkState
from .multipliers import (
    _flapack,
    bound_constant,
    multiplier_bound,
    multiplier_norm,
    solve_capped,
    solve_multipliers,
)

__all__ = [
    "FlowConfig",
    "StepReport",
    "Trajectory",
    "project_to_H",
    "minimize_step",
    "steps",
    "collect",
    "run_flow",
]

ARMIJO_C1 = 1e-4       # sufficient-decrease constant of the line search
BACKTRACK = 0.5        # step-length factor per rejected trial
NEWTON_MAX_ITERS = 30  # Newton iterations of one constraint projection
MAX_HALVINGS = 3       # tau halvings before a step is given up
MAX_INNER_ITERS = 5000 # inner iterations before a step retries at tau/2
TOL_INNER = 1e-8       # tangential gradient norm that ends an inner solve

_dptsv, _dgesv, _dgelsd = _flapack.dptsv, _flapack.dgesv, _flapack.dgelsd
# np.linalg.lstsq's cutoff at rcond=None, and dgelsd's workspace, for 4x4
_LSTSQ_COND = 4.0 * np.finfo(float).eps
_LSTSQ_WORK = tuple(map(int, _flapack.dgelsd_lwork(4, 4, 1, _LSTSQ_COND)[:2]))


def solveh_banded(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a symmetric positive definite tridiagonal A with
    diagonal ``d`` (n,) and off-diagonal ``e`` (n - 1,) by LAPACK
    ``dptsv``, the routine and call that ``scipy.linalg.solveh_banded``
    makes for the two-row band [[0, e], d], so the result is bitwise the
    same.  ``b`` is (n,) or (n, nrhs); ``d``, ``e`` and ``b`` may be
    overwritten.

    Raises LinAlgError when ``d``, ``e`` or ``b`` has a non-finite entry or
    A is not positive definite.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()
            and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("band or right-hand side is not finite")
    _, _, x, info = _dptsv(d, e, b, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dptsv")
    return x


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of the 4x4 system ``a x = b`` by LAPACK
    ``dgelsd``, the routine and call of ``np.linalg.lstsq(a, b,
    rcond=None)``; raises LinAlgError, as numpy does, when its SVD fails
    or, before LAPACK is called, when ``a`` has a non-finite entry: on an
    inf entry the SVD does not return."""
    if np.isfinite(a).all():
        x, _, _, info = _dgelsd(a, b, *_LSTSQ_WORK, _LSTSQ_COND)
        if not info:
            return x
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@dataclass(frozen=True)
class FlowConfig(object):
    """Solver parameters.

      * ``p_exponent``: exponent p > 1 of the elastic energy;
      * ``tau``: time step, at most ``T``, and large enough that the square
        of its smallest halving, ``(tau / 2**MAX_HALVINGS)**2``, is not 0;
      * ``T``: time horizon of :func:`steps`;
      * ``tol_constraint``: constraint defect of accepted and projected states;
      * ``osc_floor``: oscillation floor of the flatness guard.

    The flatness guard demands either a theta network with a strictly
    shortest third curve or at least two curves of oscillation >=
    ``osc_floor``.  The line-search, projection, inner-iteration and
    halving limits and the inner tolerance ``TOL_INNER`` are the module
    constants above.
    """

    p_exponent: float = 2.0
    tau: float = 1e-3
    T: float = 1.0
    tol_constraint: float = 1e-9
    osc_floor: float = 1e-3

    def __post_init__(self):
        for name in ("p_exponent", "tau", "T", "tol_constraint", "osc_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")
        if self.p_exponent <= 1.0:
            raise ValueError("p must exceed 1")
        if self.tau > self.T:
            raise ValueError("tau must not exceed the horizon T")
        if (self.tau / 2**MAX_HALVINGS) ** 2 == 0.0:
            # the step's velocity divides by tau**2
            raise ValueError(f"tau={self.tau:g} is too small: the square of "
                             f"tau / 2**{MAX_HALVINGS} underflows to 0")


@dataclass(frozen=True)
class StepReport(object):
    """Per-step diagnostics; all runtime estimates are checked against these.

    ``termination`` names the rule that ended the inner solve:
    ``"gradient_tol"`` (the tangential gradient norm reached ``TOL_INNER``),
    ``"precision_floor"``, ``"stall_window"`` or
    ``"line_search_floor"`` (see ``_inner_descent``); ``inner_converged``
    is ``termination == "gradient_tol"``.

    ``multipliers`` are the phi-tested ones: x solves the system x . J =
    -(D E) f + R of :mod:`thetaflow.multipliers`, the step's first
    variation tested with the directions phi and a midpoint-rule forcing,
    for which the a-priori bounds are proved.  They are not the step's
    discrete Lagrange multipliers -coef, coef the tangent projection's
    estimate at the final state: on the lens, |x + coef|_inf / |x|_inf is
    about 0.16 h^2 (h = 1 / nodes per unit), falling 4-fold per halving.
    """

    step_index: int
    tau: float
    energy_before: float
    energy_after: float
    penalty_value: float
    velocity_l2sq: float
    velocity_l1: float
    multipliers: np.ndarray        # x = (lambda_1, lambda_2, mu_1, mu_2)
    mult_bound: float
    bound_const: float
    constraint_defect: float
    dets: np.ndarray
    oscs: np.ndarray
    weak_residual_value: float
    inner_iters: int
    inner_converged: bool
    termination: str


@dataclass(frozen=True)
class Trajectory(object):
    """States, per-step reports and the (possibly nonuniform) time grid."""

    states: tuple
    reports: tuple
    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(self.states) != len(self.reports) + 1 or times.shape[0] != len(self.states):
            raise ValueError("states, reports and times are inconsistent")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "reports", tuple(self.reports))
        object.__setattr__(self, "times", times)

    @property
    def final_state(self) -> NetworkState:
        return self.states[-1]


def _flatness_guard(state: NetworkState, oscs: np.ndarray,
                    osc_floor: float) -> bool:
    """Whether the guard admits ``state``, whose per-curve oscillations are
    ``oscs``.

    The guard admits a state when either the structural condition holds (a
    theta network whose third curve is strictly shortest) or at least two
    curves oscillate by ``osc_floor`` or more; both routes keep the Gram
    determinants of curves 1 and 2 away from zero.
    """
    l1, l2, l3 = state.lengths
    structural = state.is_theta and l3 < min(l1, l2)
    return structural or int(np.sum(oscs >= osc_floor)) >= 2


def project_to_H(state: NetworkState, cfg: FlowConfig) -> NetworkState:
    """Newton projection onto the constraint set.

    Moves along the four variation directions frozen at the input state; the
    Jacobian of the constraints in those directions starts out as the
    multiplier system matrix J of
    :meth:`thetaflow.energy.PackedLayout.multiplier_data`, the same moment
    products, so it is invertible whenever that system is.
    An admissible input is returned unchanged (the same object).  Raises
    ProjectionFailed for a constraint defect above 1 or when Newton
    stagnates, and SingularSystem when the projection Jacobian is
    numerically singular (its SVD, which also gives each Newton step, has
    sigma_max / sigma_min above COND_CAP, or sigma_min = 0).
    """
    layout, theta = PackedLayout.of(state)
    projected, _, _ = _project(layout, theta, cfg)
    if projected is theta:
        return state
    return state.with_values(layout.unpack(projected))


def _project(layout: PackedLayout, theta: np.ndarray, cfg: FlowConfig,
             initial: bool = False):
    """:func:`project_to_H` on a packed vector: (projected vector, its
    tangents T, its constraint values), the vector being ``theta`` itself
    if admissible.  ``initial`` also refuses, as :func:`steps` does, a
    defect above 1000x the constraint tolerance.

    The directions phi = (D E) e are frozen at ``theta`` (tangents T0), so
    the Jacobian at the current point (tangents T) is the products of its
    constraint gradients with them, and a step t moves by fields(t (D E),
    T0); one SVD of the Jacobian (:func:`multipliers.solve_capped`) gives
    each update and the condition number of the ``COND_CAP`` test.
    """
    tol = cfg.tol_constraint
    frozen = layout.tangents(theta)
    c = layout.constraint_values(frozen)
    defect = constraint_defect(c)
    if defect <= tol:
        return theta, frozen, c
    if initial and defect > 1e3 * tol:
        raise ProjectionFailed(f"initial constraint defect {defect:.3e} "
                               f"exceeds 1000x the constraint tolerance")
    if defect > 1.0:
        raise ProjectionFailed(
            f"constraint defect {defect:.3e} too large to project"
        )
    de = layout.DE
    t = np.zeros(4)
    tangents = frozen
    for _ in range(NEWTON_MAX_ITERS):
        jac = layout.moment_products(layout.moments(tangents, frozen), de)
        t = t + solve_capped(jac, -c, "projection Jacobian")
        current = theta + layout.fields(t @ de, frozen)
        tangents = layout.tangents(current)
        c = layout.constraint_values(tangents)
        if constraint_defect(c) <= tol:
            return current, tangents, c
    raise ProjectionFailed(
        f"Newton projection stagnated at defect {constraint_defect(c):.3e}"
    )


def _tangent_project(layout: PackedLayout, tangents: np.ndarray,
                     blocks: np.ndarray, grad: np.ndarray):
    """(gp, coef): a nodal gradient minus its components along the
    constraint gradients g = E e (built from ``tangents``, whose moments
    with themselves are ``blocks``) in the lumped L2 inner product, and the
    (4,) coefficients coef of those components, the least-squares
    multiplier estimate of grad = sum_k coef_k g_k, solved from the 4x4
    Gram matrix of the g_k by LU (LAPACK ``dgesv``, as ``np.linalg.solve``),
    or by least squares (``dgelsd``, :func:`_lstsq`) when LU finds it
    singular or returns non-finite values."""
    e = layout.E
    gram = layout.moment_products(blocks, e)
    rhs = e @ layout.products(tangents, grad)
    _, _, coef, info = _dgesv(gram, rhs)
    if info or not np.all(np.isfinite(coef)):
        coef = _lstsq(gram, rhs)
    return grad - layout.fields(coef @ e, tangents), coef


def _hessian_bands(layout: PackedLayout, slopes: np.ndarray, tau: float,
                   tangents: np.ndarray, coef: np.ndarray):
    """(d, e), the diagonal and the off-diagonal of the symmetric
    tridiagonal Newton matrix of one inner iteration: the Hessian B of the
    step functional, movement mass W / tau plus the elastic cell weights
    (p - 1) |D|^(p-2) / h of the iterate's ``slopes`` D, and at p >= 2 the constraint curvature of the Lagrangian at the
    multiplier estimate ``coef``, built from ``tangents``, which makes the
    inner iteration SQP Newton, with quadratic convergence.

    The constraints are lumped integrals of +-sin or +-cos, so their
    Euclidean Hessians are diagonal, W g_k' with g_k' = d g_k / d theta,
    and the Lagrangian Hessian is B - diag(W sum_k coef_k g_k'), the sum
    being fields(coef E, (cos, -sin) theta) = fields(coef ER, T) (see
    :class:`thetaflow.energy.PackedLayout`).  That term is clipped to half
    the movement mass, +-W / (2 tau), per node, so the matrix stays above
    W / (2 tau) plus the elastic part: positive definite, and finite when
    the estimate is huge.

    For p < 2 the slopes are clamped at |D| >= 1e-8, away from the
    singularity at flat cells, and the curvature is left out: at p = 1.5
    it sends steps to the stall window and doubles the weak residual.  The
    matrix only chooses the direction, so neither the clamp nor the clip
    costs correctness.
    """
    p = layout.p
    mag = np.abs(slopes)
    if p < 2.0:
        mag = np.maximum(mag, 1e-8)
    # |D|^(p-2) may overflow at large p; the solve refuses a non-finite band
    with np.errstate(over="ignore"):
        om = (p - 1.0) * mag ** (p - 2.0) * layout.inv_h
    d = np.zeros(layout.weights.shape[0])
    d[:-1] += om
    d[1:] += om
    d += layout.weights / tau
    if p >= 2.0:
        curvature = layout.fields(coef @ layout.ER, tangents)
        d -= layout.weights * np.clip(curvature, -0.5 / tau, 0.5 / tau)
    return d, -om


def _newton_direction(layout: PackedLayout, slopes: np.ndarray,
                      tangents: np.ndarray, grad: np.ndarray,
                      tau: float, coef) -> np.ndarray:
    """Constrained Newton direction from the bordered system

        [ B   C^T ] [ d ]   [ e ]
        [ C    0  ] [ y ] = [ 0 ]

    with B the banded matrix of :func:`_hessian_bands` from the iterate's
    ``slopes`` (at p >= 2 the Lagrangian Hessian at the multiplier
    estimate ``coef``, else the step functional's), e the Euclidean
    gradient W ``grad`` and C the Euclidean constraint
    gradients (W g, W the trapezoid weights), eliminated through B and a
    4x4 Schur complement.  B does not couple curves, so
    B^-1 W (sigma T_a) = sigma B^-1 W T_a for per-curve factors sigma:
    one tridiagonal solve (LAPACK ``dptsv``, see :func:`solveh_banded`)
    with the three right-hand sides W grad and the rows W T of
    ``tangents`` gives
    d0 = B^-1 W grad and U = B^-1 W T, the Schur complement is
    E @ blockdiag(<T_a, U_a'>) @ E^T, solved by least squares
    (:func:`_lstsq`) as near a straight bar it is close to singular, and
    B^-1 C^T y = fields(y E, U).  Its fixed point d = 0 is exactly the
    constrained first-order condition: the gradient lies in the span of the
    constraint gradients.
    """
    try:
        # the band first, so the right-hand sides are not held while it is
        # built: that lowers the peak RSS of a fine mesh
        sol = solveh_banded(
            *_hessian_bands(layout, slopes, tau, tangents, coef),
            np.vstack([grad * layout.weights, tangents[2:]]).T)
    except np.linalg.LinAlgError as err:
        # rounding can cost the factorization its definiteness when the
        # elastic weights dwarf the mass term, and at large p the band or
        # gradient can overflow; the caller retries at tau/2
        raise InnerSolveFailed(f"step Hessian cannot be factored at "
                               f"tau={tau:g}: {err}") from err
    d0, u = sol[:, 0], sol[:, 1:].T
    e = layout.E
    schur = layout.moment_products(layout.moments(tangents, u), e)
    y = _lstsq(schur, e @ layout.products(tangents, d0))
    return d0 - layout.fields(y @ e, u)


def _inner_descent(theta_prev: np.ndarray, carried, cfg: FlowConfig,
                   tau: float):
    """Monotone descent for one implicit step, on packed vectors, from
    ``theta_prev`` and its by-products ``carried`` (see :func:`_step`):
    its tangents, their moments with themselves, its constraint values and
    its elastic energy, which is also its step functional value.  Its
    slopes are computed here, once.

    Directions come from the constrained Newton system (banded Hessian, at
    p >= 2 the Lagrangian's at the multiplier estimate of the tangent
    projection, bordered by the constraint gradients), are accepted by an
    Armijo test on the step functional itself, and every trial point is
    pulled back onto the constraint set before evaluation.  The Armijo
    slope is <gp, d> with gp the tangent-projected gradient: for a
    direction tangent to the constraints it equals <grad, d>, but the
    normal part of grad, which near convergence is many orders larger than
    gp, no longer swamps it with rounding.  Once the predicted Armijo
    decrement falls below the floating-point resolution of the energy, a
    trial also passes if it halves the projected gradient norm without
    letting the energy rise beyond rounding; that is what lets the
    iteration reach gradient tolerances far below sqrt(eps * energy).  The
    line search tries the step lengths 1, 1/2, ..., 2^-46 and takes the
    first trial that passes; a failed trial ends the step at once if the
    slope itself is below that resolution (no shorter step could show a
    measurable decrease) or the next length would fall below 1e-14.  The
    tangents of the accepted trial, computed to test its constraints, its
    slopes and cell energies, computed for its step functional value, and
    the moments of its tangents serve the next iteration.

    Returns (theta, tangents, blocks, c, slopes, cells, inner_iters,
    termination) for the returned iterate, c being its constraint values
    (from its projection, or carried for ``theta_prev``), cells its
    :meth:`~thetaflow.energy.PackedLayout.cell_energies`, None for
    ``theta_prev`` (no trial accepted), and termination one of the four
    kinds that :class:`StepReport` documents:

      * ``"gradient_tol"``: the projected gradient norm reached
        ``TOL_INNER``;
      * ``"precision_floor"``: the rule above (iterate kept);
      * ``"stall_window"``: a backstop, 16 accepted iterates that together
        lowered the functional by no more than rounding (iterate kept);
      * ``"line_search_floor"``: no acceptable trial down to step length
        1e-14 (iterate kept).

    Running out of ``MAX_INNER_ITERS`` iterations raises InnerSolveFailed.
    """
    layout, tangents, blocks, c, energy, _ = carried
    theta = theta_prev
    slopes, cells = layout.slopes(theta), None
    noise = 32.0 * np.finfo(float).eps * (1.0 + abs(energy))
    window = 16
    history = [energy]
    for it in range(MAX_INNER_ITERS):
        # at large p the gradient, its projection and its norm may
        # overflow; the Newton solve then refuses the non-finite system
        with np.errstate(over="ignore", invalid="ignore"):
            grad = layout.step_gradient(theta, theta_prev, tau, slopes)
            gp, coef = _tangent_project(layout, tangents, blocks, grad)
            gp_sq = float(layout.inner(gp, gp))
        if math.sqrt(gp_sq) <= TOL_INNER:
            return theta, tangents, blocks, c, slopes, cells, it, "gradient_tol"
        if len(history) > window and history[-window - 1] - energy <= window * noise:
            return theta, tangents, blocks, c, slopes, cells, it, "stall_window"
        d = _newton_direction(layout, slopes, tangents, grad, tau, coef)
        slope = float(layout.inner(gp, d))
        if not np.isfinite(slope) or slope <= 0.0:
            d, slope = gp, gp_sq
        # released before the line search, which lowers the peak RSS
        del grad, gp
        alpha = 1.0
        while True:
            try:
                trial, trial_tangents, trial_c = _project(
                    layout, theta - alpha * d, cfg)
            except (ProjectionFailed, SingularSystem):
                pass
            else:
                trial_slopes = layout.slopes(trial)
                # |slope|^p may overflow at large p; an infinite trial
                # energy fails both acceptance tests below
                with np.errstate(over="ignore"):
                    trial_cells = layout.cell_energies(trial_slopes)
                    trial_energy = layout.step_energy(trial, theta_prev, tau,
                                                      trial_cells)
                passed = trial_energy <= energy - ARMIJO_C1 * alpha * slope
                if (not passed and ARMIJO_C1 * alpha * slope <= noise
                        and trial_energy <= energy + noise):
                    gp_t, _ = _tangent_project(
                        layout, trial_tangents,
                        layout.moments(trial_tangents, trial_tangents),
                        layout.step_gradient(trial, theta_prev, tau,
                                             trial_slopes))
                    passed = layout.inner(gp_t, gp_t) <= 0.25 * gp_sq
                if passed:
                    theta, tangents, c, energy, slopes, cells = (
                        trial, trial_tangents, trial_c, trial_energy,
                        trial_slopes, trial_cells)
                    break
            # a failed trial: backtrack, unless the step ends at a floor
            alpha *= BACKTRACK
            if slope <= noise or alpha < 1e-14:
                end = "precision_floor" if slope <= noise else "line_search_floor"
                return theta, tangents, blocks, c, slopes, cells, it, end
        blocks = layout.moments(tangents, tangents)
        history.append(energy)
    raise InnerSolveFailed(f"inner solver hit the {MAX_INNER_ITERS}-iteration "
                           f"cap at tau={tau:g}")


def _weak_residual(layout: PackedLayout, tangents: np.ndarray,
                   grad: np.ndarray, mult: np.ndarray) -> float:
    """Max over hat test functions of |weak form| / ||hat||_H1 for a step
    with multipliers ``mult``, from the candidate's tangents and its packed
    step gradient ``grad``.

    The weak form of the time-discrete equation pairs the velocity and the
    multiplier terms with the trapezoid rule and the elastic flux with the
    cellwise midpoint rule, which makes the hat-function value equal to
    h * w_k * (lumped step gradient + multiplier combination) at node k,
    exactly the optimality system the inner solver drives to zero
    tangentially.
    """
    density = grad + layout.fields(mult @ layout.E, tangents)
    return float(np.max(np.abs(layout.weights * density) / layout.hat_norms))


def minimize_step(prev: NetworkState, cfg: FlowConfig):
    """One implicit time step from ``prev`` at ``cfg.tau``.

    Packs ``prev`` and computes its by-products (see :func:`_step`) from
    one tangents evaluation, where :func:`steps` carries them over from
    the step before.  A step at another tau takes
    ``replace(cfg, tau=...)``, which :class:`FlowConfig` validates.

    Returns (new state, StepReport), the report's ``step_index`` being -1.
    Raises ValueError when ``prev`` and ``cfg`` disagree on p,
    FlatnessBlowup when the flatness guard fails at ``prev``,
    InnerSolveFailed from the inner solve (its iteration cap ran out, or
    the step Hessian cannot be factored or its Newton system overflowed),
    and SingularSystem / DegenerateGeometry from the multiplier stage.
    """
    _check_exponent(prev, cfg)
    layout, theta = PackedLayout.of(prev)
    tangents = layout.tangents(theta)
    carried = (layout, tangents, layout.moments(tangents, tangents),
               layout.constraint_values(tangents),
               layout.elastic_energy(theta), layout.oscillations(theta))
    state, report, _ = _step(prev, carried, cfg, cfg.tau, -1)
    return state, report


def _check_exponent(state: NetworkState, cfg: FlowConfig) -> None:
    """Raise ValueError unless ``state`` and ``cfg`` share p."""
    if state.p_exponent != cfg.p_exponent:
        raise ValueError(
            f"state has p={state.p_exponent:g} but config says "
            f"p={cfg.p_exponent:g}"
        )


def _step(prev: NetworkState, carried, cfg: FlowConfig, tau: float,
          index: int):
    """:func:`minimize_step` from ``prev`` and its by-products ``carried``
    = (layout, tangents T, moments of T with T, constraint values c,
    elastic energy, per-curve oscillations), computed where ``prev`` was
    made; the report is numbered ``index``.  The energy is the report's
    ``energy_before`` and the inner solve's starting value, the
    oscillations feed the flatness guard.

    Returns (new state, StepReport, the new state's by-products).  The
    packed values are not carried: packing costs a few microseconds, and
    holding them from one step into the next raised the peak RSS.
    """
    layout, _, _, _, energy_before, oscs_prev = carried
    theta_prev = layout.pack(prev)
    if not _flatness_guard(prev, oscs_prev, cfg.osc_floor):
        raise FlatnessBlowup(
            "flatness guard failed: oscillations "
            f"{np.array2string(oscs_prev, precision=3)} with floor "
            f"{cfg.osc_floor:g} and no strictly-shortest third curve on a "
            "theta network"
        )
    theta, tangents, blocks, c, slopes, cells, iters, termination = (
        _inner_descent(theta_prev, carried, cfg, tau))

    # the report reuses the final iterate's tangents, Gram moments,
    # constraint values and cellwise |D|^p, computed here only when no
    # trial was accepted
    if cells is None:
        cells = layout.cell_energies(slopes)
    del slopes
    move = theta - theta_prev
    move_sq = float(layout.inner(move, move))
    velocity_l1 = float(layout.inner(np.abs(move), 1.0))
    energy_after = float(cells.sum()) / layout.p
    jac, forcing, dets = layout.multiplier_data(theta, blocks, cells)
    # the new state's arrays are allocated once the cells are released,
    # which lowers the peak RSS of a fine mesh
    del cells
    state = prev.with_values(layout.unpack(theta))
    mult = solve_multipliers(jac,
                             forcing + layout.remainders(tangents, move, tau))
    bound_const = bound_constant(dets, state.lengths)
    oscs = layout.oscillations(theta)
    # the next step carries oscs; no caller may write to a report's arrays
    for a in (mult, dets, oscs):
        a.setflags(write=False)
    report = StepReport(
        step_index=index,
        tau=tau,
        energy_before=energy_before,
        energy_after=energy_after,
        penalty_value=move_sq / (2.0 * tau),
        velocity_l2sq=move_sq / tau**2,
        velocity_l1=velocity_l1,
        multipliers=mult,
        mult_bound=multiplier_bound(bound_const, state.p_exponent,
                                    energy_after, velocity_l1, tau),
        bound_const=bound_const,
        constraint_defect=constraint_defect(c),
        dets=dets,
        oscs=oscs,
        # the residual's gradient comes from the public step_gradient, which
        # the benchmark times
        weak_residual_value=_weak_residual(
            layout, tangents, np.concatenate(step_gradient(state, prev, tau)),
            mult),
        inner_iters=iters,
        inner_converged=termination == "gradient_tol",
        termination=termination,
    )
    return state, report, (layout, tangents, blocks, c, energy_after, oscs)


def steps(initial: NetworkState, cfg: FlowConfig):
    """Advance the implicit scheme from ``initial`` to the horizon, one
    accepted step at a time.

    Yields (state, report, t): first the initial state, projected, with
    report None at t = 0, then each accepted step's state, StepReport and
    time, as soon as the step is accepted, so a caller can use a state
    while the next one is computed (the CLI formats it).  Every check on the input runs before the first item: a p that
    differs from ``cfg``'s raises ValueError, the initial state is projected
    onto the constraint set when its defect is at most 1000x the constraint
    tolerance (larger defects are refused), a degenerate initial geometry
    (flatness guard violated) raises DegenerateGeometry, and a non-finite
    initial elastic energy ValueError.  Mid-run guard failures surface as
    FlatnessBlowup; a mid-run error ends the stream after the last state
    yielded.  A step whose inner solve fails is retried at tau/2, at most
    ``MAX_HALVINGS`` times, before it raises InnerSolveFailed; a violated
    a-priori estimate raises EstimateViolation.

    Each step starts from the by-products of the state before it (see
    :func:`_step`) as the step that made it computed them, the first from
    the tangents and constraint values its projection (which returns an
    admissible vector itself) computed.  States and reports are bitwise
    those of :func:`minimize_step` called on each state in turn with the
    step's tau (bar ``step_index``).
    """
    _check_exponent(initial, cfg)
    layout, packed = PackedLayout.of(initial)
    theta, tangents, c = _project(layout, packed, cfg, initial=True)
    if theta is not packed:
        initial = initial.with_values(layout.unpack(theta))
    oscs = layout.oscillations(theta)
    if not _flatness_guard(initial, oscs, cfg.osc_floor):
        raise DegenerateGeometry(
            "initial state fails the flatness guard (oscillations "
            f"{np.array2string(oscs, precision=3)}, floor {cfg.osc_floor:g})"
        )

    # an overflow here is what the check below reports
    with np.errstate(over="ignore"):
        d0 = layout.elastic_energy(theta)
    if not math.isfinite(d0):
        raise ValueError(f"initial elastic energy {d0:g} is not "
                         f"finite at p={cfg.p_exponent:g}")
    # the running a-priori estimates, checked after every accepted step
    eps = 1e-12 * (1.0 + abs(d0))
    horizon = cfg.T + cfg.tau
    lam_total = float(sum(initial.lengths))
    l2_caps = (np.sqrt(layout.curve_sums(theta * theta))
               + math.sqrt(2.0 * horizon * d0))
    dissipation = mult_sq = c_star = 0.0
    carried = (layout, tangents, layout.moments(tangents, tangents), c, d0,
               oscs)
    # held here, the initial arrays would outlive the first step
    del packed, theta, tangents
    state = initial
    index = 0
    t = 0.0
    yield state, None, t
    t_end = cfg.T * (1.0 - 1e-12)
    while t < t_end:
        # after a halved step, the last step shortens to end at T
        over = t + cfg.tau > cfg.T * (1.0 + 1e-12)
        tau = cfg.T - t if over else cfg.tau
        # an inner failure retries at tau/2 from the same by-products
        for _ in range(MAX_HALVINGS + 1):
            try:
                state, report, carried = _step(state, carried, cfg, tau, index)
                break
            except InnerSolveFailed as err:
                last = err
                tau *= 0.5
        else:
            raise InnerSolveFailed(
                f"step failed at all {MAX_HALVINGS + 1} attempts (smallest "
                f"tau {2 * tau:g}): {last}")

        dissipation += report.tau * report.velocity_l2sq
        mult = report.multipliers
        mult_sq += report.tau * float(mult @ mult)
        c_star = max(c_star, report.bound_const)
        budget = (2.0 * c_star**2
                  * max(cfg.p_exponent**2, 2.0 * lam_total)
                  * (horizon * d0 + 1.0) * d0)
        norms = np.sqrt(layout.curve_sums(np.square(layout.pack(state))))
        # (estimate, value, bound, relative slack, absolute slack), in order
        bounds = [
            ("energy monotonicity", report.energy_after + report.penalty_value,
             report.energy_before, 0.0, eps),
            ("dissipation budget", 0.5 * dissipation,
             d0 - report.energy_after, 0.0, (index + 1) * eps),
            ("per-step multiplier bound", multiplier_norm(mult),
             report.mult_bound, 1e-9, 1e-9),
            ("multiplier square budget", mult_sq, budget, 1e-6, 1e-12),
            *((f"L2 growth of curve {j + 1}", norm, cap, 1e-9, 1e-9)
              for j, (norm, cap) in enumerate(zip(norms, l2_caps))),
            ("constraint defect", report.constraint_defect,
             cfg.tol_constraint, 1e-9, 1e-16),
        ]
        for what, got, allowed, rel, slack in bounds:
            if got > allowed * (1.0 + rel) + slack:
                raise EstimateViolation(f"{what} violated at step {index}: "
                                        f"{got:.12e} > {allowed:.12e}")
        t += report.tau
        index += 1
        yield state, report, t


def collect(stream) -> Trajectory:
    """The Trajectory of a stream of :func:`steps` items.  Any exception
    raised after the first item, a ThetaflowError or not, carries the
    partial trajectory in its ``trajectory`` attribute."""
    states = []
    reports = []
    times = []
    try:
        for state, report, t in stream:
            states.append(state)
            if report is not None:
                reports.append(report)
            times.append(t)
    except Exception as err:
        if states:
            err.trajectory = Trajectory(states, reports, times)
        raise
    return Trajectory(states, reports, times)


def run_flow(initial: NetworkState, cfg: FlowConfig) -> Trajectory:
    """Advance the implicit scheme from ``initial`` to the horizon: the
    collected :func:`steps`.

    An error raised before the first step (see :func:`steps`) carries no
    trajectory; any error raised mid-run carries the partial trajectory in
    its ``trajectory`` attribute.
    """
    return collect(steps(initial, cfg))
