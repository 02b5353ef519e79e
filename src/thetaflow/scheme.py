"""Minimizing-movement scheme for the constrained p-elastic flow.

Each time step minimizes the implicit step functional (elastic energy plus
movement penalty) over the four junction constraints, on one packed nodal
vector (:class:`thetaflow.energy.PackedLayout`, one per run: states sharing
grids, offsets and p share it); only the step's result becomes a validated
NetworkState.  The constraint gradients are +-sin theta or +-cos theta on
single curves, so the iteration carries only the (2, M) array T = (sin,
cos) theta of its iterate and takes every 4x4 matrix from per-curve moments
of T.  Each inner iteration takes the constrained Newton direction of the
bordered system [[B, C^T], [C, 0]] (C the constraint gradients), eliminated
by one banded solve with three right-hand sides (gradient, sin theta, cos
theta) and a 4x4 Schur complement.  B is banded and uncoupled across curve
breaks: the step functional's Hessian, and at p >= 2 the Lagrangian's, the
constraint curvature entering as a diagonal weighted by the multiplier
estimate of the tangent projection and clipped to half the movement mass,
which makes the iteration SQP Newton with quadratic convergence; the matrix
only chooses the direction.  Armijo backtracking follows, each trial
projected onto the constraint set by Newton iteration along variation
directions frozen at the trial; the accepted trial's T serves the next
iteration, and the step's report is assembled from the final T, but for the
weak residual, which comes from the public :func:`weak_residual` of the
returned state (its gradient from :func:`thetaflow.energy.step_gradient`,
timed by the benchmark).  The Armijo slope pairs the direction with the
tangential gradient, whose rounding stays small near convergence.  Once the
predicted decrease is below the rounding noise of the functional, a trial
within that noise also passes if it halves the tangential gradient norm.
The iteration stops at ``TOL_INNER``, or at the working-precision floor: a
slope below that noise whose full step passes neither test, since no
shorter step could show a measurable decrease.  Each step reports which
rule ended it (``StepReport.termination``).  Acceptance is monotone in the
step functional, which is what makes the a-priori estimates of
:func:`run_flow` hold by construction:

  * the elastic energy never increases along the flow,
  * half the summed tau * ||velocity||_L2^2 stays below the initial energy,
  * the multipliers of every step obey the explicit bound of
    :func:`thetaflow.multipliers.multiplier_bound` and their summed squares
    stay below an explicit budget in (T, initial energy, lengths, p),
  * nodal L2 norms grow at most like sqrt(2 T E_0).

These are asserted after every accepted step and raise EstimateViolation
(with the partial trajectory attached) if they ever fail.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solveh_banded

from .energy import (
    PackedLayout,
    constraint_defect,
    constraint_vector,
    step_gradient,
)
from .errors import (
    DegenerateGeometry,
    EstimateViolation,
    FlatnessBlowup,
    InnerSolveFailed,
    ProjectionFailed,
    SingularSystem,
    ThetaflowError,
)
from .grids import NetworkState
from .multipliers import (
    COND_CAP,
    bound_constant,
    multiplier_bound,
    multiplier_norm,
    solve_multipliers,
)

__all__ = [
    "FlowConfig",
    "StepReport",
    "Trajectory",
    "project_to_H",
    "minimize_step",
    "run_flow",
    "weak_residual",
]

ARMIJO_C1 = 1e-4       # sufficient-decrease constant of the line search
BACKTRACK = 0.5        # step-length factor per rejected trial
NEWTON_MAX_ITERS = 30  # Newton iterations of one constraint projection
MAX_HALVINGS = 3       # tau halvings before a step is given up
MAX_INNER_ITERS = 5000 # inner iterations before a step retries at tau/2
TOL_INNER = 1e-8       # tangential gradient norm that ends an inner solve


@dataclass(frozen=True)
class FlowConfig(object):
    """Solver parameters.

      * ``p_exponent``: exponent p > 1 of the elastic energy;
      * ``tau``: time step, at most ``T``, and large enough that the square
        of its smallest halving, ``(tau / 2**MAX_HALVINGS)**2``, is not 0;
      * ``T``: time horizon of :func:`run_flow`;
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

    @property
    def duration(self) -> float:
        return float(self.times[-1])


def _flatness_guard(state: NetworkState, osc_floor: float):
    """(guard holds?, per-curve oscillations).

    The guard admits a state when either the structural condition holds (a
    theta network whose third curve is strictly shortest) or at least two
    curves oscillate by ``osc_floor`` or more; both routes keep the Gram
    determinants of curves 1 and 2 away from zero.
    """
    oscs = np.array([f.oscillation() for f in state.fields])
    l1, l2, l3 = state.lengths
    structural = state.is_theta and l3 < min(l1, l2)
    return structural or int(np.sum(oscs >= osc_floor)) >= 2, oscs


def project_to_H(state: NetworkState, cfg: FlowConfig) -> NetworkState:
    """Newton projection onto the constraint set.

    Moves along the four variation directions frozen at the input state; the
    Jacobian of the constraints in those directions starts out equal to the
    multiplier system matrix, so it is invertible whenever that system is.
    An admissible input is returned unchanged (the same object).  Refuses
    inputs with constraint defect above 1 and raises ProjectionFailed when
    Newton stagnates.
    """
    layout, theta = PackedLayout.of(state)
    projected, _ = _project(layout, theta, cfg)
    if projected is theta:
        return state
    return state.with_values(layout.unpack(projected))


def _project(layout: PackedLayout, theta: np.ndarray, cfg: FlowConfig):
    """:func:`project_to_H` on a packed vector: (projected vector, its
    tangents T), the vector being ``theta`` itself if admissible.

    The directions phi = (D E) e are frozen at ``theta`` (tangents T0), so
    the Jacobian at the current point (tangents T) is the products of its
    constraint gradients with them, and a step t moves by
    fields(t (D E), T0).
    """
    tol = cfg.tol_constraint
    frozen = layout.tangents(theta)
    c = layout.constraint_values(frozen)
    defect = constraint_defect(c)
    if defect <= tol:
        return theta, frozen
    if defect > 1.0:
        raise ProjectionFailed(
            f"constraint defect {defect:.3e} too large to project"
        )
    de = layout.D @ layout.E
    t = np.zeros(4)
    tangents = frozen
    for _ in range(NEWTON_MAX_ITERS):
        jac = layout.gradient_products(tangents, frozen, de)
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > COND_CAP:
            raise SingularSystem(
                "projection Jacobian is numerically singular "
                f"(cond {cond:.3e})"
            )
        t = t + np.linalg.solve(jac, -c)
        current = theta + layout.fields(t @ de, frozen)
        tangents = layout.tangents(current)
        c = layout.constraint_values(tangents)
        if constraint_defect(c) <= tol:
            return current, tangents
    raise ProjectionFailed(
        f"Newton projection stagnated at defect {np.max(np.abs(c)):.3e}"
    )


def _tangent_project(layout: PackedLayout, tangents: np.ndarray,
                     grad: np.ndarray):
    """(gp, coef): a nodal gradient minus its components along the
    constraint gradients g = E e (built from ``tangents``) in the lumped L2
    inner product, and the (4,) coefficients coef of those components, the
    least-squares multiplier estimate of grad = sum_k coef_k g_k."""
    e = layout.E
    gram = layout.gradient_products(tangents, tangents, e)
    coef, *_ = np.linalg.lstsq(gram, e @ layout.products(tangents, grad),
                               rcond=None)
    return grad - layout.fields(coef @ e, tangents), coef


def _hessian_bands(layout: PackedLayout, theta: np.ndarray, tau: float,
                   tangents=None, coef=None) -> np.ndarray:
    """Symmetric banded (upper form) Newton matrix of one inner iteration:
    the Hessian B of the step functional, movement mass W / tau plus the
    elastic cell weights (p - 1) |D|^(p-2) / h of the slopes D, and at
    p >= 2, given the multiplier estimate ``coef``, the constraint
    curvature of the Lagrangian.

    The constraints are lumped integrals of +-sin or +-cos, so their
    Euclidean Hessians are diagonal, W g_k' with g_k' = d g_k / d theta,
    and the Lagrangian Hessian is B - diag(W sum_k coef_k g_k'), the sum
    being fields(coef E, (cos, -sin) theta).  That term is clipped to half
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
    mag = np.abs(layout.slopes(theta))
    if p < 2.0:
        mag = np.maximum(mag, 1e-8)
    om = (p - 1.0) * mag ** (p - 2.0) * layout.inv_h
    ab = np.zeros((2, theta.shape[0]))
    ab[1, :-1] += om
    ab[1, 1:] += om
    ab[0, 1:] = -om
    ab[1] += layout.weights / tau
    if p >= 2.0 and coef is not None:
        slope = np.stack([tangents[1], -tangents[0]])  # d T / d theta
        curvature = layout.fields(coef @ layout.E, slope)
        ab[1] -= layout.weights * np.clip(curvature, -0.5 / tau, 0.5 / tau)
    return ab


def _newton_direction(layout: PackedLayout, theta: np.ndarray,
                      tangents: np.ndarray, grad: np.ndarray,
                      tau: float, coef) -> np.ndarray:
    """Constrained Newton direction from the bordered system

        [ B   C^T ] [ d ]   [ e ]
        [ C    0  ] [ y ] = [ 0 ]

    with B the banded matrix of :func:`_hessian_bands` (at p >= 2 the
    Lagrangian Hessian at the multiplier estimate ``coef``, else the step
    functional's), e the Euclidean gradient and C the Euclidean constraint
    gradients (W g, W the trapezoid weights), eliminated through B and a
    4x4 Schur complement.  B does not couple curves, so
    B^-1 W (sigma T_a) = sigma B^-1 W T_a for per-curve factors sigma:
    one banded solve with the three right-hand sides
    W (grad, sin theta, cos theta) gives d0 = B^-1 W grad and U =
    B^-1 W T, the Schur complement is E @ blockdiag(<T_a, U_a'>) @ E^T and
    B^-1 C^T y = fields(y E, U).  Its fixed point d = 0 is exactly the
    constrained first-order condition: the gradient lies in the span of the
    constraint gradients.
    """
    rhs = np.vstack([grad, tangents])
    rhs *= layout.weights
    try:
        sol = solveh_banded(_hessian_bands(layout, theta, tau, tangents, coef),
                            rhs.T, overwrite_ab=True, overwrite_b=True)
    except np.linalg.LinAlgError as err:
        # rounding can cost Cholesky the definiteness when the elastic
        # weights dwarf the mass term; the caller retries at tau/2
        raise InnerSolveFailed(f"step Hessian cannot be factored at "
                               f"tau={tau:g}: {err}") from err
    d0, u = sol[:, 0], sol[:, 1:].T
    e = layout.E
    schur = layout.gradient_products(tangents, u, e)
    y, *_ = np.linalg.lstsq(schur, e @ layout.products(tangents, d0),
                            rcond=None)
    return d0 - layout.fields(y @ e, u)


def _inner_descent(layout: PackedLayout, theta_prev: np.ndarray,
                   cfg: FlowConfig, tau: float):
    """Monotone descent for one implicit step, on packed vectors.

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
    iteration reach gradient tolerances far below sqrt(eps * energy).  If
    the slope itself is below that resolution and the full step passes
    neither test, no backtracked trial could show a measurable decrease, so
    the iteration stops at once.  The tangents T of the accepted trial,
    computed to test its constraints, serve the next iteration.

    Returns (theta, tangents, inner_iters, termination), termination being
    one of the four kinds that :class:`StepReport` documents:

      * ``"gradient_tol"``: the projected gradient norm reached
        ``TOL_INNER``;
      * ``"precision_floor"``: the rule above (iterate kept);
      * ``"stall_window"``: a backstop, 16 accepted iterates that together
        lowered the functional by no more than rounding (iterate kept);
      * ``"line_search_floor"``: no acceptable trial down to step length
        1e-14 (iterate kept).

    Running out of ``MAX_INNER_ITERS`` iterations raises InnerSolveFailed.
    """
    theta = theta_prev
    tangents = layout.tangents(theta)
    energy = layout.step_energy(theta, theta_prev, tau)
    noise = 32.0 * np.finfo(float).eps * (1.0 + abs(energy))
    window = 16
    history = [energy]
    for it in range(MAX_INNER_ITERS):
        grad = layout.step_gradient(theta, theta_prev, tau)
        gp, coef = _tangent_project(layout, tangents, grad)
        gp_sq = float(layout.inner(gp, gp))
        if math.sqrt(gp_sq) <= TOL_INNER:
            return theta, tangents, it, "gradient_tol"
        if len(history) > window and history[-window - 1] - energy <= window * noise:
            return theta, tangents, it, "stall_window"
        d = _newton_direction(layout, theta, tangents, grad, tau, coef)
        slope = float(layout.inner(gp, d))
        if not np.isfinite(slope) or slope <= 0.0:
            d, slope = gp, gp_sq
        alpha = 1.0
        accepted = None
        while alpha >= 1e-14:
            try:
                trial, trial_tangents = _project(layout, theta - alpha * d, cfg)
            except (ProjectionFailed, SingularSystem):
                pass
            else:
                # |slope|^p may overflow at large p; an infinite trial
                # energy fails both acceptance tests below
                with np.errstate(over="ignore"):
                    trial_energy = layout.step_energy(trial, theta_prev, tau)
                if trial_energy <= energy - ARMIJO_C1 * alpha * slope:
                    accepted = (trial, trial_tangents, trial_energy)
                    break
                if ARMIJO_C1 * alpha * slope <= noise and trial_energy <= energy + noise:
                    gp_t, _ = _tangent_project(
                        layout, trial_tangents,
                        layout.step_gradient(trial, theta_prev, tau))
                    if layout.inner(gp_t, gp_t) <= 0.25 * gp_sq:
                        accepted = (trial, trial_tangents, trial_energy)
                        break
            if slope <= noise:
                return theta, tangents, it, "precision_floor"
            alpha *= BACKTRACK
        if accepted is None:
            return theta, tangents, it, "line_search_floor"
        theta, tangents, energy = accepted
        history.append(energy)
    raise InnerSolveFailed(f"inner solver hit the {MAX_INNER_ITERS}-iteration "
                           f"cap at tau={tau:g}")


def weak_residual(candidate: NetworkState, prev: NetworkState,
                  tau: float, mult: np.ndarray) -> float:
    """Max over hat test functions of |weak form| / ||hat||_H1 for the step
    from ``prev`` to ``candidate`` with multipliers ``mult``.

    The weak form of the time-discrete equation pairs the velocity and the
    multiplier terms with the trapezoid rule and the elastic flux with the
    cellwise midpoint rule, which makes the hat-function value equal to
    h * w_k * (lumped step gradient + multiplier combination) at node k,
    exactly the optimality system the inner solver drives to zero
    tangentially.
    """
    layout, theta = PackedLayout.of(candidate)
    density = (np.concatenate(step_gradient(candidate, prev, tau))
               + layout.fields(mult @ layout.E, layout.tangents(theta)))
    return float(np.max(np.abs(layout.weights * density) / layout.hat_norms))


def minimize_step(prev: NetworkState, cfg: FlowConfig, tau=None):
    """One implicit time step from ``prev``.

    Returns (new state, StepReport).  Raises FlatnessBlowup when the
    flatness guard fails at ``prev``, InnerSolveFailed from the inner solve
    (its iteration cap ran out, or the step Hessian cannot be factored), and
    SingularSystem / DegenerateGeometry from the multiplier stage.
    """
    if tau is None:
        tau = cfg.tau
    ok, oscs = _flatness_guard(prev, cfg.osc_floor)
    if not ok:
        raise FlatnessBlowup(
            "flatness guard failed: oscillations "
            f"{np.array2string(oscs, precision=3)} with floor {cfg.osc_floor:g} "
            "and no strictly-shortest third curve on a theta network"
        )
    layout, theta_prev = PackedLayout.of(prev)
    theta, tangents, iters, termination = _inner_descent(layout, theta_prev,
                                                         cfg, tau)

    # the report reuses the layout and the tangents of the final iterate
    state = prev.with_values(layout.unpack(theta))
    move = theta - theta_prev
    move_sq = float(layout.inner(move, move))
    velocity_l1 = float(layout.inner(np.abs(move), 1.0))
    data = layout.multiplier_data(theta, tangents)
    mult = solve_multipliers(data, layout.remainders(tangents, move, tau))
    energy_after = layout.elastic_energy(theta)
    bound_const = bound_constant(data, state)
    report = StepReport(
        step_index=-1,
        tau=tau,
        energy_before=layout.elastic_energy(theta_prev),
        energy_after=energy_after,
        penalty_value=move_sq / (2.0 * tau),
        velocity_l2sq=move_sq / tau**2,
        velocity_l1=velocity_l1,
        multipliers=mult,
        mult_bound=multiplier_bound(bound_const, state.p_exponent,
                                    energy_after, velocity_l1, tau),
        bound_const=bound_const,
        constraint_defect=constraint_defect(
            layout.constraint_values(tangents)),
        dets=data.dets,
        oscs=np.array([f.oscillation() for f in state.fields]),
        weak_residual_value=weak_residual(state, prev, tau, mult),
        inner_iters=iters,
        inner_converged=termination == "gradient_tol",
        termination=termination,
    )
    return state, report


def _attempt_step(prev: NetworkState, cfg: FlowConfig, tau: float):
    """minimize_step with time-step rejection: halve tau on inner failure."""
    last = None
    for _ in range(MAX_HALVINGS + 1):
        try:
            return minimize_step(prev, cfg, tau)
        except InnerSolveFailed as err:
            last = err
            tau *= 0.5
    raise InnerSolveFailed(
        f"step rejected {MAX_HALVINGS} times (final tau {2 * tau:g}): {last}"
    )


class _EstimateLedger(object):
    """Running a-priori estimates checked after every accepted step."""

    def __init__(self, initial: NetworkState, cfg: FlowConfig):
        self.cfg = cfg
        # the grids are fixed for the whole run
        self.layout, theta = PackedLayout.of(initial)
        # an overflow here is what run_flow reports as a non-finite energy
        with np.errstate(over="ignore"):
            self.d0 = self.layout.elastic_energy(theta)
        self.lam_total = float(sum(initial.lengths))
        self.l2_initial = np.sqrt(self.layout.curve_sums(theta * theta))
        self.dissipation = 0.0
        self.mult_sq = 0.0
        self.c_star = 0.0
        self.steps = 0

    def check(self, state: NetworkState, report: StepReport):
        cfg = self.cfg
        eps = 1e-12 * (1.0 + abs(self.d0))
        self.steps += 1
        self.dissipation += report.tau * report.velocity_l2sq
        mult = report.multipliers
        self.mult_sq += report.tau * float(mult @ mult)
        self.c_star = max(self.c_star, report.bound_const)

        if report.energy_after + report.penalty_value > report.energy_before + eps:
            self._fail(
                "energy monotonicity",
                report.energy_after + report.penalty_value,
                report.energy_before,
            )
        if 0.5 * self.dissipation > self.d0 - report.energy_after + self.steps * eps:
            self._fail("dissipation budget", 0.5 * self.dissipation,
                       self.d0 - report.energy_after)
        norm = multiplier_norm(mult)
        if norm > report.mult_bound * (1.0 + 1e-9) + 1e-9:
            self._fail("per-step multiplier bound", norm, report.mult_bound)
        horizon = cfg.T + cfg.tau
        budget = (2.0 * self.c_star**2
                  * max(cfg.p_exponent**2, 2.0 * self.lam_total)
                  * (horizon * self.d0 + 1.0) * self.d0)
        if self.mult_sq > budget * (1.0 + 1e-6) + 1e-12:
            self._fail("multiplier square budget", self.mult_sq, budget)
        growth = math.sqrt(2.0 * horizon * self.d0)
        theta = self.layout.pack(state)
        norms = np.sqrt(self.layout.curve_sums(theta * theta))
        for j, norm in enumerate(norms):
            cap = self.l2_initial[j] + growth
            if norm > cap * (1.0 + 1e-9) + 1e-9:
                self._fail(f"L2 growth of curve {j + 1}", norm, cap)
        if report.constraint_defect > cfg.tol_constraint * (1.0 + 1e-9) + 1e-16:
            self._fail("constraint defect", report.constraint_defect,
                       cfg.tol_constraint)

    def _fail(self, what, got, allowed):
        raise EstimateViolation(
            f"{what} violated at step {self.steps - 1}: "
            f"{got:.12e} > {allowed:.12e}"
        )


def run_flow(initial: NetworkState, cfg: FlowConfig) -> Trajectory:
    """Advance the implicit scheme from ``initial`` to the horizon.

    The initial state is projected onto the constraint set when its defect
    is at most 1000x the constraint tolerance (larger defects are refused).
    A degenerate initial geometry (flatness guard violated) raises
    DegenerateGeometry, and a non-finite initial elastic energy ValueError,
    before any stepping; mid-run guard failures surface as FlatnessBlowup.
    Any error raised mid-run carries the partial trajectory in its
    ``trajectory`` attribute.
    """
    if initial.p_exponent != cfg.p_exponent:
        raise ValueError(
            f"state has p={initial.p_exponent:g} but config says "
            f"p={cfg.p_exponent:g}"
        )
    defect = constraint_defect(constraint_vector(initial))
    if defect > cfg.tol_constraint:
        if defect > 1e3 * cfg.tol_constraint:
            raise ProjectionFailed(
                f"initial constraint defect {defect:.3e} exceeds "
                f"1000x the constraint tolerance"
            )
        initial = project_to_H(initial, cfg)
    ok, oscs = _flatness_guard(initial, cfg.osc_floor)
    if not ok:
        raise DegenerateGeometry(
            "initial state fails the flatness guard (oscillations "
            f"{np.array2string(oscs, precision=3)}, floor {cfg.osc_floor:g})"
        )

    ledger = _EstimateLedger(initial, cfg)
    if not math.isfinite(ledger.d0):
        raise ValueError(f"initial elastic energy {ledger.d0:g} is not "
                         f"finite at p={cfg.p_exponent:g}")
    states = [initial]
    reports = []
    times = [0.0]
    t = 0.0
    t_end = cfg.T * (1.0 - 1e-12)
    try:
        while t < t_end:
            # after a halved step, the last step shortens to end at T
            over = t + cfg.tau > cfg.T * (1.0 + 1e-12)
            tau = cfg.T - t if over else cfg.tau
            state, report = _attempt_step(states[-1], cfg, tau)
            report = replace(report, step_index=len(reports))
            ledger.check(state, report)
            t += report.tau
            states.append(state)
            reports.append(report)
            times.append(t)
    except ThetaflowError as err:
        err.trajectory = Trajectory(states, reports, times)
        raise
    return Trajectory(states, reports, times)
