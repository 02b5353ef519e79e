import warnings
from dataclasses import replace

import numpy as np
import pytest

from thetaflow import (
    AngleField,
    DegenerateGeometry,
    FlatnessBlowup,
    FlowConfig,
    Grid,
    InnerSolveFailed,
    NetworkState,
    ProjectionFailed,
    Trajectory,
    assemble_multiplier_data,
    constraint_defect,
    constraint_vector,
    p_energy,
    run_flow,
    step_gradient,
)
from scipy.linalg import solveh_banded

from thetaflow import scheme
from thetaflow.energy import PackedLayout, constraint_gradients
from thetaflow.multipliers import (
    compute_remainders,
    multiplier_norm,
    solve_multipliers,
)
from thetaflow.scheme import (
    _hessian_bands,
    _newton_direction,
    _tangent_project,
    minimize_step,
    project_to_H,
    weak_residual,
)

from helpers import make_state
from oracles import (
    packed_constraint_gradients,
    packed_weights,
    random_angle_field_values,
    rows_newton_direction,
    rows_projection_jacobian,
    rows_tangent_project,
)

from thetaflow.app.presets import (
    preset_perturbed,
    preset_symmetric_lens,
    preset_triod,
)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(p_exponent=1.0)
    with pytest.raises(ValueError):
        FlowConfig(tau=0.0)
    with pytest.raises(ValueError):
        FlowConfig(T=-1.0)
    # non-finite and out-of-range values; T=inf would never end run_flow,
    # and the square of tau / 2**MAX_HALVINGS must not underflow to 0
    bad = [dict(tau=np.nan), dict(p_exponent=np.nan), dict(T=np.inf),
           dict(tau=1e-200, T=1e-200)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)
    assert FlowConfig(tau=1e-160, T=1e-160).tau == 1e-160


def test_project_returns_admissible_input_unchanged():
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig()
    assert project_to_H(lens, cfg) is lens


def test_project_restores_perturbed_state(rng):
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig()
    noisy = lens.with_values(tuple(
        v + 0.02 * random_angle_field_values(rng, len(v))
        for v in lens.values()
    ))
    assert constraint_defect(constraint_vector(noisy)) > cfg.tol_constraint
    fixed = project_to_H(noisy, cfg)
    assert constraint_defect(constraint_vector(fixed)) <= cfg.tol_constraint
    # Projection is a small correction, not a jump to a faraway state.
    for a, b in zip(fixed.values(), noisy.values()):
        assert np.max(np.abs(a - b)) < 0.05
    assert project_to_H(fixed, cfg) is fixed


def test_project_refuses_large_defect():
    m = 9
    fields = tuple(AngleField(Grid(L, m), np.zeros(m)) for L in (2.0, 2.0, 0.2))
    s = NetworkState(fields)
    assert constraint_defect(constraint_vector(s)) > 1.0
    with pytest.raises(ProjectionFailed):
        project_to_H(s, FlowConfig())


def test_minimize_step_decreases_energy_and_stays_admissible():
    lens = preset_symmetric_lens(nodes_per_unit=60)
    cfg = FlowConfig(tau=1e-3)
    state, rep = minimize_step(lens, cfg)
    assert rep.energy_before == pytest.approx(p_energy(lens))
    assert rep.energy_after == pytest.approx(p_energy(state))
    assert rep.energy_after + rep.penalty_value <= rep.energy_before + 1e-12
    assert rep.constraint_defect <= cfg.tol_constraint
    assert rep.penalty_value == pytest.approx(0.5 * rep.tau * rep.velocity_l2sq)
    assert rep.inner_converged
    assert rep.termination == "gradient_tol"
    assert multiplier_norm(rep.multipliers) <= rep.mult_bound * (1 + 1e-9)
    assert rep.weak_residual_value < 1e-6


def test_step_report_matches_public_path():
    # minimize_step assembles its report from the final iterate's tangents;
    # the public functions recompute everything from the returned states
    lens = preset_symmetric_lens(nodes_per_unit=50)
    cfg = FlowConfig(tau=1e-3)
    state, rep = minimize_step(lens, cfg)
    data = assemble_multiplier_data(state)
    x = solve_multipliers(data, compute_remainders(state, lens, rep.tau))
    _assert_rel_close(rep.dets, data.dets)
    _assert_rel_close(rep.multipliers, x)
    _assert_rel_close(rep.weak_residual_value,
                      weak_residual(state, lens, rep.tau, x))
    # the report takes its weak residual from the public function itself
    assert rep.weak_residual_value == weak_residual(state, lens, rep.tau,
                                                    rep.multipliers)


def test_minimize_step_flags_stalled_inner_iteration():
    # For p < 2 on a state with a flat curve the flux gradient cannot reach
    # tight tolerances in double precision; the solver stops as soon as the
    # Newton model predicts a decrease below rounding, and reports
    # converged=False rather than failing.
    lens = preset_symmetric_lens(nodes_per_unit=60, p=1.5)
    cfg = FlowConfig(p_exponent=1.5, tau=1e-3)
    state, rep = minimize_step(lens, cfg)
    assert rep.energy_after + rep.penalty_value <= rep.energy_before + 1e-12
    assert rep.constraint_defect <= cfg.tol_constraint
    assert not rep.inner_converged
    assert rep.termination == "precision_floor"
    # fewer iterates than the 16-iterate stall window needs to fill
    assert rep.inner_iters < 16


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_inner_iterations_accept_their_first_trial(p, monkeypatch):
    # Near convergence the full gradient is orders larger than its
    # tangential part; an Armijo slope taken from it loses its sign to
    # rounding and sends the line search into steepest-descent backtracks.
    # With the slope from the tangential gradient every full Newton step
    # passes: one projected trial per direction.
    calls = {"_project": 0, "_newton_direction": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(scheme, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(scheme, name, counted)
    lens = preset_symmetric_lens(nodes_per_unit=40, p=p)
    traj = run_flow(lens, FlowConfig(p_exponent=p, tau=1e-3, T=0.02))
    assert len(traj.reports) == 20
    assert all(r.termination == "gradient_tol" for r in traj.reports)
    assert calls["_project"] == calls["_newton_direction"]
    assert calls["_newton_direction"] == sum(r.inner_iters for r in traj.reports)


def test_large_p_line_search_trials_overflow_silently():
    # At p = 50 a backtracked trial's |slope|^p overflows to inf; that
    # energy fails both acceptance tests and must not warn on the way.
    lens = preset_symmetric_lens(nodes_per_unit=20, p=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = run_flow(lens, FlowConfig(p_exponent=50, tau=1e-2, T=0.02))
    assert len(traj.reports) == 2


def test_minimize_step_raises_on_iteration_cap(monkeypatch):
    monkeypatch.setattr(scheme, "MAX_INNER_ITERS", 1)
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig(tau=1e-3)
    with pytest.raises(InnerSolveFailed, match="1-iteration cap"):
        minimize_step(lens, cfg)


@pytest.mark.parametrize("p, termination", [
    (2.0, "gradient_tol"),
    (1.2, "stall_window"),
    (50.0, "line_search_floor"),
])
def test_every_termination_kind_is_reachable(p, termination):
    # "precision_floor" is pinned by
    # test_minimize_step_flags_stalled_inner_iteration; an exhausted
    # iteration cap raises instead of returning a kind
    lens = preset_symmetric_lens(nodes_per_unit=20, p=p)
    traj = run_flow(lens, FlowConfig(p_exponent=p, tau=1e-2, T=0.02))
    kinds = {"gradient_tol", "precision_floor", "stall_window",
             "line_search_floor"}
    assert len(traj.reports) == 2
    assert all(r.termination in kinds for r in traj.reports)
    assert all(r.termination == termination for r in traj.reports)
    assert all(r.inner_converged == (termination == "gradient_tol")
               for r in traj.reports)


def test_minimize_step_guards_flat_geometry():
    m = 9
    fields = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    s = NetworkState(fields)
    assert constraint_defect(constraint_vector(s)) < 1e-15
    with pytest.raises(FlatnessBlowup):
        minimize_step(s, FlowConfig())


def test_run_flow_bookkeeping():
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig(tau=1e-3, T=5e-3)
    traj = run_flow(lens, cfg)
    assert len(traj.states) == 6
    assert len(traj.reports) == 5
    assert np.allclose(traj.times, np.arange(6) * 1e-3)
    assert traj.duration == pytest.approx(5e-3)
    assert traj.final_state is traj.states[-1]
    energies = [p_energy(s) for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    for i, rep in enumerate(traj.reports):
        assert rep.step_index == i
        assert rep.tau == pytest.approx(1e-3)


def test_run_flow_rejects_mismatched_exponent():
    lens = preset_symmetric_lens(nodes_per_unit=40, p=2.0)
    with pytest.raises(ValueError):
        run_flow(lens, FlowConfig(p_exponent=3.0, T=1e-3))


def test_run_flow_projects_slightly_inadmissible_input(rng):
    lens = preset_symmetric_lens(nodes_per_unit=40)
    noisy = lens.with_values(tuple(
        v + 1e-7 * random_angle_field_values(rng, len(v))
        for v in lens.values()
    ))
    defect = constraint_defect(constraint_vector(noisy))
    cfg = FlowConfig(tau=1e-3, T=2e-3)
    assert defect > cfg.tol_constraint
    assert defect <= 1e3 * cfg.tol_constraint
    traj = run_flow(noisy, cfg)
    assert constraint_defect(constraint_vector(traj.states[0])) <= cfg.tol_constraint


def test_run_flow_refuses_far_from_constraint_set(rng):
    lens = preset_symmetric_lens(nodes_per_unit=40)
    noisy = lens.with_values(tuple(v + 0.1 * rng.normal(size=len(v))
                                   for v in lens.values()))
    if constraint_defect(constraint_vector(noisy)) <= 1e3 * FlowConfig().tol_constraint:
        pytest.skip("random perturbation too tame")
    with pytest.raises(ProjectionFailed):
        run_flow(noisy, FlowConfig(tau=1e-3, T=2e-3))


def test_run_flow_guards_degenerate_initial_state():
    m = 9
    fields = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    with pytest.raises(DegenerateGeometry):
        run_flow(NetworkState(fields), FlowConfig(T=1e-3))


def test_failed_run_carries_partial_trajectory(monkeypatch):
    monkeypatch.setattr(scheme, "MAX_INNER_ITERS", 1)
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig(tau=1e-3, T=1e-2)
    with pytest.raises(InnerSolveFailed) as err:
        run_flow(lens, cfg)
    traj = err.value.trajectory
    assert isinstance(traj, Trajectory)
    assert len(traj.states) == 1
    assert traj.states[0] is lens


def test_run_flow_ends_at_the_horizon_after_a_halved_step(monkeypatch):
    # the first step is retried at tau/2, so the steps from then on end
    # half a step off the grid; the last one shortens to end at T
    inner = scheme.minimize_step
    calls = []

    def first_call_fails(prev, cfg, tau=None):
        calls.append(tau)
        if len(calls) == 1:
            raise InnerSolveFailed("forced rejection")
        return inner(prev, cfg, tau)

    monkeypatch.setattr(scheme, "minimize_step", first_call_fails)
    lens = preset_symmetric_lens(nodes_per_unit=40)
    traj = run_flow(lens, FlowConfig(tau=1e-2, T=3e-2))
    assert calls[:2] == [1e-2, 5e-3]
    assert [r.tau for r in traj.reports] == pytest.approx(
        [5e-3, 1e-2, 1e-2, 5e-3], rel=1e-12)
    assert traj.times == pytest.approx([0.0, 5e-3, 1.5e-2, 2.5e-2, 3e-2],
                                       rel=1e-12)
    assert traj.times[-1] <= 3e-2 * (1.0 + 1e-12)


def test_trajectory_shape_validation():
    s = make_state(np.random.default_rng(0))
    with pytest.raises(ValueError):
        Trajectory(states=(s, s), reports=(), times=np.array([0.0, 1.0]))


def test_weak_residual_vanishes_for_manufactured_step(rng):
    # Choose a candidate and multipliers, then build prev so that the
    # discrete optimality system holds exactly:
    #   (cand - prev)/tau = -(grad E_p + sum_l x_l grad C_l)
    # evaluated at cand.  The weak residual of that pair must vanish to
    # rounding for every hat test function.
    cand = make_state(rng, m=20)
    tau = 1e-2
    x = np.array([0.3, -0.2, 0.1, 0.5])
    elastic = step_gradient(cand, cand, tau)  # zero velocity: elastic part
    grads = constraint_gradients(cand)
    prev_vals = []
    for j in range(3):
        total = elastic[j] + sum(x[l] * grads[l][j] for l in range(4))
        prev_vals.append(cand.values()[j] + tau * total)
    prev = cand.with_values(tuple(prev_vals))
    assert weak_residual(cand, prev, tau, x) < 1e-10


def test_weak_residual_detects_injected_defect(rng):
    cand = make_state(rng, m=20)
    tau = 1e-2
    x = np.array([0.3, -0.2, 0.1, 0.5])
    elastic = step_gradient(cand, cand, tau)
    grads = constraint_gradients(cand)
    prev_vals = []
    for j in range(3):
        total = elastic[j] + sum(x[l] * grads[l][j] for l in range(4))
        prev_vals.append(cand.values()[j] + tau * total)
    # Inject a unit residual at one interior node of curve 1.
    prev_vals[0][7] += tau * 1.0
    prev = cand.with_values(tuple(prev_vals))
    assert weak_residual(cand, prev, tau, x) > 1e-3


def test_weak_residual_of_solved_steps_is_small():
    lens = preset_symmetric_lens(nodes_per_unit=50)
    traj = run_flow(lens, FlowConfig(tau=1e-3, T=3e-3))
    for i, rep in enumerate(traj.reports):
        r = weak_residual(traj.states[i + 1], traj.states[i], rep.tau,
                          rep.multipliers)
        assert r == pytest.approx(rep.weak_residual_value, rel=1e-9)
        assert r < 1e-6


def test_reports_satisfy_global_estimates():
    lens = preset_symmetric_lens(nodes_per_unit=50)
    cfg = FlowConfig(tau=1e-3, T=1e-2)
    traj = run_flow(lens, cfg)
    d0 = p_energy(traj.states[0])
    diss = sum(r.tau * r.velocity_l2sq for r in traj.reports)
    assert 0.5 * diss <= d0 * (1 + 1e-9)
    budget = sum(r.tau * np.dot(r.multipliers, r.multipliers)
                 for r in traj.reports)
    cstar = max(r.bound_const for r in traj.reports)
    lam_total = sum(lens.lengths)
    cap = 2 * cstar**2 * max(cfg.p_exponent**2, 2 * lam_total) \
        * ((cfg.T + cfg.tau) * d0 + 1.0) * d0
    assert budget <= cap * (1 + 1e-6)
    for rep in traj.reports:
        assert multiplier_norm(rep.multipliers) <= rep.mult_bound * (1 + 1e-9)
        assert rep.constraint_defect <= cfg.tol_constraint * (1 + 1e-9)


def test_restart_from_relaxed_state_barely_moves(relaxed_lens):
    traj, cfg = relaxed_lens
    state, rep = minimize_step(traj.final_state, FlowConfig(tau=cfg.tau))
    # Near the critical point one more step produces a tiny velocity.
    assert np.sqrt(rep.velocity_l2sq) < 1e-4
    assert rep.energy_before - rep.energy_after < 1e-8


def test_perturbed_and_clean_flows_reach_the_same_critical_energy(rng):
    # The constant-curvature lens is not itself a discrete critical point
    # (its end slopes are nonzero); the flow relaxes it to a profile with
    # vanishing boundary slopes at a lower energy.  A perturbed start must
    # find the same terminal energy.
    base = preset_symmetric_lens(nodes_per_unit=40)
    noisy = preset_perturbed(base, amplitude=0.03, seed=4)
    cfg = FlowConfig(tau=5e-3, T=1.0)
    clean_final = p_energy(run_flow(base, cfg).final_state)
    noisy_final = p_energy(run_flow(noisy, cfg).final_state)
    assert noisy_final <= p_energy(noisy)
    assert clean_final < p_energy(base)
    assert noisy_final == pytest.approx(clean_final, rel=1e-6)


def _assert_rel_close(got, expect, rel=1e-12):
    assert np.max(np.abs(got - expect)) <= rel * np.max(np.abs(expect))


def _oracle_states(rng):
    """A random network on uneven grids and the CLI's p = 3 triod."""
    triod = preset_triod(((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                         (1.35, 1.3, 0.95), nodes_per_unit=8, p=3.0)
    assert not triod.is_theta
    return make_state(rng, m=(7, 11, 5)), triod


def test_moment_kernel_matches_row_oracles(rng):
    # The solver's tangent projection, projection Jacobian and Schur
    # complement come from per-curve sin/cos moments; the oracles build the
    # (4, M) constraint-gradient rows from their definition instead.
    tau = 0.05
    for state in _oracle_states(rng):
        layout, theta = PackedLayout.of(state)
        weights = packed_weights(state.values(), state.lengths)
        grads = packed_constraint_gradients(state.values())
        tangents = layout.tangents(theta)
        grad = rng.normal(size=theta.shape)

        gp, _ = _tangent_project(layout, tangents, grad)
        _assert_rel_close(gp, rows_tangent_project(weights, grads, grad))

        moved = theta + 0.1 * rng.normal(size=theta.shape)
        _assert_rel_close(
            layout.gradient_products(layout.tangents(moved), tangents,
                                     layout.D @ layout.E),
            rows_projection_jacobian(
                weights, packed_constraint_gradients(layout.unpack(moved)),
                grads))

        # without a multiplier estimate, and with one (Lagrangian bands)
        for coef in (None, rng.normal(size=4)):
            bands = _hessian_bands(layout, theta, tau, tangents, coef)
            direction, schur = rows_newton_direction(weights, grads, grad,
                                                     bands)
            u = solveh_banded(bands, (tangents * weights).T).T
            _assert_rel_close(layout.gradient_products(tangents, u, layout.E),
                              schur)
            _assert_rel_close(
                _newton_direction(layout, theta, tangents, grad, tau, coef),
                direction)


def test_constraint_curvature_matches_finite_differences(rng):
    # At p >= 2 the Newton matrix is the Lagrangian Hessian: the step
    # Hessian minus the lambda-weighted constraint Hessians, which are the
    # diagonal derivatives of the Euclidean constraint-gradient rows W g_k.
    tau, eps = 0.05, 1e-5
    for state in _oracle_states(rng):
        values = tuple(random_angle_field_values(rng, len(v))
                       for v in state.values())
        state = state.with_values(values)
        layout, theta = PackedLayout.of(state)
        tangents = layout.tangents(theta)
        # |sum_k lam_k g_k'| <= 2 sqrt(2) max |lam_k| < 1 / (2 tau): no clip
        lam = rng.uniform(-1.0, 1.0, size=4)
        weights = packed_weights(values, state.lengths)

        def rows(shift):
            shifted = [v + shift for v in values]
            return lam @ (packed_constraint_gradients(shifted) * weights)

        curvature = (rows(eps) - rows(-eps)) / (2.0 * eps)
        plain = _hessian_bands(layout, theta, tau)
        bands = _hessian_bands(layout, theta, tau, tangents, lam)
        assert np.array_equal(bands[0], plain[0])
        _assert_rel_close(bands[1] - plain[1], -curvature, rel=1e-8)


def test_constraint_curvature_is_clipped_and_left_out_below_p2(rng):
    # Clipped at half the movement mass per node, a huge multiplier
    # estimate leaves the matrix positive definite; below p = 2 the
    # estimate does not enter the matrix at all.
    tau = 1e-3
    for state in _oracle_states(rng):
        layout, theta = PackedLayout.of(state)
        tangents = layout.tangents(theta)
        lam = 1e12 * rng.normal(size=4)
        plain = _hessian_bands(layout, theta, tau)
        bands = _hessian_bands(layout, theta, tau, tangents, lam)
        change = np.abs(bands[1] - plain[1])
        half_mass = 0.5 * layout.weights / tau
        assert np.all(change <= half_mass + 1e-12 * plain[1])
        assert np.max(change / half_mass) > 0.99
        solveh_banded(bands, np.ones(theta.shape[0]))

        low = PackedLayout.of(replace(state, p_exponent=1.5))[0]
        plain = _hessian_bands(low, theta, tau)
        for coef in (lam, rng.normal(size=4)):
            assert np.array_equal(
                _hessian_bands(low, theta, tau, tangents, coef), plain)


def test_p_at_least_2_inner_solves_converge_quadratically():
    # Newton on the Lagrangian: from the previous step's state the p = 2
    # lens meets TOL_INNER within two iterations, where the step Hessian
    # alone takes four.
    lens = preset_symmetric_lens(nodes_per_unit=40, p=2.0)
    traj = run_flow(lens, FlowConfig(p_exponent=2.0, tau=1e-3, T=0.02))
    assert len(traj.reports) == 20
    assert all(r.termination == "gradient_tol" and r.inner_iters <= 2
               for r in traj.reports)
    triod = preset_triod(((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                         (1.35, 1.3, 0.95), nodes_per_unit=40, p=3.0)
    traj = run_flow(triod, FlowConfig(p_exponent=3.0, tau=1e-3, T=0.02))
    assert all(r.termination == "gradient_tol" for r in traj.reports)
    assert sum(r.inner_iters for r in traj.reports) <= 60
