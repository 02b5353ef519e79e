import itertools
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow import (
    AngleField,
    DegenerateGeometry,
    EstimateViolation,
    FlatnessBlowup,
    FlowConfig,
    Grid,
    InnerSolveFailed,
    NetworkState,
    ProjectionFailed,
    SingularSystem,
    Trajectory,
    p_energy,
    run_flow,
)
from scipy.linalg import solveh_banded

from thetaflow import multipliers, scheme
from thetaflow.energy import (
    PackedLayout,
    assemble_multiplier_data,
    constraint_defect,
    constraint_gradients,
    constraint_vector,
    step_gradient,
)
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
)

from helpers import make_state
from oracles import (
    curve_sums_constraint_values,
    curve_sums_moments,
    curve_sums_products,
    packed_constraint_gradients,
    packed_weights,
    random_angle_field_values,
    rows_newton_direction,
    rows_projection_jacobian,
    rows_tangent_project,
    vstack_newton_rhs,
    weak_residual,
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
    bad = [dict(tau=np.nan), dict(tau=-1e-3), dict(tau=np.inf),
           dict(p_exponent=np.nan), dict(T=np.inf), dict(tau=1e-200, T=1e-200)]
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


def test_project_raises_singular_system_on_singular_jacobian(rng,
                                                            monkeypatch):
    # sigma_min = 0 exactly must fail the condition cap as SingularSystem,
    # not as LinAlgError or a division warning
    lens = preset_symmetric_lens(nodes_per_unit=40)
    noisy = lens.with_values(tuple(
        v + 0.02 * random_angle_field_values(rng, len(v))
        for v in lens.values()))
    rank_two = np.diag([1.0, 2.0, 0.0, 0.0])[rng.permutation(4)]
    for jac in (np.zeros((4, 4)), rank_two):
        monkeypatch.setattr(PackedLayout, "moment_products",
                            lambda *args, _jac=jac: _jac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="projection Jacobian"):
                project_to_H(noisy, FlowConfig())


def _lstsq_tangent_project(layout, tangents, blocks, grad):
    gram = layout.moment_products(blocks, layout.E)
    coef, *_ = np.linalg.lstsq(
        gram, layout.E @ layout.products(tangents, grad), rcond=None)
    return grad - layout.fields(coef @ layout.E, tangents), coef


def test_tangent_project_falls_back_to_lstsq_on_singular_gram(rng):
    # zero moments on two curves leave a Gram matrix of rank 2, which LU
    # rejects; the least-squares answer is returned instead
    layout, theta = PackedLayout.of(preset_symmetric_lens(nodes_per_unit=20))
    tangents = layout.tangents(theta)
    grad = rng.normal(size=theta.shape)
    for kept in range(3):
        blocks = layout.moments(tangents, tangents)
        blocks[..., [j for j in range(3) if j != kept]] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(layout.moment_products(blocks, layout.E),
                            np.ones(4))
        gp, coef = _tangent_project(layout, tangents, blocks, grad)
        want_gp, want_coef = _lstsq_tangent_project(layout, tangents, blocks,
                                                    grad)
        _assert_rel_close(coef, want_coef)
        _assert_rel_close(gp, want_gp)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       log_scale=st.floats(min_value=-6.0, max_value=6.0))
def test_tangent_project_solve_agrees_with_lstsq(seed, log_scale):
    # per-curve SPD blocks with eigenvalues in [0.1, 10] * scale give a
    # well-conditioned SPD Gram matrix, which LU solves as well as lstsq
    rng = np.random.default_rng(seed)
    layout, theta = PackedLayout.of(preset_symmetric_lens(nodes_per_unit=10))
    tangents = layout.tangents(theta + rng.normal(size=theta.shape))
    grad = rng.normal(size=theta.shape)
    blocks = np.empty((2, 2, 3))
    for j in range(3):
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        blocks[..., j] = (q * rng.uniform(0.1, 10.0, size=2)) @ q.T
    blocks *= 10.0 ** log_scale
    assert np.linalg.cond(layout.moment_products(blocks, layout.E)) < 1e4
    gp, coef = _tangent_project(layout, tangents, blocks, grad)
    want_gp, want_coef = _lstsq_tangent_project(layout, tangents, blocks,
                                                grad)
    _assert_rel_close(coef, want_coef, rel=1e-10)
    _assert_rel_close(gp, want_gp, rel=1e-10)


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
    # minimize_step assembles its report from the final iterate's tangents,
    # the Gram moments of its last tangent projection and its cellwise
    # |D|^p; the public functions recompute everything from the returned
    # states
    lens = preset_symmetric_lens(nodes_per_unit=50)
    cfg = FlowConfig(tau=1e-3)
    state, rep = minimize_step(lens, cfg)
    jac, forcing, dets = assemble_multiplier_data(state)
    x = solve_multipliers(jac,
                          forcing + compute_remainders(state, lens, rep.tau))
    _assert_rel_close(rep.dets, dets)
    _assert_rel_close(rep.multipliers, x)
    _assert_rel_close(rep.weak_residual_value,
                      weak_residual(state, lens, rep.tau, x))
    # the reused pieces are the same arithmetic on the same values, so the
    # weak residual (whose gradient comes from the public step_gradient)
    # equals the public function's bitwise, as do the other fields
    assert rep.weak_residual_value == weak_residual(state, lens, rep.tau,
                                                    rep.multipliers)
    assert rep.dets.tobytes() == dets.tobytes()
    assert rep.multipliers.tobytes() == x.tobytes()
    assert rep.energy_after == p_energy(state)
    assert rep.energy_before == p_energy(lens)


def test_minimize_step_rejects_mismatched_exponent(monkeypatch):
    # rejected with run_flow's message, before the step starts any work
    def no_work(*args):
        raise AssertionError("minimize_step started the step")

    monkeypatch.setattr(scheme, "_step", no_work)
    lens = preset_symmetric_lens(nodes_per_unit=20)
    with pytest.raises(ValueError, match="state has p=2 but config says p=3"):
        minimize_step(lens, FlowConfig(p_exponent=3.0, tau=1e-2))


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
    # passes: one projected trial per direction, plus the projection of
    # the initial state, through which run_flow enters the first step.
    calls = {"_project": 0, "_newton_direction": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(scheme, name),
                    **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(scheme, name, counted)
    lens = preset_symmetric_lens(nodes_per_unit=40, p=p)
    traj = run_flow(lens, FlowConfig(p_exponent=p, tau=1e-3, T=0.02))
    assert len(traj.reports) == 20
    assert all(r.termination == "gradient_tol" for r in traj.reports)
    assert calls["_project"] == calls["_newton_direction"] + 1
    assert calls["_newton_direction"] == sum(r.inner_iters for r in traj.reports)


@pytest.mark.parametrize("p, T, projections, terminations", [
    # step 2 tries all 47 step lengths, 1 ... 2^-46, and takes none
    (50.0, 0.02, [66, 47], [(8, "line_search_floor"),
                             (0, "line_search_floor")]),
    # every step ends on a failed trial at a slope below the noise
    (1.5, 0.05, [17, 9, 41, 23, 47], [(10, "precision_floor"),
                                      (7, "precision_floor"),
                                      (16, "precision_floor"),
                                      (10, "precision_floor"),
                                      (18, "precision_floor")]),
])
def test_line_search_trial_budget(p, T, projections, terminations,
                                  monkeypatch):
    # one projection per line-search trial: the counts per step pin the
    # budget of 47 step lengths and where a failed trial ends the search
    counts = []
    project, step = scheme._project, scheme._step

    def projecting(*args, **kwargs):
        counts[-1] += 1
        return project(*args, **kwargs)

    def stepping(*args):
        counts.append(0)
        return step(*args)

    lens = preset_symmetric_lens(nodes_per_unit=20, p=p)
    cfg = FlowConfig(p_exponent=p, tau=1e-2, T=T)
    monkeypatch.setattr(scheme, "_project", projecting)
    monkeypatch.setattr(scheme, "_step", stepping)
    counts.append(0)  # the initial projection in steps
    traj = run_flow(lens, cfg)
    assert counts == [1, *projections]
    assert [(r.inner_iters, r.termination)
            for r in traj.reports] == terminations


def test_run_flow_computes_each_by_product_once(monkeypatch):
    # run_flow evaluates the initial state's energy and oscillations once;
    # each step then computes its iterate's oscillations once, takes its
    # energy from the cell energies of the multiplier data, and hands both
    # to the next step
    calls = {"oscillations": 0, "elastic_energy": 0}
    for name in calls:
        def counted(self, theta, _name=name,
                    _inner=getattr(PackedLayout, name)):
            calls[_name] += 1
            return _inner(self, theta)
        monkeypatch.setattr(PackedLayout, name, counted)
    lens = preset_symmetric_lens(nodes_per_unit=40, p=2.0)
    traj = run_flow(lens, FlowConfig(p_exponent=2.0, tau=1e-3, T=0.02))
    assert len(traj.reports) == 20
    assert calls == {"oscillations": 21, "elastic_energy": 1}


def _count_kernel_calls(monkeypatch, npu, tau, T):
    """run_flow on the p=2 lens, counting least-squares solves
    (scheme._lstsq), np.linalg.cond calls and constraint evaluations outside
    _project; np.linalg.solve, svd and lstsq fail the run if reached."""
    calls = {"lstsq": 0, "cond": 0, "outside": 0}
    inside = []

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    def unreachable(*args, **kwargs):
        raise AssertionError("the flow called numpy.linalg")

    monkeypatch.setattr(scheme, "_lstsq", counted("lstsq", scheme._lstsq))
    monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))
    for name in ("solve", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, unreachable)
    project, values = scheme._project, PackedLayout.constraint_values

    def projecting(*args, **kwargs):
        inside.append(True)
        try:
            return project(*args, **kwargs)
        finally:
            inside.pop()

    def constraint_values(self, tangents):
        calls["outside"] += not inside
        return values(self, tangents)

    monkeypatch.setattr(scheme, "_project", projecting)
    monkeypatch.setattr(PackedLayout, "constraint_values", constraint_values)
    lens = preset_symmetric_lens(nodes_per_unit=npu, p=2.0)
    return run_flow(lens, FlowConfig(p_exponent=2.0, tau=tau, T=T)), calls


def test_run_flow_kernel_call_budget(monkeypatch):
    # per inner iteration one least-squares solve (the Schur complement of
    # the Newton direction), no np.linalg.cond (the projection's SVD gives
    # its condition), and no constraint evaluation outside the projection,
    # which also makes run_flow's initial defect check: the report takes
    # the trial's values
    traj, calls = _count_kernel_calls(monkeypatch, 40, 1e-3, 0.02)
    iters = sum(r.inner_iters for r in traj.reports)
    assert len(traj.reports) == 20 and iters >= 20
    assert 0 < calls["lstsq"] <= iters
    assert calls["cond"] == 0
    assert calls["outside"] == 0


def test_run_flow_computes_each_points_slopes_once(monkeypatch):
    # Each point computes its slopes once: every step's start point, every
    # trial point (whose cells give its energy and, once accepted, the
    # report's forcing) and the report's public step gradient, plus the
    # initial energy.  The lumped products read each point's W T, so
    # curve_sums serves only the estimate ledger: the initial L2 caps and
    # one norm check per step, none of them inside a step.
    calls = {"slopes": 0, "cell_energies": 0, "curve_sums": 0,
             "in_step": 0, "_project": 0}
    inside = []
    for name in ("slopes", "cell_energies", "curve_sums"):
        def counted(self, a, _name=name, _inner=getattr(PackedLayout, name)):
            calls[_name] += 1
            calls["in_step"] += _name == "curve_sums" and bool(inside)
            return _inner(self, a)
        monkeypatch.setattr(PackedLayout, name, counted)
    project, step = scheme._project, scheme._step

    def projecting(*args, **kwargs):
        calls["_project"] += 1
        return project(*args, **kwargs)

    def stepping(*args):
        inside.append(True)
        try:
            return step(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(scheme, "_project", projecting)
    monkeypatch.setattr(scheme, "_step", stepping)
    lens = preset_symmetric_lens(nodes_per_unit=40, p=2.0)
    traj = run_flow(lens, FlowConfig(p_exponent=2.0, tau=1e-3, T=0.02))
    steps = len(traj.reports)
    # every trial is projected; the first projection is the initial state's
    trials = calls["_project"] - 1
    assert (steps, trials) == (20, 40)
    assert calls["slopes"] == 1 + 2 * steps + trials == 81
    assert calls["cell_energies"] == 1 + trials == 41
    assert calls["curve_sums"] == 1 + steps == 21
    assert calls["in_step"] == 0


def test_idle_steps_evaluate_no_constraints(monkeypatch):
    # a step whose inner solve accepts no trial reports the constraint
    # values its input carried in; on this run most steps are such steps
    traj, calls = _count_kernel_calls(monkeypatch, 20, 1e-2, 2.0)
    assert len(traj.reports) == 200
    assert sum(r.inner_iters == 0 for r in traj.reports) >= 50
    assert calls["outside"] == 0


def test_step_report_arrays_are_read_only():
    # a report's oscillations are also what the next step's guard reads
    lens = preset_symmetric_lens(nodes_per_unit=20)
    traj = run_flow(lens, FlowConfig(tau=1e-2, T=2e-2))
    rep = traj.reports[-1]
    for a in (rep.multipliers, rep.dets, rep.oscs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _fields_bytes(report):
    """Every StepReport field but step_index, as comparable bytes."""
    return {name: np.asarray(value).tobytes() + str(type(value)).encode()
            for name, value in vars(report).items() if name != "step_index"}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_run_flow_equals_minimize_step_from_each_state(p, monkeypatch):
    # run_flow carries each step's by-products into the next step; stepping
    # the public minimize_step by hand from every state of its trajectory,
    # which computes them afresh, must give the same bits, also for the
    # step retried at tau/2 and for the shortened last step
    inner = scheme._step
    calls = []

    def second_call_fails(prev, carried, cfg, tau, index):
        calls.append(tau)
        if len(calls) == 2:
            raise InnerSolveFailed("forced rejection")
        return inner(prev, carried, cfg, tau, index)

    monkeypatch.setattr(scheme, "_step", second_call_fails)
    lens = preset_symmetric_lens(nodes_per_unit=20, p=p)
    cfg = FlowConfig(p_exponent=p, tau=1e-2, T=4e-2)
    traj = run_flow(lens, cfg)
    monkeypatch.undo()
    assert calls[1:3] == [1e-2, 5e-3]
    assert [r.tau for r in traj.reports] == pytest.approx(
        [1e-2, 5e-3, 1e-2, 1e-2, 5e-3], rel=1e-12)
    for i, rep in enumerate(traj.reports):
        assert rep.step_index == i
        state, expect = minimize_step(traj.states[i],
                                      replace(cfg, tau=rep.tau))
        assert expect.step_index == -1
        assert _fields_bytes(rep) == _fields_bytes(expect)
        for got, want in zip(traj.states[i + 1].values(), state.values()):
            assert got.tobytes() == want.tobytes()


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
    assert traj.times[-1] == pytest.approx(5e-3)
    assert traj.final_state is traj.states[-1]
    energies = [p_energy(s) for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    for i, rep in enumerate(traj.reports):
        assert rep.step_index == i
        assert rep.tau == pytest.approx(1e-3)


def test_steps_yields_the_initial_state_then_each_step():
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig(tau=1e-3, T=3e-3)
    traj = run_flow(lens, cfg)
    items = list(scheme.steps(lens, cfg))
    assert [t for *_, t in items] == traj.times.tolist()
    assert items[0][1] is None
    for (state, report, _), s, r in zip(items, traj.states,
                                        (None, *traj.reports)):
        assert all(np.array_equal(a, b)
                   for a, b in zip(state.values(), s.values()))
        if r is not None:
            assert (report.step_index, report.energy_after) == (
                r.step_index, r.energy_after)


def test_run_flow_rejects_mismatched_exponent():
    lens = preset_symmetric_lens(nodes_per_unit=40, p=2.0)
    with pytest.raises(ValueError, match="state has p=2 but config says p=3"):
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
    with pytest.raises(ProjectionFailed, match="exceeds 1000x the constraint"):
        run_flow(noisy, FlowConfig(tau=1e-3, T=2e-3))


def test_run_flow_guards_degenerate_initial_state():
    m = 9
    fields = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    with pytest.raises(DegenerateGeometry):
        run_flow(NetworkState(fields), FlowConfig(T=1e-3))
    # the stream checks its input before its first item
    with pytest.raises(DegenerateGeometry):
        next(scheme.steps(NetworkState(fields), FlowConfig(T=1e-3)))


def test_failed_run_carries_partial_trajectory(monkeypatch):
    monkeypatch.setattr(scheme, "MAX_INNER_ITERS", 1)
    lens = preset_symmetric_lens(nodes_per_unit=40)
    cfg = FlowConfig(tau=1e-3, T=1e-2)
    with pytest.raises(InnerSolveFailed,
                       match=r"^step failed at all 4 attempts "
                             r"\(smallest tau 0\.000125\): ") as err:
        run_flow(lens, cfg)
    traj = err.value.trajectory
    assert isinstance(traj, Trajectory)
    assert len(traj.states) == 1
    assert traj.states[0] is lens


@pytest.mark.parametrize("p, amplitude", [(1100.0, 0.0), (1000.0, 0.05)])
def test_overflowing_newton_system_fails_the_step(p, amplitude):
    # at these p the lens's Newton weights (p-1)|D|^(p-2)/h overflow, and
    # the perturbed lens's gradient too: the solve refuses the non-finite
    # system at every tau halving, a failed step with no warning
    state = preset_perturbed(preset_symmetric_lens(nodes_per_unit=20, p=p),
                             amplitude, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InnerSolveFailed, match="not finite") as err:
            run_flow(state, FlowConfig(p_exponent=p, tau=1e-2, T=0.02))
    assert len(err.value.trajectory.states) == 1


def _random_bands(rng, n, breaks):
    """Seeded SPD tridiagonal (d, e), diagonally dominant, with zero
    off-diagonals at the curve breaks ``breaks`` as in the Newton band."""
    off = rng.normal(size=n)
    off[0] = 0.0
    off[list(breaks)] = 0.0
    diag = (np.abs(off) + np.abs(np.append(off[1:], 0.0))
            + rng.uniform(0.1, 2.0, size=n))
    return diag, off[1:]


def _upper_band(d, e):
    """The two-row upper band form of (d, e) that scipy's solveh_banded
    takes."""
    return np.vstack([np.append(0.0, e), d])


def test_dptsv_solve_equals_scipy_solveh_banded(rng):
    # scheme.solveh_banded calls the LAPACK routine that scipy's
    # solveh_banded calls for a two-row band, so the results are bitwise
    # equal; right-hand sides come as rhs.T, the layout _newton_direction
    # passes
    for n, breaks in ((3, ()), (61, (20, 41)), (701, (200, 401))):
        d, e = _random_bands(rng, n, breaks)
        for nrhs in (1, 3):
            rhs = rng.normal(size=(nrhs, n))
            expect = solveh_banded(_upper_band(d, e), rhs.T)
            got = scheme.solveh_banded(d.copy(), e.copy(), rhs.copy().T)
            assert got.shape == (n, nrhs)
            assert np.array_equal(got, expect)


def test_dptsv_solve_refuses_indefinite_and_non_finite_bands(rng):
    # the same leading-minor index as scipy, and LinAlgError, which
    # _newton_direction turns into InnerSolveFailed, for a non-finite input
    d, e = _random_bands(rng, 61, (20, 41))
    rhs = rng.normal(size=(3, 61))
    for k in (0, 30, 60):
        bad = d.copy()
        bad[k] = -1.0
        with pytest.raises(np.linalg.LinAlgError) as want:
            solveh_banded(_upper_band(bad, e), rhs.T)
        with pytest.raises(np.linalg.LinAlgError) as got:
            scheme.solveh_banded(bad.copy(), e.copy(), rhs.copy().T)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{k + 1}th leading minor")
    for value in (np.nan, np.inf, -np.inf):
        bad_d, bad_e, bad_rhs = d.copy(), e.copy(), rhs.copy()
        bad_d[9] = value
        bad_e[4] = value
        bad_rhs[2, 7] = value
        for a, b, c in ((bad_d, e, rhs), (d, bad_e, rhs), (d, e, bad_rhs)):
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                scheme.solveh_banded(a.copy(), b.copy(), c.copy().T)


def test_missing_lapack_module_raises_import_error_naming_scipy(
        monkeypatch, tmp_path):
    # a scipy installation without its compiled LAPACK wrappers
    monkeypatch.setattr(multipliers, "scipy",
                        SimpleNamespace(__path__=[str(tmp_path)]))
    with pytest.raises(ImportError, match="scipy/linalg/_flapack"):
        multipliers._load_flapack()


def test_run_flow_ends_at_the_horizon_after_a_halved_step(monkeypatch):
    # the first step is retried at tau/2 from the very by-products the
    # rejected attempt got, so the steps from then on end half a step off
    # the grid; the last one shortens to end at T
    inner = scheme._step
    calls = []
    carried_seen = []

    def first_call_fails(prev, carried, cfg, tau, index):
        calls.append(tau)
        carried_seen.append(carried)
        if len(calls) == 1:
            raise InnerSolveFailed("forced rejection")
        return inner(prev, carried, cfg, tau, index)

    monkeypatch.setattr(scheme, "_step", first_call_fails)
    lens = preset_symmetric_lens(nodes_per_unit=40)
    traj = run_flow(lens, FlowConfig(tau=1e-2, T=3e-2))
    assert calls[:2] == [1e-2, 5e-3]
    assert carried_seen[1] is carried_seen[0]
    assert carried_seen[2] is not carried_seen[1]
    assert [r.tau for r in traj.reports] == pytest.approx(
        [5e-3, 1e-2, 1e-2, 5e-3], rel=1e-12)
    assert traj.times == pytest.approx([0.0, 5e-3, 1.5e-2, 2.5e-2, 3e-2],
                                       rel=1e-12)
    assert traj.times[-1] <= 3e-2 * (1.0 + 1e-12)


def _bump_curve_1(state):
    values = list(state.values())
    values[0] = values[0] + 1e3
    return state.with_values(values)


# one doctored (state, report) per a-priori estimate of the run
_DOCTORS = {
    "energy monotonicity":
        lambda s, r: (s, replace(r, energy_after=r.energy_before + 1.0)),
    "dissipation budget":
        lambda s, r: (s, replace(r, velocity_l2sq=1e6)),
    "per-step multiplier bound":
        lambda s, r: (s, replace(r, mult_bound=0.0)),
    "multiplier square budget":
        lambda s, r: (s, replace(r, multipliers=1e6 * r.multipliers,
                                 mult_bound=np.inf)),
    "L2 growth of curve 1":
        lambda s, r: (_bump_curve_1(s), r),
    "constraint defect":
        lambda s, r: (s, replace(r, constraint_defect=1.0)),
}


@pytest.mark.parametrize("estimate", list(_DOCTORS))
def test_estimate_violation_halts_the_run(estimate, monkeypatch):
    # the second step comes back doctored so that one estimate fails; its
    # carried by-products stay those of the undoctored state
    inner = scheme._step
    calls = []

    def second_step_doctored(prev, carried, cfg, tau, index):
        calls.append(tau)
        state, report, carried = inner(prev, carried, cfg, tau, index)
        if len(calls) == 2:
            return _DOCTORS[estimate](state, report) + (carried,)
        return state, report, carried

    monkeypatch.setattr(scheme, "_step", second_step_doctored)
    lens = preset_symmetric_lens(nodes_per_unit=20)
    with pytest.raises(EstimateViolation,
                       match=f"^{estimate} violated at step 1: ") as err:
        run_flow(lens, FlowConfig(tau=1e-2, T=3e-2))
    traj = err.value.trajectory
    assert len(calls) == 2
    assert len(traj.reports) == 1 and len(traj.states) == 2
    assert traj.states[0] is lens
    assert traj.times == pytest.approx([0.0, 1e-2], rel=1e-12)


def _run_with_second_report_doctored(doctor, monkeypatch):
    inner = scheme._step
    calls = []

    def second_step_doctored(prev, carried, cfg, tau, index):
        calls.append(tau)
        state, report, carried = inner(prev, carried, cfg, tau, index)
        if len(calls) == 2:
            return doctor(state, report) + (carried,)
        return state, report, carried

    monkeypatch.setattr(scheme, "_step", second_step_doctored)
    return run_flow(preset_symmetric_lens(nodes_per_unit=20),
                    FlowConfig(tau=1e-2, T=3e-2))


@pytest.mark.parametrize("first, second",
                         list(itertools.combinations(_DOCTORS, 2)))
def test_estimate_violation_names_the_first_bound_in_order(first, second,
                                                           monkeypatch):
    # with two estimates violated, the one checked first is named; the
    # later doctor runs first, so the per-step bound's mult_bound = 0
    # outlives the square budget's mult_bound = inf
    def both(state, report):
        return _DOCTORS[first](*_DOCTORS[second](state, report))

    with pytest.raises(EstimateViolation,
                       match=f"^{first} violated at step 1: "):
        _run_with_second_report_doctored(both, monkeypatch)


@pytest.mark.parametrize("above", [False, True])
def test_constraint_defect_bound_ends_at_its_slack(above, monkeypatch):
    # the bound is tol (1 + 1e-9) + 1e-16, that value included
    edge = FlowConfig().tol_constraint * (1 + 1e-9) + 1e-16
    defect = np.nextafter(edge, np.inf) if above else edge

    def doctor(state, report):
        return state, replace(report, constraint_defect=defect)

    if above:
        with pytest.raises(EstimateViolation,
                           match="^constraint defect violated at step 1: "):
            _run_with_second_report_doctored(doctor, monkeypatch)
    else:
        traj = _run_with_second_report_doctored(doctor, monkeypatch)
        assert len(traj.reports) == 3
        assert traj.reports[1].constraint_defect == edge


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

        gp, _ = _tangent_project(layout, tangents,
                                 layout.moments(tangents, tangents), grad)
        _assert_rel_close(gp, rows_tangent_project(weights, grads, grad))

        moved = theta + 0.1 * rng.normal(size=theta.shape)
        _assert_rel_close(
            layout.moment_products(
                layout.moments(layout.tangents(moved), tangents),
                layout.D @ layout.E),
            rows_projection_jacobian(
                weights, packed_constraint_gradients(layout.unpack(moved)),
                grads))

        # with a zero multiplier estimate, and a random one (Lagrangian bands)
        for coef in (np.zeros(4), rng.normal(size=4)):
            bands = _upper_band(*_hessian_bands(
                layout, layout.slopes(theta), tau, tangents, coef))
            direction, schur = rows_newton_direction(weights, grads, grad,
                                                     bands)
            u = solveh_banded(bands, (tangents * weights).T).T
            _assert_rel_close(
                layout.moment_products(layout.moments(tangents, u), layout.E),
                schur)
            _assert_rel_close(
                _newton_direction(layout, layout.slopes(theta), tangents, grad,
                                  tau, coef),
                direction)


@pytest.mark.parametrize("preset, nodes_per_unit",
                         [("lens", 200), ("lens", 3200), ("triod", 1600)])
def test_weighted_tangent_kernels_equal_curve_sums_bitwise(
        rng, monkeypatch, preset, nodes_per_unit):
    # Each point's tangents carry W T, which the lumped products, moments,
    # constraint values and Newton right-hand sides read instead of
    # weighting T on every call: the same products in the same order, so
    # every sum is bitwise that of the curve_sums kernels.
    if preset == "lens":
        state = preset_symmetric_lens(nodes_per_unit=nodes_per_unit)
    else:
        state = preset_triod(((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                             (1.35, 1.3, 0.95),
                             nodes_per_unit=nodes_per_unit, p=3.0)
    layout, theta = PackedLayout.of(state)
    theta = theta + np.concatenate([random_angle_field_values(rng, len(v))
                                    for v in state.values()])
    weights, starts = layout.weights, layout.starts
    tangents = layout.tangents(theta)
    plain = np.array([np.sin(theta), np.cos(theta)])
    assert np.array_equal(tangents[:2], plain)
    f = rng.normal(size=theta.shape)
    assert np.array_equal(layout.products(tangents, f),
                          curve_sums_products(weights, starts, plain, f))
    other = rng.normal(size=plain.shape)
    for second, second_plain in ((tangents, plain), (other, other)):
        assert np.array_equal(
            layout.moments(tangents, second),
            curve_sums_moments(weights, starts, plain, second_plain))
    assert np.array_equal(
        layout.constraint_values(tangents),
        curve_sums_constraint_values(weights, starts, state.offsets, plain))

    solve, rhs = scheme.solveh_banded, []

    def recording(d, e, b):
        rhs.append(b.T.copy())
        return solve(d, e, b)

    monkeypatch.setattr(scheme, "solveh_banded", recording)
    grad = rng.normal(size=theta.shape)
    _newton_direction(layout, layout.slopes(theta), tangents, grad, 0.05,
                      rng.normal(size=4))
    assert np.array_equal(rhs[0], vstack_newton_rhs(weights, grad, plain))


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
        plain_d, plain_e = _hessian_bands(layout, layout.slopes(theta), tau,
                                          tangents, np.zeros(4))
        d, e = _hessian_bands(layout, layout.slopes(theta), tau, tangents,
                              lam)
        assert np.array_equal(e, plain_e)
        _assert_rel_close(d - plain_d, -curvature, rel=1e-8)


def test_constraint_curvature_is_clipped_and_left_out_below_p2(rng):
    # Clipped at half the movement mass per node, a huge multiplier
    # estimate leaves the matrix positive definite; below p = 2 the
    # estimate does not enter the matrix at all.
    tau = 1e-3
    for state in _oracle_states(rng):
        layout, theta = PackedLayout.of(state)
        tangents = layout.tangents(theta)
        lam = 1e12 * rng.normal(size=4)
        plain_d, _ = _hessian_bands(layout, layout.slopes(theta), tau,
                                    tangents, np.zeros(4))
        d, e = _hessian_bands(layout, layout.slopes(theta), tau, tangents,
                              lam)
        change = np.abs(d - plain_d)
        half_mass = 0.5 * layout.weights / tau
        assert np.all(change <= half_mass + 1e-12 * plain_d)
        assert np.max(change / half_mass) > 0.99
        solveh_banded(_upper_band(d, e), np.ones(theta.shape[0]))

        low = PackedLayout.of(replace(state, p_exponent=1.5))[0]
        plain = _hessian_bands(low, low.slopes(theta), tau, tangents,
                               np.zeros(4))
        for coef in (lam, rng.normal(size=4)):
            for got, want in zip(_hessian_bands(low, low.slopes(theta), tau,
                                                tangents, coef), plain):
                assert np.array_equal(got, want)


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
