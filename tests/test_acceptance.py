"""End-to-end acceptance checks.

Each test pins one advertised guarantee of the solver at its stated
tolerance: the discrete energy estimates, the multiplier bounds, the
determinant identities, gradient/Jacobian consistency, long-time critical
point detection, mesh/step refinement behavior, the failure taxonomy and
frame equivariance.  Run with ``pytest -v tests/test_acceptance.py``; each
criterion reports as its own pass/fail line.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from thetaflow import (
    AngleField,
    FlowConfig,
    Grid,
    NetworkState,
    detect_stationarity,
    p_energy,
    run_flow,
)
from thetaflow.app.emit import save_state
from thetaflow.app.presets import preset_symmetric_lens, preset_triod
from thetaflow.energy import (
    assemble_multiplier_data,
    constraint_defect,
    constraint_vector,
    oscillation_stats,
    step_gradient,
)
from thetaflow.multipliers import (
    multiplier_norm,
    variation_directions,
)

from helpers import solver_det, steep_pair
from oracles import double_sum, fd_step_gradient, random_angle_field_values

P_VALUES = (1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def lens_runs():
    """Lens flows at tau=1e-3, T=0.5, h=1/200, one per exponent."""
    runs = {}
    for p in P_VALUES:
        lens = preset_symmetric_lens(nodes_per_unit=200, p=p)
        cfg = FlowConfig(p_exponent=p, tau=1e-3, T=0.5)
        start = time.perf_counter()
        traj = run_flow(lens, cfg)
        runs[p] = (traj, cfg, time.perf_counter() - start)
    return runs


def test_c01_energy_descends_monotonically_within_budget(lens_runs):
    for p in P_VALUES:
        traj, cfg, seconds = lens_runs[p]
        energies = np.array([p_energy(s) for s in traj.states])
        worst = float(np.max(energies[1:] - energies[:-1]))
        assert worst <= 1e-8, f"p={p}: energy rose by {worst}"
        assert seconds <= 60.0, f"p={p}: run took {seconds:.1f}s"
        print(f"criterion 1, p={p}: max energy increment {worst:.3e}, "
              f"{seconds:.1f}s")


def test_c02_dissipation_is_controlled_by_initial_energy(lens_runs):
    for p in P_VALUES:
        traj, cfg, _ = lens_runs[p]
        d0 = p_energy(traj.states[0])
        diss = 0.5 * sum(r.tau * r.velocity_l2sq for r in traj.reports)
        assert diss <= d0 * (1 + 1e-6), f"p={p}: {diss} > {d0}"
        print(f"criterion 2, p={p}: dissipation {diss:.6f} <= D0 {d0:.6f}")


def test_c03_constraints_hold_along_the_flow(lens_runs):
    for p in P_VALUES:
        traj, cfg, _ = lens_runs[p]
        worst = max(constraint_defect(constraint_vector(s)) for s in traj.states)
        assert worst <= 1e-9, f"p={p}: constraint defect {worst}"
        print(f"criterion 3, p={p}: max constraint defect {worst:.3e}")


def test_c04_multipliers_obey_the_a_priori_bounds(lens_runs):
    for p in P_VALUES:
        traj, cfg, _ = lens_runs[p]
        d0 = p_energy(traj.states[0])
        for rep in traj.reports:
            assert multiplier_norm(rep.multipliers) <= rep.mult_bound * (1 + 1e-9)
        budget = sum(r.tau * float(np.dot(r.multipliers, r.multipliers))
                     for r in traj.reports)
        cstar = max(r.bound_const for r in traj.reports)
        lam_total = sum(traj.states[0].lengths)
        c_budget = 2.0 * cstar**2 * max(p**2, 2.0 * lam_total)
        cap = c_budget * (cfg.T * d0 + 1.0) * d0
        assert budget <= cap, f"p={p}: {budget} > {cap}"
        print(f"criterion 4, p={p}: multiplier budget {budget:.3e} "
              f"<= {cap:.3e}")


def test_c05_gram_determinant_identity():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 65))
        length = float(rng.uniform(0.2, 3.0))
        smooth = bool(rng.uniform() < 0.5)
        vals = random_angle_field_values(rng, m, smooth=smooth,
                                         scale=float(rng.uniform(0.1, 3.0)))
        det = solver_det(AngleField(Grid(length, m), vals))
        worst = max(worst, abs(det - double_sum(vals, length)))
    seconds = time.perf_counter() - start
    assert worst <= 1e-8
    assert seconds <= 5.0
    print(f"criterion 5: max |det - double sum| {worst:.3e}, {seconds:.2f}s")


def test_c06_oscillation_bound_undershoots_determinant():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst_gap = np.inf
    for _ in range(200):
        m = int(rng.integers(4, 65))
        length = float(rng.uniform(0.2, 3.0))
        vals = random_angle_field_values(rng, m)
        spread = float(np.ptp(vals))
        if spread < 1e-12:
            continue
        vals = vals * (float(rng.uniform(0.1, 2.5)) / spread)
        f = AngleField(Grid(length, m), vals)
        assert f.oscillation() >= 0.1 - 1e-12
        det = solver_det(f)
        bound = oscillation_stats(f).det_lower_bound
        assert det >= bound - 1e-8
        worst_gap = min(worst_gap, det - bound)
    seconds = time.perf_counter() - start
    assert seconds <= 5.0
    print(f"criterion 6: min(det - bound) {worst_gap:.3e}, {seconds:.2f}s")


def test_c07_step_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(50):
        p = P_VALUES[i % 3]
        cand, prev, tau = steep_pair(rng, m=5, p=p)
        grads = step_gradient(cand, prev, tau)
        fd = fd_step_gradient([v for v in cand.values()],
                              [v for v in prev.values()],
                              cand.lengths, p, tau)
        scale = max(float(np.max(np.abs(np.concatenate(fd)))), 1.0)
        err = max(float(np.max(np.abs(g - e))) for g, e in zip(grads, fd))
        worst = max(worst, err / scale)
    assert worst <= 1e-5
    print(f"criterion 7: max relative gradient error {worst:.3e}")


def test_c08_constraint_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    worst = 0.0
    eps = 1e-6
    for _ in range(50):
        m = int(rng.integers(5, 25))
        lengths = (1.0, 0.9, 0.7)
        fields = tuple(
            AngleField(Grid(L, m), random_angle_field_values(rng, m))
            for L in lengths)
        s = NetworkState(fields)
        kkt, _, _ = assemble_multiplier_data(s)
        phi = variation_directions(s)
        for r in range(4):
            up = s.with_values(tuple(v + eps * d
                                     for v, d in zip(s.values(), phi[r])))
            dn = s.with_values(tuple(v - eps * d
                                     for v, d in zip(s.values(), phi[r])))
            fd = (constraint_vector(up) - constraint_vector(dn)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - kkt[:, r]))))
    assert worst <= 1e-6
    print(f"criterion 8: max Jacobian deviation {worst:.3e}")


def test_c09_long_run_reaches_a_certified_critical_point():
    lens = preset_symmetric_lens(nodes_per_unit=2000)
    cfg = FlowConfig(tau=1e-2, T=20.0)
    start = time.perf_counter()
    traj = run_flow(lens, cfg)
    report = detect_stationarity(traj, window=25, tol=1e-6)
    seconds = time.perf_counter() - start
    assert report is not None, "no critical point detected"
    max_residual = float(np.max(report.residuals))
    assert max_residual <= 1e-3
    assert report.bc_defect <= 1e-3
    assert float(np.max(report.conserved_drift)) <= 1e-3
    assert report.junction_balance_defect <= 1e-2
    assert seconds <= 180.0
    print(f"criterion 9: residual {max_residual:.3e}, "
          f"bc {report.bc_defect:.3e}, "
          f"drift {float(np.max(report.conserved_drift)):.3e}, "
          f"junction {report.junction_balance_defect:.3e}, {seconds:.1f}s")


def test_c10_refinement_is_cauchy_at_fixed_time():
    finals = []
    for tau, npu in ((1e-2, 50), (5e-3, 100), (2.5e-3, 200)):
        lens = preset_symmetric_lens(nodes_per_unit=npu)
        traj = run_flow(lens, FlowConfig(tau=tau, T=0.25))
        assert traj.times[-1] == pytest.approx(0.25, rel=1e-9)
        finals.append(traj.final_state)
    dists = []
    for coarse, fine in zip(finals, finals[1:]):
        d = 0.0
        for fc, ff in zip(coarse.fields, fine.fields):
            step = (ff.grid.node_count - 1) // (fc.grid.node_count - 1)
            d = max(d, float(np.max(np.abs(fc.values - ff.values[::step]))))
        dists.append(d)
    ratio = dists[0] / dists[1]
    assert ratio >= 1.7, f"refinement ratio {ratio}"
    print(f"criterion 10: distances {dists[0]:.3e}, {dists[1]:.3e}, "
          f"ratio {ratio:.2f}")


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "thetaflow.app.cli", *argv],
        capture_output=True, text=True)


def test_c11_failure_taxonomy_and_partial_output(tmp_path):
    # Degenerate input: an all-flat equal-length network is refused up front.
    m = 51
    flat = NetworkState(tuple(
        AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3)))
    flat_path = str(tmp_path / "flat.json")
    save_state(flat, flat_path)
    res = _run_cli("run", "--input", flat_path, "--T", "0.1")
    assert res.returncode == 1, res.stderr
    assert res.stderr.strip(), "expected an error message"

    # A triod that flattens its third curve mid-run: the flow halts with the
    # blow-up code and still emits the partial trajectory.
    triod = preset_triod(((1.0, 0.0), (-1.0, 0.0), (0.55, 0.0)),
                         (1.02, 1.02, 0.56), nodes_per_unit=100)
    assert min(oscillation_stats(f).osc for f in triod.fields) >= 0.4
    triod_path = str(tmp_path / "triod.json")
    save_state(triod, triod_path)
    out = str(tmp_path / "out")
    res = _run_cli("run", "--input", triod_path, "--osc-floor", "0.4",
                   "--tau", "1e-3", "--T", "0.5", "--out", out,
                   "--emit", "json,csv", "--stride", "20")
    assert res.returncode == 2, res.stderr
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["halt_reason"] is not None
    assert "FlatnessBlowup" in doc["halt_reason"]
    assert len(doc["steps"]) > 0, "partial trajectory missing"
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    print(f"criterion 11: degenerate input exit 1; blow-up exit 2 after "
          f"{len(doc['steps'])} steps with partial output")


def test_c12_flow_is_equivariant_under_rotation():
    alpha = 0.7
    rot = np.array([[np.cos(alpha), -np.sin(alpha)],
                    [np.sin(alpha), np.cos(alpha)]])
    base = preset_symmetric_lens(nodes_per_unit=100)
    turned = base.with_values(tuple(v + alpha for v in base.values()))
    cfg = FlowConfig(tau=1e-3, T=0.1)
    traj_a = run_flow(base, cfg)
    traj_b = run_flow(turned, cfg)
    assert len(traj_a.reports) == len(traj_b.reports) == 100
    worst_e = 0.0
    worst_m = 0.0
    for ra, rb in zip(traj_a.reports, traj_b.reports):
        worst_e = max(worst_e, abs(ra.energy_after - rb.energy_after))
        worst_m = max(
            worst_m,
            float(np.max(np.abs(rb.multipliers[:2] - rot @ ra.multipliers[:2]))),
            float(np.max(np.abs(rb.multipliers[2:] - rot @ ra.multipliers[2:]))),
        )
    assert worst_e <= 1e-8
    assert worst_m <= 1e-6
    print(f"criterion 12: energy deviation {worst_e:.3e}, "
          f"multiplier deviation {worst_m:.3e}")
