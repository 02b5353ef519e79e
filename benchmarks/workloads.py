"""The four benchmark workloads: inputs from a seed, the timed call, checks.

Every workload starts from a preset built with ``thetaflow.app.presets``,
perturbed from the seed by ``preset_perturbed``, and runs with tau = 1e-3 to
a fixed horizon of ``steps * TAU``.  The program only ever sees the
generated input: a ``NetworkState`` for the library workloads, a state file
for the CLI one.

The output checks use their own quadrature (numpy only, no thetaflow code),
so a solver change that breaks the constraints or the energy descent cannot
certify itself.
"""

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

TAU = 1e-3
TOL_CONSTRAINT = 1e-9  # FlowConfig default, also the CLI default
# Oracle quadrature sums in another order than the package, so allow
# rounding on top of the solver's own tolerances.
ORACLE_SLACK = 1e-12
# Final energy against the stored reference.  A step minimizer solved to a
# residual g moves by at most tau * g (the step Hessian is >= M / tau), so an
# inner solver that still meets its tolerances stays far inside this.  For
# scale: over seeds 0-31 the final energies span 5e-7 (coarse-p2) to 1e-2
# (cli-session) relative.
ENERGY_RTOL = 1e-5
# The CLI's triod targets and lengths (``thetaflow run --preset triod``).
TRIOD_TARGETS = ((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8))
TRIOD_LENGTHS = (1.35, 1.3, 0.95)
# Horizon of the smoke test, whose reference is stored for seed 0 only.
SMOKE_STEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "flow" (library run_flow) or "cli" (cli_main)
    p: float
    nodes_per_unit: int
    steps: int           # horizon T = steps * TAU
    amplitude: float     # of the seeded perturbation; 0 leaves the preset as is


# Why each workload was chosen is stated in BENCHMARK.json.  Horizons are
# picked so that one run takes about 2 s on an idle 2-vCPU machine.
#
# Amplitudes are chosen so that a 10-seed spread measures the program, not
# the inputs.  At 0.05 the inner-iteration count on coarse-p2 varies by 9%
# (IQR over seeds 0-9), at 0.01 by 2%.  fine-p2 runs the unperturbed lens:
# with any perturbation tried (0.001 to 0.05, also on the arcs only) one
# seed in three hits a step ending in the working-precision stall, which
# costs about 1.5 s there and doubles run_s.  That stall is measured on
# coarse-p1.5, where every step ends in it.
WORKLOADS = {w.name: w for w in (
    Workload("coarse-p2", "flow", 2.0, 200, 400, 0.01),
    Workload("fine-p2", "flow", 2.0, 3200, 50, 0.0),
    Workload("coarse-p1.5", "flow", 1.5, 200, 50, 0.01),
    Workload("cli-session", "cli", 3.0, 1600, 30, 0.01),
)}


def horizon(steps: int) -> float:
    return steps * TAU


def build_input(w: Workload, seed: int, steps: int, workdir: str):
    """Generate the workload's input from ``seed`` (the timed set-up)."""
    from thetaflow.app import presets
    from thetaflow.scheme import FlowConfig, project_to_H

    cfg = FlowConfig(p_exponent=w.p, tau=TAU, T=horizon(steps))
    if w.kind == "cli":
        from thetaflow.app.emit import save_state

        base = presets.preset_triod(TRIOD_TARGETS, TRIOD_LENGTHS,
                                    nodes_per_unit=w.nodes_per_unit, p=w.p)
        state = presets.preset_perturbed(base, w.amplitude, seed, cfg)
        path = os.path.join(workdir, "state.json")
        save_state(state, path)
        return path
    lens = presets.preset_symmetric_lens(nodes_per_unit=w.nodes_per_unit, p=w.p)
    state = presets.preset_perturbed(lens, w.amplitude, seed, cfg)
    if w.p < 2.0:
        # Keep the straight bar straight.  With a perturbed bar (amplitudes
        # 0.005 to 0.05 tried) the first ~15 steps at p < 2 take 0.6k to 8k
        # inner iterations depending on the seed, which no 10-seed spread
        # can absorb; with it straight every seed costs the same and every
        # step still ends in the stall the p < 2 solver work targets.
        arcs = state.values()
        state = project_to_H(
            lens.with_values([arcs[0], arcs[1], lens.values()[2]]), cfg)
    return state


def execute(w: Workload, inp, steps: int, workdir: str):
    """The timed call: ``run_flow``, or the two ``cli_main`` calls."""
    if w.kind == "flow":
        from thetaflow import scheme

        cfg = scheme.FlowConfig(p_exponent=w.p, tau=TAU, T=horizon(steps))
        return scheme.run_flow(inp, cfg)
    from thetaflow.app import cli

    out_dir = os.path.join(workdir, "out")
    check_out, stat_out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(check_out):
        check_code = cli.cli_main(["check", "--input", inp])
    with contextlib.redirect_stdout(stat_out):
        stat_code = cli.cli_main([
            "stationary", "--input", inp, "--p", repr(w.p),
            "--tau", repr(TAU), "--T", repr(horizon(steps)),
            "--stride", "1", "--emit", "json,csv,svg", "--out", out_dir,
        ])
    return {"check_code": check_code, "check_stdout": check_out.getvalue(),
            "stationary_code": stat_code, "out_dir": out_dir}


class CheckFailed(Exception):
    """An output check failed; the run counts as failed."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _p_energy(values, length: float, p: float) -> float:
    h = length / (len(values) - 1)
    return float(h * np.sum(np.abs(np.diff(values) / h) ** p) / p)


def _defect(curves, lengths, offsets) -> float:
    ic, isn = [], []
    for v, length in zip(curves, lengths):
        h = length / (len(v) - 1)
        for out, g in ((ic, np.cos(v)), (isn, np.sin(v))):
            out.append(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))
    c = (ic[0] - ic[1] - offsets[0][0], isn[0] - isn[1] - offsets[0][1],
         ic[2] - ic[0] - offsets[1][0], isn[2] - isn[0] - offsets[1][1])
    return float(max(abs(x) for x in c))


def _check_states(frames, lengths, offsets, p: float):
    """Constraint defect at tolerance on every state; energy never rises."""
    energies = []
    for i, curves in enumerate(frames):
        d = _defect(curves, lengths, offsets)
        _require(d <= TOL_CONSTRAINT + ORACLE_SLACK,
                 f"constraint defect {d:.3e} at state {i}")
        energies.append(sum(_p_energy(v, L, p) for v, L in zip(curves, lengths)))
    slack = ORACLE_SLACK * (1.0 + abs(energies[0]))
    for i in range(1, len(energies)):
        _require(energies[i] <= energies[i - 1] + slack,
                 f"energy rose at state {i}: {energies[i - 1]!r} -> {energies[i]!r}")


def check_reference(energy: float, reference):
    """Final energy against the stored reference, within ENERGY_RTOL."""
    _require(reference is not None, "no stored reference for this seed")
    err = abs(energy - reference) / abs(reference)
    _require(err <= ENERGY_RTOL,
             f"final energy {energy!r} vs reference {reference!r} "
             f"(relative error {err:.2e} > {ENERGY_RTOL:g})")


def _step_summary(taus, converged, iters, weak, final_energy) -> dict:
    """Counts shared by both kinds; rejections come from the halved taus."""
    rejections = sum(int(round(math.log2(TAU / t))) for t in taus)
    unconverged = sum(1 for c in converged if not c)
    return {
        "steps": len(taus),
        "rejections": rejections,
        "attempts": len(taus) + rejections,
        "unconverged": unconverged,
        "inner_iters_total": int(sum(iters)),
        "inner_iters_max": int(max(iters)),
        "weak_residual_max": float(max(weak)),
        "final_energy": float(final_energy),
        "emit_bytes": 0,
    }


def _check_horizon(t_final: float, summary: dict, w: Workload, steps: int):
    """The run reached the horizon in ``steps`` steps, or in more when a
    rejection halved tau."""
    _require(t_final >= horizon(steps) * (1 - 1e-12), f"run stops at t={t_final!r}")
    n = summary["steps"]
    _require(n == steps if summary["rejections"] == 0 else n > steps,
             f"{n} steps for {steps} nominal and {summary['rejections']} rejections")


def check(w: Workload, inp, result, steps: int) -> dict:
    """Verify the outputs and return the run's step counts.

    Raises CheckFailed on any wrong output; the final energy is checked
    against the reference separately by :func:`check_reference`.
    """
    if w.kind == "flow":
        traj = result
        reps = traj.reports
        summary = _step_summary([r.tau for r in reps],
                                [r.inner_converged for r in reps],
                                [r.inner_iters for r in reps],
                                [r.weak_residual_value for r in reps],
                                reps[-1].energy_after)
        _check_horizon(traj.times[-1], summary, w, steps)
        state = traj.states[0]
        _check_states([s.values() for s in traj.states], state.lengths,
                      state.offsets.tolist(), w.p)
        return summary

    _require(result["check_code"] == 0, f"check exited {result['check_code']}")
    _require("admissible at tol 1e-09: yes" in result["check_stdout"],
             "check did not report the state admissible")
    _require(result["stationary_code"] == 0,
             f"stationary exited {result['stationary_code']}")
    with open(inp) as fh:
        doc = json.load(fh)
    lengths = [c["length"] for c in doc["curves"]]
    nodes = [len(c["values"]) for c in doc["curves"]]
    out = result["out_dir"]
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    reps = report["steps"]
    _require(report["halt_reason"] is None, f"halted: {report['halt_reason']}")
    summary = _step_summary([r["tau"] for r in reps],
                            [r["inner_converged"] for r in reps],
                            [r["inner_iters"] for r in reps],
                            [r["weak_residual_value"] for r in reps],
                            reps[-1]["energy_after"])
    _check_horizon(report["times"][-1], summary, w, steps)
    frames = len(reps) + 1  # stride 1 emits every state
    frame_dir = os.path.join(out, "frames")
    svgs = [f for f in os.listdir(frame_dir) if f.endswith(".svg")]
    _require(len(svgs) == frames, f"{len(svgs)} SVG frames, expected {frames}")
    csv_path = os.path.join(out, "trajectory.csv")
    with open(csv_path) as fh:
        header = fh.readline()
        body = fh.read()
    _require(header.strip() == "step,t,curve,s,theta,x,y", "bad CSV header")
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    _require(table.size % 7 == 0, "ragged CSV rows")
    table = table.reshape(-1, 7)
    _require(table.shape[0] == frames * sum(nodes),
             f"{table.shape[0]} CSV rows, expected {frames} x {sum(nodes)}")
    theta = table[:, 4].reshape(frames, sum(nodes))
    cuts = np.cumsum(nodes)[:-1]
    _check_states([np.split(row, cuts) for row in theta], lengths,
                  doc["offsets"], w.p)
    written = [os.path.join(out, "report.json"), csv_path]
    written += [os.path.join(frame_dir, f) for f in svgs]
    summary["emit_bytes"] = int(sum(os.path.getsize(f) for f in written))
    return summary


def clean_workdir(workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
