"""Command-line front end.

Subcommands:

    run         advance the flow and emit artifacts
    stationary  run, then scan the tail of the run for a critical point
    refine      rerun a preset at halved tau / doubled resolution per level
    check       validate a state file and print its diagnostics

Exit codes: 0 on success, 1 for usage/configuration errors (bad flags,
malformed files, infeasible or degenerate initial data), 2 when the flow
halts mid-run (flatness blow-up, singular multiplier system, failed step),
in any subcommand that runs it.  ``run`` and ``stationary`` still emit the
partial trajectory, and the JSON report carries the halt reason; ``refine``
prints only its table and writes no artefacts.
"""

import argparse
import sys

import numpy as np

from ..energy import (constraint_defect, constraint_vector, oscillation_stats,
                      p_energy)
from ..errors import ThetaflowError
from ..multipliers import multiplier_norm
from ..scheme import FlowConfig, project_to_H, run_flow
from ..stationary import check_scan, detect_stationarity
from .emit import RunSpec, emit_frames, load_state, save_state
from .presets import preset_perturbed, preset_symmetric_lens, preset_triod

__all__ = ["build_parser", "cli_main", "console_main"]

_TRIOD_TARGETS = ((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8))
_TRIOD_LENGTHS = (1.35, 1.3, 0.95)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    mid-run halts, so usage errors are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--preset", choices=["lens", "perturbed-lens", "triod"],
                     help="built-in initial state")
    sub.add_argument("--input", help="state file (JSON) to start from")
    sub.add_argument("--p", type=float, help="energy exponent (preset: 2)")
    sub.add_argument("--tau", type=float, default=1e-3, help="time step")
    sub.add_argument("--T", type=float, default=1.0, help="time horizon")
    sub.add_argument("--nodes-per-unit", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--amplitude", type=float, default=0.05,
                     help="perturbation size for perturbed presets")
    sub.add_argument("--osc-floor", type=float, default=1e-3)
    sub.add_argument("--tol-constraint", type=float, default=1e-9)


def _add_output(sub):
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--stride", type=int, default=10,
                     help="emit every n-th step")
    sub.add_argument("--emit", default="json",
                     help="comma list from csv,json,svg")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thetaflow",
                     description="implicit p-elastic flow of planar networks")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="advance the flow")
    _add_common(run)
    _add_output(run)

    stat = subs.add_parser("stationary",
                           help="advance the flow and detect criticality")
    _add_common(stat)
    _add_output(stat)
    stat.add_argument("--window", type=int, default=25,
                      help="trailing steps scanned for a velocity minimum")
    stat.add_argument("--vel-tol", type=float, default=1e-6,
                      help="L2 velocity threshold for criticality")

    ref = subs.add_parser("refine",
                          help="halve tau and double resolution per level")
    _add_common(ref)
    ref.add_argument("--levels", type=int, default=3)

    chk = subs.add_parser("check", help="validate a state file")
    chk.add_argument("--input", required=True)
    chk.add_argument("--tol-constraint", type=float, default=1e-9)
    chk.add_argument("--save-projected", default=None,
                     help="write the state back out after projection")
    return parser


def _build_config(args, p: float) -> FlowConfig:
    return FlowConfig(
        p_exponent=p,
        tau=args.tau,
        T=args.T,
        tol_constraint=args.tol_constraint,
        osc_floor=args.osc_floor,
    )


def _build_state(args):
    """The initial state and the settings ``report.json`` records for it:
    the path of a state file (which fixes the grid), or the preset, which
    defaults to ``lens``, with its grid and, if it perturbs, amplitude and
    seed.  Settings left out are recorded as None.  A --p must match a
    state file's p."""
    if args.input is not None and args.preset:
        raise ValueError("give either --preset or --input, not both")
    if args.input is not None:
        state = load_state(args.input)
        if args.p is not None and args.p != state.p_exponent:
            raise ValueError(f"--p {args.p:g} contradicts p = "
                             f"{state.p_exponent:g} of {args.input}")
        return state, {"input_path": args.input}
    preset = args.preset or "lens"
    npu = args.nodes_per_unit
    p = 2.0 if args.p is None else args.p
    recorded = {"preset": preset, "nodes_per_unit": npu}
    if preset == "triod":
        state = preset_triod(_TRIOD_TARGETS, _TRIOD_LENGTHS,
                             nodes_per_unit=npu, p=p)
    else:
        state = preset_symmetric_lens(nodes_per_unit=npu, p=p)
    if preset == "perturbed-lens":
        state = preset_perturbed(state, args.amplitude, args.seed)
        recorded.update(amplitude=args.amplitude, seed=args.seed)
    return state, recorded


def _drive(state, cfg):
    """The flow driver of every subcommand; returns (trajectory, halt).

    A mid-run halt prints its reason and returns the partial trajectory
    with it; an error before the first step propagates to ``cli_main``.
    """
    try:
        return run_flow(state, cfg), None
    except ThetaflowError as err:
        if err.trajectory is None:
            raise
        halt = f"{type(err).__name__}: {err}"
        print(f"flow halted: {halt}", file=sys.stderr)
        return err.trajectory, halt


def _execute_flow(args):
    """Set up and run ``run``/``stationary``: (spec, trajectory, halt)."""
    state, recorded = _build_state(args)
    cfg = _build_config(args, state.p_exponent)
    spec = RunSpec(flow=cfg, out_dir=args.out, stride=args.stride,
                   emit=tuple(k for k in args.emit.split(",") if k),
                   **recorded)
    traj, halt = _drive(state, cfg)
    return spec, traj, halt


def _print_summary(traj, written):
    n = len(traj.reports)
    print(f"steps: {n}")
    if n:
        last = traj.reports[-1]
        print(f"final time: {traj.times[-1]:.6g}")
        print(f"energy: {last.energy_after:.12g}")
        print(f"velocity_l2: {np.sqrt(last.velocity_l2sq):.6g}")
        print(f"|multipliers|: {multiplier_norm(last.multipliers):.6g}")
    for path in written:
        print(f"wrote {path}")


def _cmd_run(args):
    spec, traj, halt = _execute_flow(args)
    written = emit_frames(traj, spec, halt_reason=halt)
    _print_summary(traj, written)
    return 0 if halt is None else 2


def _cmd_stationary(args):
    check_scan(args.window, args.vel_tol)
    spec, traj, halt = _execute_flow(args)
    stat = detect_stationarity(traj, args.window, args.vel_tol)
    written = emit_frames(traj, spec, stationary=stat, halt_reason=halt)
    if stat is None:
        print("no critical point detected in the trailing window")
    else:
        print(f"critical point detected at step {stat.step_index}")
        print(f"equation residuals: {stat.residuals}")
        print(f"boundary defect: {stat.bc_defect:.6g}")
        print(f"conserved drift: {stat.conserved_drift}")
        print(f"junction balance defect: {stat.junction_balance_defect:.6g}")
    _print_summary(traj, written)
    return 0 if halt is None else 2


def _check_nested(coarse, fine, level):
    """Raise ValueError unless each curve of ``fine`` halves every cell of
    ``coarse``, so that the coarse nodes are fine nodes."""
    for j, (gc, gf) in enumerate(zip(coarse.grids, fine.grids)):
        if gf.node_count != 2 * gc.node_count - 1:
            raise ValueError(
                f"refine needs nested grids, but curve {j + 1} has "
                f"{gc.node_count} nodes at level {level - 1} and "
                f"{gf.node_count} at level {level}")


def _cmd_refine(args):
    if args.input is not None:
        raise ValueError("refine needs a --preset (state files have a "
                         "fixed grid)")
    if args.levels < 1:
        raise ValueError(f"--levels must be at least 1 (got {args.levels})")
    runs = []
    for level in range(args.levels):
        scale = 2**level
        level_args = argparse.Namespace(**vars(args))
        level_args.tau = args.tau / scale
        level_args.nodes_per_unit = args.nodes_per_unit * scale
        state, _ = _build_state(level_args)
        if runs:
            _check_nested(runs[-1][1], state, level)
        runs.append((_build_config(level_args, state.p_exponent), state))
    rows = []
    for cfg, state in runs:
        traj, halt = _drive(state, cfg)
        if halt is not None:
            return 2
        rows.append((cfg.tau, traj.final_state))
    print("level      tau            h        distance     order")
    dists = []
    for (_, coarse), (_, fine) in zip(rows, rows[1:]):
        d = 0.0
        for fc, ff in zip(coarse.fields, fine.fields):
            d = max(d, float(np.max(np.abs(fc.values - ff.values[::2]))))
        dists.append(d)
    for i, (tau, final) in enumerate(rows):
        h = final.fields[0].grid.spacing
        dist = f"{dists[i]:.6e}" if i < len(dists) else "    --     "
        if 1 <= i < len(dists):
            order = f"{np.log2(dists[i - 1] / dists[i]):8.3f}"
        else:
            order = "    --  "
        print(f"{i:5d}  {tau:.6e}  {h:.6e}  {dist}  {order}")
    return 0


def _cmd_check(args):
    state = load_state(args.input)
    cfg = FlowConfig(p_exponent=state.p_exponent,
                     tol_constraint=args.tol_constraint)
    defect = constraint_defect(constraint_vector(state))
    print(f"curves: lengths {', '.join(f'{l:g}' for l in state.lengths)}")
    print(f"p: {state.p_exponent:g}")
    print(f"type: {'theta' if state.is_theta else 'triod'}")
    print(f"constraint defect: {defect:.6e}")
    print(f"elastic energy: {p_energy(state):.12g}")
    for j, f in enumerate(state.fields):
        stats = oscillation_stats(f)
        print(f"curve {j + 1}: oscillation {stats.osc:.6g}, "
              f"det lower bound {stats.det_lower_bound:.6g}")
    admissible = defect <= cfg.tol_constraint
    print(f"admissible at tol {cfg.tol_constraint:g}: "
          f"{'yes' if admissible else 'no'}")
    if args.save_projected:
        save_state(project_to_H(state, cfg), args.save_projected)
        print(f"wrote {args.save_projected}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits on usage errors (1) and --help (0); return that code
        return err.code
    handler = {
        "run": _cmd_run,
        "stationary": _cmd_stationary,
        "refine": _cmd_refine,
        "check": _cmd_check,
    }[args.command]
    try:
        return handler(args)
    except (ThetaflowError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
