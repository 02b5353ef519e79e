import contextlib
import dataclasses
import inspect
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaflow import (AngleField, FlatnessBlowup, FlowConfig, Grid,
                       NetworkState, detect_stationarity, run_flow)
from thetaflow import scheme
from thetaflow.app.cli import _build_state, build_parser, cli_main
from thetaflow.app.emit import RunSpec, emit_frames, save_state
from thetaflow.app.presets import (preset_perturbed, preset_symmetric_lens,
                                   preset_triod)


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "thetaflow.app.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


def test_run_command_emits_artifacts(tmp_path):
    out = str(tmp_path / "out")
    res = run_cli("run", "--preset", "lens", "--nodes-per-unit", "30",
                  "--tau", "5e-3", "--T", "2.5e-2", "--out", out,
                  "--emit", "json,csv,svg", "--stride", "2")
    assert res.returncode == 0, res.stderr
    assert "steps: 5" in res.stdout
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    frames = sorted(os.listdir(os.path.join(out, "frames")))
    # states 0..5 at stride 2 -> 0, 2, 4 plus the forced final state 5
    assert frames == ["frame_000000.svg", "frame_000002.svg",
                      "frame_000004.svg", "frame_000005.svg"]
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["halt_reason"] is None
    assert len(doc["steps"]) == 5


def test_run_exits_one_when_a_frame_cannot_be_written(tmp_path):
    # a directory where frame 1 goes fails that frame's job
    out = tmp_path / "out"
    os.makedirs(out / "frames" / "frame_000001.svg")
    res = run_cli("run", "--preset", "lens", "--nodes-per-unit", "20",
                  "--tau", "1e-2", "--T", "0.05", "--out", str(out),
                  "--emit", "svg", "--stride", "1")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ")
    assert "frame_000001.svg" in res.stderr


def test_run_command_accepts_state_files(tmp_path):
    state_path = str(tmp_path / "lens.json")
    save_state(preset_symmetric_lens(nodes_per_unit=30), state_path)
    out = str(tmp_path / "out")
    res = run_cli("run", "--input", state_path, "--tau", "5e-3",
                  "--T", "1e-2", "--out", out)
    assert res.returncode == 0, res.stderr
    assert os.path.exists(os.path.join(out, "report.json"))


def test_run_command_rejects_preset_and_input_together(tmp_path):
    state_path = str(tmp_path / "lens.json")
    save_state(preset_symmetric_lens(nodes_per_unit=30), state_path)
    res = run_cli("run", "--preset", "lens", "--input", state_path)
    assert res.returncode == 1
    assert "not both" in res.stderr


def test_run_command_rejects_p_contradicting_the_state_file(tmp_path,
                                                            capsys):
    # a state file fixes p: a matching --p runs, a different one exits 1
    state_path = str(tmp_path / "lens3.json")
    save_state(preset_symmetric_lens(nodes_per_unit=20, p=3.0), state_path)
    argv = ["run", "--input", state_path, "--tau", "1e-2", "--T", "0.02"]
    out = tmp_path / "out"
    assert cli_main([*argv, "--p", "2", "--out", str(out)]) == 1
    assert (f"error: --p 2 contradicts p = 3 of {state_path}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert cli_main([*argv, "--p", "3", "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["flow"]["p_exponent"] == 3.0


def test_refused_allocation_exits_one_before_output(tmp_path):
    # 1e13 nodes per unit ask 146 TiB for a lens arc, more than the 128 TiB
    # user address space, so the allocation is refused at once
    out = tmp_path / "o"
    res = run_cli("run", "--preset", "lens", "--nodes-per-unit",
                  "10000000000000", "--tau", "1e-2", "--T", "0.02",
                  "--out", str(out))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: Unable to allocate")
    assert not out.exists()


def test_stationary_command_detects_relaxed_lens(tmp_path):
    out = str(tmp_path / "out")
    res = run_cli("stationary", "--preset", "lens", "--nodes-per-unit", "50",
                  "--tau", "1e-2", "--T", "6", "--out", out,
                  "--vel-tol", "1e-6")
    assert res.returncode == 0, res.stderr
    assert "critical point detected at step" in res.stdout
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["stationary"] is not None
    assert doc["stationary"]["step_index"] >= 0


def test_check_command_reports_admissibility(tmp_path):
    state_path = str(tmp_path / "lens.json")
    save_state(preset_symmetric_lens(nodes_per_unit=40), state_path)
    res = run_cli("check", "--input", state_path)
    assert res.returncode == 0, res.stderr
    assert "type: theta" in res.stdout
    assert "admissible at tol 1e-09: yes" in res.stdout


def test_check_command_can_project_and_save(tmp_path):
    state_path = str(tmp_path / "noisy.json")
    lens = preset_symmetric_lens(nodes_per_unit=40)
    rng = np.random.default_rng(5)
    noisy = lens.with_values(tuple(
        v + 1e-5 * rng.normal(size=len(v)) for v in lens.values()))
    save_state(noisy, state_path)
    fixed_path = str(tmp_path / "fixed.json")
    res = run_cli("check", "--input", state_path,
                  "--save-projected", fixed_path)
    assert res.returncode == 0, res.stderr
    res2 = run_cli("check", "--input", fixed_path)
    assert "admissible at tol 1e-09: yes" in res2.stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_rejects_bad_constraint_tolerance(tol, tmp_path, capsys):
    state_path = str(tmp_path / "lens20.json")
    save_state(preset_symmetric_lens(nodes_per_unit=20), state_path)
    code = cli_main(["check", "--input", state_path, "--tol-constraint", tol])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: " in captured.err
    assert captured.out == ""


def test_check_prints_an_overflowing_energy_without_a_warning(tmp_path,
                                                              capsys):
    state_path = str(tmp_path / "huge_p.json")
    save_state(preset_symmetric_lens(nodes_per_unit=20, p=1e308), state_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["check", "--input", state_path])
    captured = capsys.readouterr()
    assert code == 0
    assert "elastic energy: inf" in captured.out
    assert captured.err == ""


def test_cli_usage_errors_exit_one(tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("run", "--no-such-flag").returncode == 1
    assert run_cli("check", "--input",
                   str(tmp_path / "missing.json")).returncode == 1


def test_degenerate_initial_state_exits_one(tmp_path, capsys, pool_forks):
    m = 21
    fields = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    path = str(tmp_path / "flat.json")
    save_state(NetworkState(fields), path)
    out = tmp_path / "out"
    code = cli_main(["run", "--input", path, "--T", "1e-2",
                     "--emit", "json,csv,svg", "--out", str(out)])
    assert code == 1
    assert "error: initial state fails the flatness guard" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert pool_forks == []


def test_cli_main_is_importable_and_matches_subprocess(tmp_path, capsys):
    # The console entry point shares the return-code contract.
    code = cli_main(["check", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error" in captured.err


def test_run_command_rejects_infinite_horizon(tmp_path, capsys):
    # T = inf would keep the run loop going forever; it is a usage error
    code = cli_main(["run", "--preset", "lens", "--nodes-per-unit", "20",
                     "--T", "inf", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("stationary", ["--vel-tol", "nan"]),
    ("stationary", ["--vel-tol", "inf"]),
    ("stationary", ["--vel-tol", "0"]),
    ("stationary", ["--vel-tol=-1e-6"]),
    ("stationary", ["--window", "0"]),
    ("stationary", ["--window", "-2"]),
    ("run", ["--nodes-per-unit", "0"]),
    ("run", ["--nodes-per-unit", "-3"]),
    # tau**2 underflows to 0 and the step's velocity divides by it
    ("run", ["--tau", "1e-200", "--T", "1e-200"]),
])
def test_bad_flag_values_exit_one_before_running(command, flags, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    code = cli_main([command, "--preset", "lens", "--nodes-per-unit", "20",
                     "--tau", "1e-2", "--T", "0.05", "--out", str(out),
                     *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stationary"])
@pytest.mark.parametrize("out,head", [
    ("afile", "afile"), (os.path.join("afile", "sub"), "afile"), ("", ""),
])
def test_out_at_a_file_exits_one_before_the_flow(command, out, head, tmp_path,
                                                 capsys, monkeypatch):
    # emit_frames cannot make a directory at or under a file, nor at an
    # empty path; finding that out after the flow would throw the run away
    # and turn 2 into 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    # the CLI steps the flow through this name: no step may start
    monkeypatch.setattr("thetaflow.app.cli.steps", None)
    code = cli_main([command, *_HALTING_TRIOD, "--T", "0.03", "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: {head!r} is not a directory" in captured.err
    assert "flow halted" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("argv,message", [
    (["run", "--input", "", "--preset", "triod"], "not both"),
    (["run", "--input", ""], "No such file or directory"),
])
def test_empty_input_path_is_not_a_preset(argv, message, tmp_path, capsys,
                                          monkeypatch):
    # an empty --input names a file that cannot exist, not "no input"
    monkeypatch.chdir(tmp_path)
    code = cli_main([*argv, "--nodes-per-unit", "20", "--tau", "1e-2",
                     "--T", "0.02"])
    assert code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["check", "run"])
def test_deeply_nested_state_file_exits_one(command, tmp_path, capsys):
    # json.load raises RecursionError on deep nesting; it is a malformed file
    path = tmp_path / "f.json"
    path.write_text("[" * 100_000)
    code = cli_main([command, "--input", str(path)])
    assert code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("key", ["values", "length", "p"])
def test_oversized_integer_in_state_file_exits_one(command, key, tmp_path,
                                                   capsys, monkeypatch):
    # 10**400 is valid JSON, but converting it to a float overflows
    huge = 10**400
    curve = {"length": 1.0, "values": [0.0, 0.5, 1.0]}
    doc = {"p": 2.0, "offsets": [[0, 0], [0, 0]],
           "curves": [curve, dict(curve), dict(curve)]}
    if key == "p":
        doc["p"] = huge
    elif key == "length":
        curve["length"] = huge
    else:
        curve["values"] = [0.0, huge, 1.0]
    (tmp_path / "f.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code = cli_main([command, "--input", "f.json"])
    assert code == 1
    assert "error: " in capsys.readouterr().err


def test_report_records_grid_settings_only_for_presets(tmp_path):
    state_path = str(tmp_path / "lens20.json")
    save_state(preset_symmetric_lens(nodes_per_unit=20), state_path)
    grid_keys = ("nodes_per_unit", "amplitude", "seed")
    # the lens preset ignores amplitude and seed
    for source, expect in ((["--input", state_path], (None, None, None)),
                           (["--preset", "lens"], (20, None, None))):
        out = tmp_path / source[0].lstrip("-")
        code = cli_main(["run", *source, "--nodes-per-unit", "20",
                         "--tau", "1e-2", "--T", "0.02", "--out", str(out)])
        assert code == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert tuple(config[k] for k in grid_keys) == expect


@pytest.mark.parametrize("source,expect", [
    ([], ("lens", None, None)),
    (["--preset", "triod"], ("triod", None, None)),
    (["--preset", "perturbed-lens"], ("perturbed-lens", 0.01, 7)),
])
def test_report_records_the_preset_that_ran(source, expect, tmp_path):
    # without --preset or --input the run starts from the lens preset
    out = tmp_path / "out"
    code = cli_main(["run", *source, "--nodes-per-unit", "20",
                     "--amplitude", "0.01", "--seed", "7",
                     "--tau", "1e-2", "--T", "0.02", "--out", str(out)])
    assert code == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert (config["preset"], config["amplitude"], config["seed"]) == expect
    assert config["input_path"] is None


_HALTING_TRIOD = ["--preset", "triod", "--nodes-per-unit", "20",
                  "--tau", "1e-2", "--T", "2", "--osc-floor", "1.95"]


def test_run_exits_two_on_a_mid_run_halt(tmp_path, capsys):
    # the floor sits above the triod's oscillations after its first step,
    # so the flow halts mid-run
    assert cli_main(["run", *_HALTING_TRIOD,
                     "--out", str(tmp_path / "out")]) == 2
    assert "flow halted: FlatnessBlowup" in capsys.readouterr().err


def test_unfactorable_step_hessian_halts_the_flow(tmp_path):
    # at p = 60 the Newton weights (p-1)|D|^(p-2)/h of the lens dwarf the
    # mass term and the factorization loses definiteness to rounding at
    # every tau halving; at p = 1100 they overflow and the solve refuses the
    # non-finite band.  Either way a failed step, so exit 2 with the halt in
    # report.json, and no warning
    for p, cause in (("60", "th leading minor not positive definite"),
                     ("1100", "band or right-hand side is not finite")):
        out = tmp_path / p
        res = run_cli("run", "--preset", "lens", "--nodes-per-unit", "20",
                      "--tau", "1e-2", "--T", "0.02", "--p", p,
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "Warning" not in res.stderr
        assert "flow halted: InnerSolveFailed: " in res.stderr
        with open(out / "report.json") as fh:
            doc = json.load(fh)
        assert doc["halt_reason"].startswith("InnerSolveFailed: ")
        assert "cannot be factored" in doc["halt_reason"]
        assert doc["halt_reason"].endswith(cause)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "stationary"])
def test_non_finite_initial_energy_exits_one_before_output(command, tmp_path,
                                                          capsys, pool_forks):
    # |theta_s|^p overflows for the lens at p = 1e308
    out = tmp_path / "out"
    code = cli_main([command, "--preset", "lens", "--nodes-per-unit", "20",
                     "--tau", "1e-2", "--T", "0.02", "--p", "1e308",
                     "--emit", "json,csv,svg", "--out", str(out)])
    assert code == 1
    assert ("error: initial elastic energy inf is not finite"
            in capsys.readouterr().err)
    assert not out.exists()
    assert pool_forks == []


def _artifacts(out_dir):
    """Every file under ``out_dir`` by relative path, as bytes; the path
    that ``report.json`` records is replaced."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "report.json":
                data = data.replace(json.dumps(str(out_dir)).encode(),
                                    b'"OUT"')
            files[str(path.relative_to(out_dir))] = data
    return files


_LENS = ["--preset", "lens", "--nodes-per-unit", "20", "--tau", "1e-2",
         "--T", "0.05"]
_SCAN = ["--window", "3", "--vel-tol", "1e9"]


@pytest.mark.parametrize("argv,stride,code", [
    pytest.param(["run", *_LENS], 1, 0, id="run-stride1"),
    # states 0 and 3, and the final state 5 that the stride misses
    pytest.param(["run", *_LENS], 3, 0, id="run-stride3"),
    pytest.param(["stationary", *_LENS, *_SCAN], 1, 0, id="stationary-stride1"),
    pytest.param(["stationary", *_LENS, *_SCAN], 3, 0, id="stationary-stride3"),
    pytest.param(["run", *_HALTING_TRIOD], 1, 2, id="halt-stride1"),
])
def test_cli_artifacts_equal_emit_frames_of_the_run(argv, stride, code,
                                                    emission_path, tmp_path):
    # the CLI formats each state while the flow runs; its files must be
    # those that emit_frames writes for the finished (or halted) run
    args = build_parser().parse_args([*argv, "--stride", str(stride)])
    state, recorded = _build_state(args)
    cfg = FlowConfig(p_exponent=state.p_exponent, tau=args.tau, T=args.T,
                     tol_constraint=args.tol_constraint,
                     osc_floor=args.osc_floor)
    spec = RunSpec(flow=cfg, out_dir=str(tmp_path / "lib"), stride=stride,
                   emit=("json", "csv", "svg"), **recorded)
    halt = None
    try:
        traj = run_flow(state, cfg)
    except FlatnessBlowup as err:
        traj = err.trajectory
        halt = f"FlatnessBlowup: {err}"
    stat = (detect_stationarity(traj, args.window, args.vel_tol)
            if args.command == "stationary" else None)
    emit_frames(traj, spec, stationary=stat, halt_reason=halt)
    assert (halt is None) == (code == 0)

    assert cli_main([*argv, "--stride", str(stride), "--emit", "json,csv,svg",
                     "--out", str(tmp_path / "cli")]) == code
    lib, cli = _artifacts(tmp_path / "lib"), _artifacts(tmp_path / "cli")
    assert sorted(cli) == sorted(lib)
    for name in lib:
        assert cli[name] == lib[name], name
    frames = sorted(name for name in lib if name.endswith(".svg"))
    last = len(traj.states) - 1
    assert frames == [os.path.join("frames", f"frame_{i:06d}.svg")
                      for i in sorted({*range(0, last + 1, stride), last})]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="workers are forked")
@pytest.mark.parametrize("error,code", [
    (ValueError("injected failure"), 1),
    (FlatnessBlowup("injected halt"), 2),
])
def test_no_worker_outlives_a_failed_run(error, code, tmp_path, capsys,
                                         monkeypatch, pool_forks):
    # the frame pool lives through the flow; a step that fails must still
    # shut it down before cli_main returns
    step = scheme._step

    def failing(prev, carried, cfg, tau, index):
        if index == 3:
            raise error
        return step(prev, carried, cfg, tau, index)

    monkeypatch.setattr(scheme, "_step", failing)
    code_got = cli_main(["run", *_LENS, "--emit", "csv,svg", "--stride", "1",
                         "--out", str(tmp_path / "out")])
    assert code_got == code
    assert str(error) in capsys.readouterr().err
    assert pool_forks == [2]
    assert not multiprocessing.active_children()
    # either way the artefacts hold states 0-3, every row of each
    out = tmp_path / "out"
    assert sorted(os.listdir(out / "frames")) == [
        f"frame_{i:06d}.svg" for i in range(4)]
    with open(out / "trajectory.csv") as fh:
        steps = [row.split(",", 1)[0] for row in fh.read().splitlines()[1:]]
    assert sorted(set(steps)) == ["0", "1", "2", "3"]
    assert len({steps.count(i) for i in set(steps)}) == 1


def test_a_mid_run_error_writes_the_partial_run(tmp_path, capsys,
                                                monkeypatch):
    # an error that is not a halt still ends the artefacts consistently:
    # they are those of the run that stops at the last accepted state,
    # with the error as report.json's halt reason, and the run exits 1
    step = scheme._step

    def failing(prev, carried, cfg, tau, index):
        if index == 3:
            raise ValueError("injected at step 3")
        return step(prev, carried, cfg, tau, index)

    argv = ["run", "--preset", "lens", "--nodes-per-unit", "20", "--tau",
            "1e-2", "--stride", "1", "--emit", "json,csv,svg"]
    assert cli_main([*argv, "--T", "0.03", "--out",
                     str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(scheme, "_step", failing)
    assert cli_main([*argv, "--T", "0.1", "--out",
                     str(tmp_path / "cut")]) == 1
    assert capsys.readouterr().err == "error: injected at step 3\n"
    whole = _artifacts(tmp_path / "whole")
    cut = _artifacts(tmp_path / "cut")
    cut_report = json.loads(cut.pop("report.json"))
    whole_report = json.loads(whole.pop("report.json"))
    assert cut_report["halt_reason"] == "ValueError: injected at step 3"
    assert whole_report["halt_reason"] is None
    for key in ("times", "steps", "stationary"):
        assert cut_report[key] == whole_report[key]
    assert cut == whole


def _defaults(fn):
    return {name: par.default
            for name, par in inspect.signature(fn).parameters.items()}


@pytest.mark.parametrize("command", ["run", "stationary", "check"])
def test_cli_defaults_are_the_library_defaults(command):
    # the CLI repeats the library's defaults as literals; parse each
    # subcommand with no optional flag and hold every literal to its twin
    args = build_parser().parse_args(
        [command] + (["--input", "state.json"] if command == "check" else []))
    flow = {f.name: f.default for f in dataclasses.fields(FlowConfig)}
    assert args.tol_constraint == flow["tol_constraint"]
    if command == "check":
        return
    assert (args.tau, args.T, args.osc_floor) == (
        flow["tau"], flow["T"], flow["osc_floor"])
    spec = {f.name: f.default for f in dataclasses.fields(RunSpec)}
    assert args.out == spec["out_dir"]
    assert args.stride == spec["stride"]
    assert tuple(args.emit.split(",")) == spec["emit"]
    for preset in (preset_symmetric_lens, preset_triod):
        assert args.nodes_per_unit == _defaults(preset)["nodes_per_unit"]
    perturbed = _defaults(preset_perturbed)
    assert (args.amplitude, args.seed) == (perturbed["amplitude"],
                                           perturbed["seed"])
    if command == "stationary":
        scan = _defaults(detect_stationarity)
        assert (args.window, args.vel_tol) == (scan["window"], scan["tol"])
    # no --p: the preset runs at the library's p
    state, _ = _build_state(args)
    assert state.p_exponent == flow["p_exponent"]
    for preset in (preset_symmetric_lens, preset_triod):
        assert _defaults(preset)["p"] == flow["p_exponent"]


@pytest.mark.parametrize("argv,expect", [
    ([], 1),
    (["frobnicate"], 1),
    (["run", "--no-such-flag"], 1),
    (["run", "--tau", "abc"], 1),
    (["refine"], 1),
    (["--help"], 0),
    (["check", "--help"], 0),
])
def test_cli_main_returns_usage_codes(argv, expect, capsys):
    # the parser's exit becomes the return code, as for the console script
    assert cli_main(argv) == expect
    captured = capsys.readouterr()
    assert ("usage: thetaflow" in captured.err) == (expect == 1)
    assert ("usage: thetaflow" in captured.out) == (expect == 0)


# Property test over whole argument lists.  Every value comes from a small
# fixed pool of valid values and one of bad values.  The valid values keep
# runs tiny: at most 20 nodes per unit and tau 1e-2 up to T 0.03, so at most
# 3 steps.  The bad values are nan, inf, zero, negative, non-numeric or empty
# strings, and bad paths.  Flags that decide a run's size are always given.  1e14 nodes per unit ask more than the
# 128 TiB user address space for every preset curve, so the allocation is
# refused at once.
_BAD = ["nan", "inf", "-inf", "0", "-1", "abc", ""]
_PATHS = (["lens20.json"], ["flat.json", "missing.json", "malformed.json",
                            "adir", ""])
_FLOW_REQUIRED = {
    "--tau": (["1e-2"], [*_BAD, "1e-200"]),
    "--T": (["0.02", "0.03"], _BAD),
    "--nodes-per-unit": (["20", "10"], ["1.5", *_BAD, "100000000000000"]),
}
_FLOW_OPTIONAL = {
    "--preset": (["lens", "perturbed-lens", "triod"], ["square", ""]),
    "--input": _PATHS,
    "--p": (["2", "1.5", "3"], ["1", *_BAD]),
    "--seed": (["7"], ["-3", "abc"]),
    "--amplitude": (["0.01"], _BAD),
    "--osc-floor": (["1e-3", "1.95"], _BAD),
    "--tol-constraint": (["1e-9"], _BAD),
    "--out": (["o"], ["afile", "afile/sub"]),
    "--stride": (["1", "5"], _BAD),
    "--emit": (["json", "json,csv,svg"], ["svg,png", ""]),
}
_COMMANDS = {
    "run": (_FLOW_REQUIRED, _FLOW_OPTIONAL),
    "stationary": (_FLOW_REQUIRED, {
        **_FLOW_OPTIONAL,
        "--window": (["3", "25"], _BAD),
        "--vel-tol": (["1e-6", "1e9"], _BAD)}),
    "check": ({"--input": _PATHS}, {
        "--tol-constraint": (["1e-9"], _BAD),
        "--save-projected": (["proj.json"], ["afile/x.json", "adir"])}),
}
_ALL_FLAGS = sorted({f for req, opt in _COMMANDS.values()
                     for f in [*req, *opt]} | {"--no-such-flag"})


@st.composite
def _argument_lists(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = [*required, *draw(st.sets(st.sampled_from(sorted(optional))))]
    pools = {**required, **optional}
    pairs = []
    for flag in flags:
        valid, bad = pools[flag]
        # three in four values are valid, so that many lists run a flow
        pool = valid if draw(st.integers(0, 3)) < 3 else bad
        pairs.append((flag, draw(st.sampled_from(pool))))
    unknown = [f for f in _ALL_FLAGS if f not in pools]
    pairs += [(f, "1") for f in draw(st.lists(st.sampled_from(unknown),
                                              max_size=1))]
    argv = [command]
    for flag, value in draw(st.permutations(pairs)):
        argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory holding every path the argument pools name."""
    root = tmp_path_factory.mktemp("cli_args")
    save_state(preset_symmetric_lens(nodes_per_unit=20),
               str(root / "lens20.json"))
    m = 21
    flat = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    save_state(NetworkState(flat), str(root / "flat.json"))
    (root / "malformed.json").write_text("{")
    (root / "afile").write_text("not a directory")
    (root / "adir").mkdir()
    return root


@settings(max_examples=150, deadline=None)
@given(argv=_argument_lists())
@example(argv=["stationary", "--preset", "triod", "--nodes-per-unit", "20",
               "--tau", "1e-2", "--T", "0.03", "--osc-floor", "1.95",
               "--out", "afile"])
@example(argv=["run", "--preset", "lens", "--nodes-per-unit", "20",
               "--tau", "1e-200", "--T", "0.02"])
def test_cli_argument_lists_exit_0_1_or_2(cli_dir, argv):
    old = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        os.chdir(cli_dir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        raise AssertionError(f"cli_main raised SystemExit({exc.code})")
    finally:
        os.chdir(old)
    assert time.perf_counter() - start < 20.0
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
