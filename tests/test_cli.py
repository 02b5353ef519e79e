import json
import os
import subprocess
import sys

import numpy as np
import pytest

from thetaflow import AngleField, Grid, NetworkState
from thetaflow.app.cli import cli_main
from thetaflow.app.emit import save_state
from thetaflow.app.presets import preset_symmetric_lens


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


def test_refine_command_prints_convergence_table(tmp_path):
    res = run_cli("refine", "--preset", "lens", "--nodes-per-unit", "20",
                  "--tau", "2e-2", "--T", "0.1", "--levels", "2",
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 0, res.stderr
    assert "level" in res.stdout and "distance" in res.stdout
    # Two levels produce exactly one inter-level distance line.
    assert res.stdout.count("e-") >= 1


def test_refine_command_refuses_state_files(tmp_path):
    state_path = str(tmp_path / "lens.json")
    save_state(preset_symmetric_lens(nodes_per_unit=20), state_path)
    res = run_cli("refine", "--input", state_path)
    assert res.returncode == 1
    assert "preset" in res.stderr


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


def test_cli_usage_errors_exit_one(tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("run", "--no-such-flag").returncode == 1
    assert run_cli("check", "--input",
                   str(tmp_path / "missing.json")).returncode == 1


def test_degenerate_initial_state_exits_one(tmp_path):
    m = 21
    fields = tuple(AngleField(Grid(1.0, m), np.zeros(m)) for _ in range(3))
    path = str(tmp_path / "flat.json")
    save_state(NetworkState(fields), path)
    res = run_cli("run", "--input", path, "--T", "1e-2")
    assert res.returncode == 1
    assert "error" in res.stderr


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
    ("refine", ["--levels", "0"]),
    ("refine", ["--levels", "-1"]),
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
