"""Smoke test of the benchmark harness.

    python3 -m pytest benchmarks/tests

Runs a tiny-horizon version of every workload through ``run.py``, the same
path the full benchmark takes, untraced and traced, and checks that the
result is correct and carries every metric of ``BENCHMARK.json`` with its
unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from workloads import SMOKE_STEPS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--steps", str(SMOKE_STEPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if trace:
        # scheme imports these by name: they are only counted when the
        # tracer rebinds every namespace that holds them
        assert metrics["scheme.solveh_banded.calls"]["value"] > 0
        assert metrics["energy.step_gradient.self_s"]["value"] > 0
