"""thetaflow benchmark: time to a finished, checked trajectory.

    python3 benchmarks/run.py --workload coarse-p2 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0

One closed loop with one client: each run is a fresh child process
(``child.py``), runs go one after another until ``--seconds`` is used up,
and BLAS is pinned to one thread.  A run imports the package and builds its
input from ``--seed`` (``setup_s``), makes the workload's main call
(``run_s``), records its peak RSS and checks its outputs.  A run that raises,
exits non-zero or fails a check counts in ``run_fail_frac`` and contributes
no timing.  ``setup_s`` and ``run_s`` are scaled to the machine's idle speed
by a calibration kernel timed in the same child (see ``CAL_NOMINAL_S``); the
raw wall times are printed as ``setup_wall_s`` and ``run_wall_s``.  Timings
are medians over the runs; the report also gives the highest percentile with
at least ten samples beyond it and the sample count.

With ``--trace 1`` the runs alternate between untraced and traced children.
The traced ones wrap thetaflow's public functions from outside (see
``tracing.py``) and give the per-layer metrics; ``trace_overhead_frac`` is
the traced against the untraced median ``run_s``.  Call counts must repeat
exactly between runs of one seed, and every run's thetaflow spans must
account for its traced ``run_s`` to within that overhead (at least 1%).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The per-run records, machine metadata and the
spans of the last traced run are written under ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Final energies are stored for workload seeds 0..REFERENCE_SEEDS-1; the
# benchmark seed maps onto them modulo this count.
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEEDS = 32
# A run must end within 180 s whatever its children do.
DEADLINE_S = 160.0
MIN_RUNS = 2
COUNT_KEYS = ("steps", "rejections", "attempts", "unconverged",
              "inner_iters_total", "inner_iters_max", "final_energy",
              "emit_bytes")
# Time of child.calibrate() on an idle 2-vCPU Xeon (2.0 GHz, numpy 2.4.6,
# Python 3.11.7).  On a shared host that machine slows by up to 40% for
# minutes at a time (CPU time stays equal to wall time, so the slowdown is
# not steal), and single runs scatter by +-20%.  setup_s and run_s are
# therefore reported as wall time * CAL_NOMINAL_S / cal_s, cal_s timed in
# the same child just before and after the run: the seconds the run would
# take at idle speed.  Over 6 seeds this cut the spread of run_s medians on
# coarse-p2 from 8.8% to 6.6%, and from 20% to 8% while the host drifted.
CAL_NOMINAL_S = 0.012
# metric (also the child's field) -> (unit, scaled by the calibration)
END_TO_END = {"setup_s": ("s", True), "run_s": ("s", True),
              "peak_rss_mb": ("MiB", False)}


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def machine_metadata():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, steps, traced, reference, workdir, spans_out, timeout):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--steps", str(steps), "--trace", str(int(traced)),
           "--workdir", str(workdir)]
    if reference is not None:
        cmd += ["--reference", repr(reference)]
    if traced:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "error": "no result line"}
    if proc.returncode != 0:
        rec["ok"] = False
        rec["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return rec


def measure(workload, seed, seconds, trace, steps=None):
    """Run children for ``seconds`` and aggregate them into one result."""
    w = WORKLOADS[workload]
    steps = w.steps if steps is None else steps
    wseed = seed % REFERENCE_SEEDS
    refs = json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(steps), [])
    reference = refs[wseed] if wseed < len(refs) else None
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / workload
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"{workload}.spans.json"

    runs = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(runs) % 2 == 1
        t0 = time.perf_counter()
        timeout = max(5.0, DEADLINE_S - (t0 - start))
        rec = run_child(workload, wseed, steps, traced, reference, workdir, spans_out,
                        timeout)
        rec["traced"] = traced
        rec["wall_s"] = time.perf_counter() - t0
        runs.append(rec)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in runs)
        # stop when the next run would end, on average, past --seconds
        if (len(runs) >= MIN_RUNS and elapsed + typical / 2 > seconds) or (
                elapsed + typical > DEADLINE_S):
            break

    problems = [r["error"] for r in runs if not r["ok"]]
    ok = [r for r in runs if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]
    for key in COUNT_KEYS:
        values = {r[key] for r in ok}
        if len(values) > 1:
            problems.append(f"{key} differs between runs of one seed: {sorted(values)}")

    def scaled(r, key):
        return r[key] * CAL_NOMINAL_S / r["cal_s"]

    def summary(vals):
        return {"median": statistics.median(vals) if vals else None,
                "n": len(vals), "tail": tail_percentile(vals)}

    timings = {}
    for name, (unit, scale) in END_TO_END.items():
        timings[name] = summary([scaled(r, name) if scale else r[name] for r in plain])
        if scale:
            timings[name[:-2] + "_wall_s"] = summary([r[name] for r in plain])
    step_fail = ((ok[0]["rejections"] + ok[0]["unconverged"]) / ok[0]["attempts"]
                 if ok else None)
    failed = len(runs) - len(ok)
    result = {
        "workload": workload,
        "seed": seed,
        "workload_seed": wseed,
        "steps": steps,
        "runs": len(runs),
        "failed": failed,
        "timings": timings,
        "step_fail_frac": step_fail,
        "run_fail_frac": failed / len(runs),
        "cpu_over_wall": (statistics.median(r["cpu_s"] / r["run_s"] for r in plain)
                          if plain else None),
        "problems": problems,
    }
    if trace:
        layers = {}
        if traced_runs and plain:
            names = traced_runs[0]["layers"]
            for name, (_, unit) in names.items():
                vals = [r["layers"][name][0] for r in traced_runs]
                if unit.startswith("count") or unit == "B":
                    if len(set(vals)) > 1:
                        problems.append(f"{name} differs between traced runs: {vals}")
                layers[name] = (statistics.median(vals), unit)
            overhead = (statistics.median(scaled(r, "run_s") for r in traced_runs)
                        / timings["run_s"]["median"] - 1.0)
            layers["trace_overhead_frac"] = (overhead, "frac")
            # 1% floor: on array-bound workloads the measured overhead can
            # be smaller than the run-to-run scatter
            allowed = max(abs(overhead), 0.01)
            for r in traced_runs:
                if abs(r["unattributed_frac"]) > allowed:
                    problems.append(
                        f"spans leave {r['unattributed_frac']:.2%} of traced run_s "
                        f"unaccounted, more than the {allowed:.2%} allowed")
            result["unattributed_frac"] = max(abs(r["unattributed_frac"]) for r in traced_runs)
        else:
            problems.append("no successful traced and untraced run pair")
        result["layers"] = layers
    result["correct"] = not problems
    return result, runs


def _fmt_timing(t, unit):
    if t["median"] is None:
        return "n/a"
    tail = t["tail"]
    tail_s = f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else "no percentile with >=10 beyond"
    return f"{t['median']:.4f} {unit}  (median; {tail_s}; n={t['n']})"


def report(result, trace):
    """Print the human-readable table; return the contract's metrics."""
    print(f"workload {result['workload']}  seed {result['seed']} "
          f"(workload seed {result['workload_seed']})  steps {result['steps']}  "
          f"runs {result['runs']}  failed {result['failed']}")
    metrics = {}
    for name, t in result["timings"].items():
        unit = END_TO_END[name][0] if name in END_TO_END else "s"
        print(f"  {name:<16} {_fmt_timing(t, unit)}")
        if name in END_TO_END:
            metrics[name] = {"value": t["median"], "unit": unit}
    sff = result["step_fail_frac"]
    print(f"  {'step_fail_frac':<16} {'n/a' if sff is None else f'{sff:.4f}'} frac")
    print(f"  {'run_fail_frac':<16} {result['run_fail_frac']:.4f} frac")
    if result["cpu_over_wall"] is not None:
        print(f"  cpu/wall of run_s: {result['cpu_over_wall']:.3f}")
    if trace:
        metrics = {}
        for name, (value, unit) in result["layers"].items():
            print(f"  {name:<42} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="override the horizon in steps (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thetaflow" / "__init__.py").is_file():
        print(f"error: no thetaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE_FILE.is_file():
        print(f"error: missing {REFERENCE_FILE}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = machine_metadata()
    print("machine: " + json.dumps(meta))
    for name in names:
        result, runs = measure(name, args.seed, args.seconds, args.trace, args.steps)
        metrics = report(result, args.trace)
        record = {"result": result, "machine": meta, "runs": runs}
        (ROOT / ".bench_out" / f"{name}.record.json").write_text(json.dumps(record, indent=1))
        print(json.dumps({"correct": result["correct"], "attempted": result["runs"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
