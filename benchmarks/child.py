"""One benchmark run in a fresh process: set up, run, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
``setup_s`` starts before the first heavy import, so it covers importing
numpy, scipy and thetaflow plus building the input with the presets.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import thetaflow.app.cli  # noqa: E402,F401  (loads every thetaflow module)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _self(spans, aggs, *names):
    return (sum(s[5] for s in spans if s[1] in names)
            + sum(aggs[n][2] for n in names if n in aggs))


def _calls(spans, aggs, name):
    if name in aggs:
        return aggs[name][0]
    return sum(1 for s in spans if s[1] == name)


def layer_metrics(setup_spans, spans, aggs, summary):
    """Per-layer metrics of one traced run: (value, unit) by metric name.

    ``spans`` and ``aggs`` hold what was recorded under the run's root span.
    """
    steps = summary["steps"]
    iters = max(summary["inner_iters_total"], 1)
    step_ms = [1e3 * (s[3] - s[2]) for s in spans if s[1] == "scheme.minimize_step"]
    emit_s = sum(s[3] - s[2] for s in spans if s[1] == "app.emit.emit_frames")

    def pct(q):
        return float(np.percentile(step_ms, q)) if step_ms else 0.0

    return {
        "grids.validations_per_step": (_calls(spans, aggs, "grids.validate") / steps, "count/step"),
        "grids.validate.self_s": (_self(spans, aggs, "grids.validate"), "s"),
        "grids.trapezoid_integral.calls": (_calls(spans, aggs, "grids.trapezoid_integral"), "count"),
        "grids.trapezoid_integral.self_s": (_self(spans, aggs, "grids.trapezoid_integral"), "s"),
        "grids.midpoint_gradient.calls": (_calls(spans, aggs, "grids.midpoint_gradient"), "count"),
        "grids.midpoint_gradient.self_s": (_self(spans, aggs, "grids.midpoint_gradient"), "s"),
        "energy.constraints.self_s": (_self(spans, aggs, "energy.constraint_vector",
                                            "energy.constraint_gradients"), "s"),
        "energy.step_gradient.self_s": (_self(spans, aggs, "energy.step_gradient"), "s"),
        "energy.step_energy.self_s": (_self(spans, aggs, "energy.implicit_step_energy",
                                            "energy.p_energy"), "s"),
        "energy.oscillation_stats.self_s": (_self(spans, aggs, "energy.oscillation_stats"), "s"),
        "multipliers.jacobian.calls": (_calls(spans, aggs, "multipliers.jacobian"), "count"),
        "multipliers.jacobian.self_s": (_self(spans, aggs, "multipliers.jacobian"), "s"),
        "multipliers.solve.self_s": (_self(spans, aggs, "multipliers.solve"), "s"),
        "multipliers.bound_constant.calls_per_step": (
            _calls(spans, aggs, "multipliers.bound_constant") / steps, "count/step"),
        "scheme.minimize_step.ms.p50": (pct(50), "ms"),
        "scheme.minimize_step.ms.p95": (pct(95), "ms"),
        "scheme.minimize_step.self_s": (_self(spans, aggs, "scheme.minimize_step"), "s"),
        "scheme.ms_per_iter": (sum(step_ms) / iters, "ms"),
        "scheme.solveh_banded.calls": (_calls(spans, aggs, "scheme.solveh_banded"), "count"),
        "scheme.solveh_banded.self_s": (_self(spans, aggs, "scheme.solveh_banded"), "s"),
        "scheme.inner_iters.mean": (summary["inner_iters_total"] / steps, "count/step"),
        "scheme.inner_iters.max": (summary["inner_iters_max"], "count"),
        "scheme.trials_per_iter": (_calls(spans, aggs, "scheme.project_to_H") / iters, "count/iter"),
        "scheme.project_to_H.calls": (_calls(spans, aggs, "scheme.project_to_H"), "count"),
        "scheme.weak_residual.max": (summary["weak_residual_max"], "1"),
        "scheme.run_flow.self_s": (_self(spans, aggs, "scheme.run_flow"), "s"),
        "stationary.detect_stationarity.self_s": (
            _self(spans, aggs, "stationary.detect_stationarity"), "s"),
        "app.presets.self_s": (sum(s[5] for s in setup_spans
                                   if s[1].startswith("app.presets.")), "s"),
        "app.emit.emit_frames.self_s": (_self(spans, aggs, "app.emit.emit_frames"), "s"),
        "app.emit.bytes": (summary["emit_bytes"], "B"),
        "app.emit.mb_per_s": (summary["emit_bytes"] / 1e6 / emit_s if emit_s else 0.0, "MB/s"),
        "app.emit.load_state.self_s": (_self(spans, aggs, "app.emit.load_state"), "s"),
        "app.cli.cli_main.self_s": (_self(spans, aggs, "app.cli.cli_main"), "s"),
    }


def calibrate(repeats=5):
    """Median time of a fixed numpy + interpreter kernel that shares no code
    with thetaflow: how fast this machine runs that mix right now.  Run
    before and after the timed call, so program changes cannot move it."""
    x = np.linspace(0.0, 3.0, 400)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(1000):
            y = np.sin(x) * np.cos(x)
            acc += float(np.dot(y[1:] - y[:-1], x[1:]))
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--reference", type=float, default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]
    workloads.clean_workdir(args.workdir)
    out = {"ok": False}
    tr = Tracer() if args.trace else None

    def call(name, fn, *fargs):
        return tr.call(name, fn, *fargs) if tr else fn(*fargs)

    try:
        if tr:
            tr.install()
        inp = call("bench.setup", workloads.build_input, w, args.seed, args.steps,
                   args.workdir)
        mark = tr.mark() if tr else None
        setup_s = time.perf_counter() - T_START
        cal_before = calibrate()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = call("bench.run", workloads.execute, w, inp, args.steps, args.workdir)
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # MiB
        cal_s = 0.5 * (cal_before + calibrate())
        if tr:
            tr.uninstall()
        out.update(setup_s=setup_s, run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                   cal_s=cal_s)
        summary = workloads.check(w, inp, result, args.steps)
        out.update(summary)
        workloads.check_reference(summary["final_energy"], args.reference)
        if tr:
            spans, aggs = tr.since(mark)
            spans = spans[:-1]  # the bench.run root closes last
            out["layers"] = layer_metrics(tr.spans[:mark[0]], spans, aggs, summary)
            # time under the run root that no thetaflow span accounts for
            covered = sum(s[5] for s in spans) + sum(a[2] for a in aggs.values())
            out["unattributed_frac"] = (run_s - covered) / run_s
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({
                        "trace_id": f"{w.name}/seed{args.seed}",
                        "fields": ["id", "name", "start", "end", "parent", "self_s"],
                        "spans": tr.spans,
                        "aggregates": {k: dict(zip(("calls", "total_s", "self_s"), v))
                                       for k, v in tr.aggregates.items()},
                    }, fh)
        out["ok"] = True
    except workloads.CheckFailed as err:
        out["error"] = f"check failed: {err}"
    except Exception:  # a raising run is a failed run; the parent counts it
        out["error"] = traceback.format_exc(limit=6)
    finally:
        workloads.clean_workdir(args.workdir)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
