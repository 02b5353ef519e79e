"""Regenerate ``reference.json``: final energies the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/make_reference.py [workload ...]

For every workload (default: all) this builds the benchmark's inputs and
makes its main call for workload seeds 0..REFERENCE_SEEDS-1 at the full
horizon, and for seed 0 at the smoke-test horizon, checks the outputs and
stores the final energies.  Only rerun it when a change is meant to alter
the trajectories, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import REFERENCE_FILE, REFERENCE_SEEDS, ROOT  # noqa: E402


def final_energy(w, seed, steps):
    workdir = str(ROOT / ".bench_work" / f"reference-{w.name}")
    workloads.clean_workdir(workdir)
    try:
        inp = workloads.build_input(w, seed, steps, workdir)
        result = workloads.execute(w, inp, steps, workdir)
        return workloads.check(w, inp, result, steps)["final_energy"]
    finally:
        workloads.clean_workdir(workdir)


def main(names):
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for name in names or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        table = {str(w.steps): [], str(workloads.SMOKE_STEPS): []}
        for seed in range(REFERENCE_SEEDS):
            table[str(w.steps)].append(final_energy(w, seed, w.steps))
            print(name, seed, repr(table[str(w.steps)][-1]), flush=True)
        table[str(workloads.SMOKE_STEPS)].append(
            final_energy(w, 0, workloads.SMOKE_STEPS))
        refs[name] = table
        REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
