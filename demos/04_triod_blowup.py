"""A triod flow that halts: one curve flattens mid-run.

The triod below connects three almost-collinear targets with barely enough
length, so the flow straightens the short third curve completely.  The
a-priori multiplier bounds rest on at least two curves staying genuinely
curved; once the oscillation guard (here 0.4) fails, the run halts with
FlatnessBlowup and hands back the partial trajectory for inspection.

The same scenario drives the CLI failure taxonomy: `thetaflow run` exits
with code 2 and the JSON report carries the halt reason.
"""

import numpy as np

from thetaflow import FlatnessBlowup, FlowConfig, run_flow
from thetaflow.app.presets import preset_triod
from thetaflow.multipliers import multiplier_norm


def main():
    triod = preset_triod(
        targets=((1.0, 0.0), (-1.0, 0.0), (0.55, 0.0)),
        lengths=(1.02, 1.02, 0.56),
        nodes_per_unit=100,
    )
    print("initial oscillations:",
          [f"{f.oscillation():.3f}" for f in triod.fields])

    cfg = FlowConfig(tau=1e-3, T=0.5, osc_floor=0.4)
    try:
        run_flow(triod, cfg)
    except FlatnessBlowup as err:
        traj = err.trajectory
        print(f"\nflow halted: {err}")
        print(f"completed steps: {len(traj.reports)}")
        print("\n   t      osc(curve1)  osc(curve2)  osc(curve3)   |mult|")
        stride = max(1, len(traj.reports) // 10)
        for rep in traj.reports[::stride]:
            t = (rep.step_index + 1) * rep.tau
            o = rep.oscs
            print(f"  {t:5.3f}   {o[0]:10.4f}  {o[1]:11.4f}  {o[2]:11.4f}"
                  f"   {multiplier_norm(rep.multipliers):8.3f}")
        last = traj.final_state
        print("\nfinal oscillations:",
              [f"{f.oscillation():.2e}" for f in last.fields])
        print("curve 3 straightened; the guard tripped before the "
              "multiplier system could degenerate.")
    else:
        print("unexpected: the flow survived the full horizon")


if __name__ == "__main__":
    main()
