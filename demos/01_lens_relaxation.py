"""Relax the symmetric lens and watch the energy decay.

The built-in lens preset joins two constant-curvature arcs with a straight
chord.  That shape satisfies the junction constraints but is not a critical
point of the elastic energy: a critical curve must have vanishing angle
derivative at its endpoints, while an arc arrives with full curvature.  The
flow therefore slides downhill to a "pendulum" profile (curvature
concentrated mid-curve, flat ends) at a visibly lower energy.

Writes SVG frames to demos_out/lens/frames.
"""

import numpy as np

from thetaflow import FlowConfig, p_energy, run_flow
from thetaflow.app.emit import RunSpec, emit_frames
from thetaflow.app.presets import preset_symmetric_lens
from thetaflow.multipliers import multiplier_norm


def main():
    lens = preset_symmetric_lens(nodes_per_unit=100)
    cfg = FlowConfig(tau=2e-3, T=1.0)
    print(f"initial energy      {p_energy(lens):.6f}")

    traj = run_flow(lens, cfg)

    print(f"terminal energy     {p_energy(traj.final_state):.6f}")
    print(f"steps               {len(traj.reports)}")
    print()
    print("   t       energy      |velocity|   |multipliers|   defect")
    stride = max(1, len(traj.reports) // 12)
    for rep in traj.reports[::stride]:
        t = (rep.step_index + 1) * rep.tau
        print(f"  {t:5.3f}  {rep.energy_after:10.6f}  {np.sqrt(rep.velocity_l2sq):11.3e}"
              f"  {multiplier_norm(rep.multipliers):13.6f}  {rep.constraint_defect:.1e}")

    # End slopes of curve 1: the arc starts at kappa ~ 1.9, the relaxed
    # profile is flat at the junctions.
    def end_slope(state):
        f = state.fields[0]
        return abs(float(np.diff(f.values)[0])) / f.grid.spacing

    print()
    print(f"curve-1 end slope: initial {end_slope(lens):.4f}, "
          f"terminal {end_slope(traj.final_state):.6f}")

    spec = RunSpec(flow=cfg, preset="lens", nodes_per_unit=100,
                   out_dir="demos_out/lens", stride=50, emit=("json", "svg"))
    for path in emit_frames(traj, spec):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
