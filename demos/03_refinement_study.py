"""Joint time-step / mesh refinement of the lens flow.

Runs the same flow to t = 0.25 while halving tau and doubling the spatial
resolution per level, then compares the states on the shared coarse nodes.
Successive distances should shrink roughly geometrically (the scheme is
first order in tau, so halving tau dominates the observed rate).
"""

import numpy as np

from thetaflow import FlowConfig, run_flow
from thetaflow.app.presets import preset_symmetric_lens


def check_nested(coarse, fine, level):
    """Raise ValueError unless each curve of ``fine`` halves every cell of
    ``coarse``, so that the coarse nodes are the even fine nodes."""
    for j, (gc, gf) in enumerate(zip(coarse.grids, fine.grids)):
        if gf.node_count != 2 * gc.node_count - 1:
            raise ValueError(
                f"refinement needs nested grids, but curve {j + 1} has "
                f"{gc.node_count} nodes at level {level - 1} and "
                f"{gf.node_count} at level {level}")


def main():
    levels = 4
    finals = []
    print("level   tau        h          steps")
    for level in range(levels):
        tau = 1e-2 / 2**level
        npu = 50 * 2**level
        traj = run_flow(preset_symmetric_lens(nodes_per_unit=npu),
                        FlowConfig(tau=tau, T=0.25))
        finals.append(traj.final_state)
        h = traj.final_state.fields[0].grid.spacing
        print(f"{level:5d}   {tau:.2e}  {h:.2e}  {len(traj.reports):5d}")

    print()
    print("inter-level sup distances on shared nodes:")
    prev_d = None
    for i, (coarse, fine) in enumerate(zip(finals, finals[1:])):
        check_nested(coarse, fine, i + 1)
        d = 0.0
        for fc, ff in zip(coarse.fields, fine.fields):
            d = max(d, float(np.max(np.abs(fc.values - ff.values[::2]))))
        rate = "" if prev_d is None else f"   observed order {np.log2(prev_d / d):.2f}"
        print(f"  levels {i}->{i + 1}: {d:.6e}{rate}")
        prev_d = d


if __name__ == "__main__":
    main()
