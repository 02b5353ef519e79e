"""State files, CSV / JSON / SVG emission.

State files are JSON:

    {"p": 2.0,
     "offsets": [[ox, oy], [ox, oy]],
     "curves": [{"length": L, "values": [theta_0, ...]}, ...three...]}

CSV trajectories hold one row per (selected step, curve, node) with columns
``step,t,curve,s,theta,x,y``; floats are printed with 17 significant digits
so files round-trip doubles exactly.  They are written one (frame, curve)
chunk at a time, all ``theta,x,y`` values of a chunk in one ``%`` over a
row template whose ``curve,s`` columns are formatted once per run.  SVG
frames are deterministic plain strings (no plotting library), one ``%``
per polyline; the viewBox is fixed from the first frame's bounding box
inflated by 20 percent, so frames of one run are comparable.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from ..energy import p_energy
from ..errors import InvalidLengths
from ..grids import AngleField, Grid, NetworkState, cumulative_tangent_integral
from ..scheme import FlowConfig, StepReport, Trajectory

__all__ = ["RunSpec", "save_state", "load_state", "emit_frames"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


@dataclass(frozen=True)
class RunSpec(object):
    """What to run and what to write.  The five settings after ``flow``
    are recorded as given: None unless the caller passes them.  ``out_dir``
    must be a directory or a path that :func:`emit_frames` can create."""

    flow: FlowConfig
    preset: str = None
    input_path: str = None
    nodes_per_unit: int = None
    amplitude: float = None
    seed: int = None
    out_dir: str = "out"
    stride: int = 10
    emit: tuple = ("json",)

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        unknown = set(self.emit) - {"csv", "json", "svg"}
        if unknown:
            raise ValueError(f"unknown emit kinds: {sorted(unknown)}")
        head = self.out_dir
        while head and not os.path.lexists(head):
            head = os.path.dirname(head)
        if not (self.out_dir and os.path.isdir(head or ".")):
            raise ValueError(f"{head!r} is not a directory")


def save_state(state: NetworkState, path: str) -> None:
    doc = {
        "p": state.p_exponent,
        "offsets": state.offsets.tolist(),
        "curves": [
            {"length": f.grid.length, "values": f.values.tolist()}
            for f in state.fields
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _number(value) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_state(path: str) -> NetworkState:
    """Read a state file; any document that is not a valid state raises
    ValueError (OSError if the file cannot be read).  ``p``, the lengths,
    the offsets and the values must be JSON numbers, not strings or
    booleans."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError as err:
            raise ValueError(f"malformed state file {path}: nested too "
                             "deeply") from err
    try:
        curves = doc["curves"]
        fields = []
        for c in curves:
            values = [_number(v) for v in c["values"]]
            fields.append(AngleField(Grid(_number(c["length"]), len(values)),
                                     np.array(values)))
        offsets = [[_number(x) for x in row] for row in doc["offsets"]]
        return NetworkState(fields, np.array(offsets), _number(doc["p"]))
    except (KeyError, TypeError, OverflowError, InvalidLengths) as err:
        # OverflowError: an integer beyond float range, such as 10**400
        raise ValueError(f"malformed state file {path}: {err}") from err


def _positions(state: NetworkState):
    """Curve positions with the common junction at the origin."""
    return [cumulative_tangent_integral(f) for f in state.fields]


def _selected_indices(n_states: int, stride: int):
    idx = list(range(0, n_states, stride))
    if idx[-1] != n_states - 1:
        idx.append(n_states - 1)
    return idx


def _multipliers_dict(mult) -> dict:
    return {"lambda": mult[:2].tolist(), "mu": mult[2:].tolist()}


def _report_dict(rep: StepReport) -> dict:
    d = asdict(rep)
    d["dets"] = rep.dets.tolist()
    d["oscs"] = rep.oscs.tolist()
    d["multipliers"] = _multipliers_dict(rep.multipliers)
    return d


def _stationary_dict(rep) -> dict:
    return {
        "step_index": rep.step_index,
        "residuals": rep.residuals.tolist(),
        "bc_defect": rep.bc_defect,
        "conserved_drift": rep.conserved_drift.tolist(),
        "junction_balance_defect": rep.junction_balance_defect,
        "multipliers": _multipliers_dict(rep.multipliers),
    }


def _write_csv(traj: Trajectory, indices, path: str) -> None:
    # per node "curve,s,%.17g,%.17g,%.17g\n"; every state shares the grid
    tails = [[f"{j + 1},{s:.17g},%.17g,%.17g,%.17g\n"
              for s in f.grid.nodes.tolist()]
             for j, f in enumerate(traj.states[0].fields)]
    with open(path, "w") as fh:
        fh.write("step,t,curve,s,theta,x,y\n")
        for i in indices:
            state = traj.states[i]
            prefix = "%d,%.17g," % (i, traj.times[i])
            for f, pos, tail in zip(state.fields, _positions(state), tails):
                rows = np.column_stack([f.values, pos]).ravel().tolist()
                fh.write((prefix + prefix.join(tail)) % tuple(rows))


def _frame_bbox(state: NetworkState):
    pts = np.vstack(_positions(state))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.2 * max(float(np.max(hi - lo)), 1e-6)
    return lo - pad, hi + pad


def _svg_frame(state: NetworkState, caption: str, lo, hi) -> str:
    # SVG y grows downward; flip sign of y everywhere.
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    view = f"{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}"
    stroke = 0.006 * max(width, height)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view}" width="640" height="640">\n'
    ]
    positions = _positions(state)
    for color, pos in zip(_COLORS, positions):
        flipped = np.column_stack([pos[:, 0], -pos[:, 1]]).ravel().tolist()
        pts = " ".join(["%.6g,%.6g"] * len(pos)) % tuple(flipped)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.6g}"/>\n'
        )
    marker = 1.6 * stroke
    parts.append(
        f'<circle cx="0" cy="0" r="{marker:.6g}" fill="#000000"/>\n'
    )
    for pos in positions:
        parts.append(
            f'<circle cx="{pos[-1][0]:.6g}" cy="{-pos[-1][1]:.6g}" '
            f'r="{marker:.6g}" fill="#555555"/>\n'
        )
    parts.append(
        f'<text x="{lo[0] + 0.02 * width:.6g}" y="{-hi[1] + 0.07 * height:.6g}" '
        f'font-size="{0.05 * height:.6g}" font-family="monospace">'
        f"{caption}</text>\n</svg>\n"
    )
    return "".join(parts)


def emit_frames(traj: Trajectory, spec: RunSpec, stationary=None,
                halt_reason=None):
    """Write the requested artifacts for a trajectory.

    Returns the list of file paths written.  ``stationary`` (a
    StationaryReport or None) and ``halt_reason`` land in the JSON report.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    indices = _selected_indices(len(traj.states), spec.stride)
    written = []

    if "json" in spec.emit:
        doc = {
            "config": asdict(spec),
            "times": [float(t) for t in traj.times],
            "steps": [_report_dict(r) for r in traj.reports],
            "stationary": None if stationary is None else _stationary_dict(stationary),
            "halt_reason": halt_reason,
        }
        path = os.path.join(spec.out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        written.append(path)

    if "csv" in spec.emit:
        path = os.path.join(spec.out_dir, "trajectory.csv")
        _write_csv(traj, indices, path)
        written.append(path)

    if "svg" in spec.emit:
        frame_dir = os.path.join(spec.out_dir, "frames")
        os.makedirs(frame_dir, exist_ok=True)
        lo, hi = _frame_bbox(traj.states[0])
        for i in indices:
            caption = f"t={traj.times[i]:.6g} E={p_energy(traj.states[i]):.6g}"
            path = os.path.join(frame_dir, f"frame_{i:06d}.svg")
            with open(path, "w") as fh:
                fh.write(_svg_frame(traj.states[i], caption, lo, hi))
            written.append(path)

    return written
