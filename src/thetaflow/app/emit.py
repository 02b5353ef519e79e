"""State files, CSV / JSON / SVG emission.

State files are JSON:

    {"p": 2.0,
     "offsets": [[ox, oy], [ox, oy]],
     "curves": [{"length": L, "values": [theta_0, ...]}, ...three...]}

CSV trajectories hold one row per (selected step, curve, node) with columns
``step,t,curve,s,theta,x,y``; floats are printed with 17 significant digits
so files round-trip doubles exactly.  SVG frames are deterministic plain
strings (no plotting library), one ``%`` per polyline; the viewBox is fixed
from the first frame's bounding box inflated by 20 percent, so frames of one
run are comparable.

Each emitted state is one job (:func:`_frame_job`): it computes the
state's positions once, writes its SVG frame and returns its CSV rows, all
``theta,x,y`` values of a curve in one ``%`` over a row template whose
``curve,s`` columns are built once per process and grid.  A
:class:`FrameWriter` takes a run's states as the flow yields them and
starts the job of every ``stride``-th state as soon as it arrives, and the
last state's when the run has ended; :func:`emit_frames` feeds it a
finished trajectory.  On Linux with more than one usable CPU the jobs run
in worker processes, forked when state 0 arrives, one per CPU up to the
run's expected frame count; between states the parent appends the CSV
texts of finished jobs in frame order without waiting for the others.
Otherwise the same jobs run in-process.  ``report.json`` is written once
the run has ended.  A job's bytes come from the same values through the
same format strings wherever it runs, so the output does not depend on the
number of workers or on when the jobs ran.
"""

import json
import os
import sys
from collections import deque
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ..energy import p_energy
from ..errors import InvalidLengths
from ..grids import AngleField, Grid, NetworkState, cumulative_tangent_integral
from ..scheme import FlowConfig, Trajectory

__all__ = ["RunSpec", "save_state", "load_state", "FrameWriter",
           "emit_frames"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


@dataclass(frozen=True)
class RunSpec(object):
    """What to run and what to write.  The five settings after ``flow``
    are recorded as given: None unless the caller passes them.  ``out_dir``
    must be a directory or a path that :class:`FrameWriter` can create."""

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


def _record(rep) -> dict:
    """A StepReport or StationaryReport as ``report.json`` holds it, the
    multipliers split into their lambda and mu pairs."""
    x = rep.multipliers
    return {**asdict(rep), "multipliers": {"lambda": x[:2], "mu": x[2:]}}


@lru_cache(maxsize=3)
def _row_tails(curve: int, grid: Grid):
    """Per node "curve,s,%.17g,%.17g,%.17g\n"; every state shares the grid."""
    return tuple(f"{curve + 1},{s:.17g},%.17g,%.17g,%.17g\n"
                 for s in grid.nodes.tolist())


def _frame_bbox(state: NetworkState):
    pts = np.vstack(_positions(state))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.2 * max(float(np.max(hi - lo)), 1e-6)
    return lo - pad, hi + pad


def _svg_frame(positions, caption: str, lo, hi) -> str:
    # SVG y grows downward; flip sign of y everywhere.
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    view = f"{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}"
    stroke = 0.006 * max(width, height)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view}" width="640" height="640">\n'
    ]
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


def _frame_job(i: int, t: float, state: NetworkState, csv: bool, svg):
    """Format state ``i`` at time ``t``: write its SVG frame when ``svg`` is
    (path, caption, lo, hi), and return its CSV rows, one text per curve
    (none unless ``csv``)."""
    positions = _positions(state)
    if svg is not None:
        path, caption, lo, hi = svg
        with open(path, "w") as fh:
            fh.write(_svg_frame(positions, caption, lo, hi))
    if not csv:
        return []
    prefix = "%d,%.17g," % (i, t)
    chunks = []
    for j, (f, pos) in enumerate(zip(state.fields, positions)):
        rows = np.column_stack([f.values, pos]).ravel().tolist()
        template = prefix + prefix.join(_row_tails(j, f.grid))
        chunks.append(template % tuple(rows))
    return chunks


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 off Linux: the workers are
    forked, which macOS does not do safely and Windows not at all."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_pool(workers: int):
    # imported on first use: at module level they cost every start-up
    # about 3 ms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(workers, mp_context=get_context("fork"))


def _write_report(traj: Trajectory, spec: RunSpec, stationary,
                  halt_reason) -> str:
    doc = {
        "config": asdict(spec),
        "times": traj.times,
        "steps": [_record(r) for r in traj.reports],
        "stationary": None if stationary is None else {
            "step_index": stationary.step_index, **_record(stationary)},
        "halt_reason": halt_reason,
    }
    path = os.path.join(spec.out_dir, "report.json")
    with open(path, "w") as fh:
        # every array, the times among them, is written as a list
        json.dump(doc, fh, indent=1, default=np.ndarray.tolist)
        fh.write("\n")
    return path


class FrameWriter(object):
    """Writes the artifacts of one run while its states arrive.

    Pass the run's (state, report, t) items, as
    :func:`thetaflow.scheme.steps` yields them, through :meth:`feed`, then
    call :meth:`finish` once; a writer takes one run.  Every
    ``stride``-th state, starting with state 0, is formatted as soon as it
    arrives, and the last one at :meth:`finish`.  The output directory, the
    CSV file and the worker pool are made when state 0 arrives.  Leaving the
    ``with`` block closes the CSV file and shuts the pool down, cancelling
    the jobs not yet started, so no worker outlives the writer.
    """

    def __init__(self, spec: RunSpec):
        self.spec = spec
        self._stack = ExitStack()
        self._pool = None
        self._futures = deque()
        self._csv = None
        self._svg = None    # (frame directory, lo, hi) once state 0 arrives
        self._paths = []    # trajectory.csv, then the frames in order
        self._last = None   # (index, state, report, t) of the last item

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stack.close()

    def _start(self, state: NetworkState):
        spec = self.spec
        os.makedirs(spec.out_dir, exist_ok=True)
        if not {"csv", "svg"} & set(spec.emit):
            return
        # the run's frames if no step is halved: states 0, stride,
        # 2 stride, ... and the last; T / tau may overflow to inf
        frames = spec.flow.T / spec.flow.tau / spec.stride + 2
        workers = int(min(_usable_cpus(), frames))
        if workers > 1:
            self._pool = _fork_pool(workers)
            self._stack.callback(self._pool.shutdown, cancel_futures=True)
        if "svg" in spec.emit:
            frame_dir = os.path.join(spec.out_dir, "frames")
            os.makedirs(frame_dir, exist_ok=True)
            self._svg = (frame_dir, *_frame_bbox(state))
        if "csv" in spec.emit:
            path = os.path.join(spec.out_dir, "trajectory.csv")
            self._csv = self._stack.enter_context(open(path, "w"))
            self._csv.write("step,t,curve,s,theta,x,y\n")
            self._paths.append(path)

    def _format(self, i: int, state: NetworkState, report, t: float):
        svg = None
        if self._svg is not None:
            frame_dir, lo, hi = self._svg
            # the step's report holds the state's energy, evaluated on the
            # same packed values as p_energy
            energy = p_energy(state) if report is None else report.energy_after
            svg = (os.path.join(frame_dir, f"frame_{i:06d}.svg"),
                   f"t={t:.6g} E={energy:.6g}", lo, hi)
            self._paths.append(svg[0])
        job = (i, t, state, self._csv is not None, svg)
        if self._pool is not None:
            self._futures.append(self._pool.submit(_frame_job, *job))
        elif self._csv is not None or svg is not None:
            self._write(_frame_job(*job))

    def _write(self, chunks):
        if self._csv is not None:
            self._csv.writelines(chunks)

    def _drain(self, block: bool):
        """Append the CSV texts of finished jobs in frame order; with
        ``block``, wait for every job."""
        while self._futures and (block or self._futures[0].done()):
            self._write(self._futures.popleft().result())

    def feed(self, stream):
        """Pass the run's (state, report, t) items through, taking each
        state as it arrives; report is None for state 0."""
        for i, (state, report, t) in enumerate(stream):
            self._last = (i, state, report, t)
            if i == 0:
                self._start(state)
            if i % self.spec.stride == 0:
                self._format(*self._last)
            self._drain(block=False)
            yield state, report, t

    def finish(self, traj: Trajectory, stationary=None, halt_reason=None):
        """Format the last state if the stride missed it, write
        ``report.json`` for ``traj`` (the states taken) and wait for the
        frames.  Returns the list of file paths written."""
        if self._last[0] % self.spec.stride:
            self._format(*self._last)
        written = []
        if "json" in self.spec.emit:
            written.append(_write_report(traj, self.spec, stationary,
                                         halt_reason))
        self._drain(block=True)
        return written + self._paths


def emit_frames(traj: Trajectory, spec: RunSpec, stationary=None,
                halt_reason=None):
    """Write the requested artifacts for a finished trajectory through a
    :class:`FrameWriter`.

    Returns the list of file paths written.  ``stationary`` (a
    StationaryReport or None) and ``halt_reason`` land in the JSON report.
    A frame that cannot be written raises its OSError once the jobs still
    running have ended; the jobs not yet started are cancelled.
    """
    with FrameWriter(spec) as writer:
        for _ in writer.feed(zip(traj.states, (None, *traj.reports),
                                 traj.times)):
            pass
        return writer.finish(traj, stationary, halt_reason)
