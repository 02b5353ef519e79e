"""Outside-in tracing of thetaflow's public functions.

The tracer wraps each function named in ``TARGETS`` and rebinds the wrapper
in *every* loaded ``thetaflow.*`` module namespace that holds the original
object.  Modules import names with ``from .energy import ...``, so patching
only the defining module would leave the hot calls from ``scheme`` untimed.
Dataclass validation (``__post_init__``) is patched on the classes.

Each call to a wrapped function becomes a span (id, name, start, end,
parent id, self time).  Self time is the duration minus the time covered by
its child spans, accumulated while the call runs.  Leaf functions called
up to ~10^5 times per run (``AGGREGATED``) are folded into count + total
time + self time at the boundary instead of keeping one span each.  Spans
stay in memory; the caller writes them out when the run is over.
"""

import itertools
import sys
import time

# span name -> (module, attribute) of the wrapped function
TARGETS = {
    "grids.trapezoid_integral": ("thetaflow.grids", "trapezoid_integral"),
    "grids.midpoint_gradient": ("thetaflow.grids", "midpoint_gradient"),
    "grids.cumulative_tangent_integral": ("thetaflow.grids",
                                          "cumulative_tangent_integral"),
    "energy.p_energy": ("thetaflow.energy", "p_energy"),
    "energy.implicit_step_energy": ("thetaflow.energy", "implicit_step_energy"),
    "energy.constraint_vector": ("thetaflow.energy", "constraint_vector"),
    "energy.constraint_gradients": ("thetaflow.energy", "constraint_gradients"),
    "energy.step_gradient": ("thetaflow.energy", "step_gradient"),
    "energy.assemble_multiplier_data": ("thetaflow.energy",
                                        "assemble_multiplier_data"),
    "energy.oscillation_stats": ("thetaflow.energy", "oscillation_stats"),
    "multipliers.variation_directions": ("thetaflow.multipliers",
                                         "variation_directions"),
    "multipliers.jacobian": ("thetaflow.multipliers",
                             "directional_constraint_jacobian"),
    "multipliers.compute_remainders": ("thetaflow.multipliers",
                                       "compute_remainders"),
    "multipliers.solve": ("thetaflow.multipliers", "solve_multipliers"),
    "multipliers.bound_constant": ("thetaflow.multipliers", "bound_constant"),
    "multipliers.multiplier_bound": ("thetaflow.multipliers",
                                     "multiplier_bound"),
    "scheme.run_flow": ("thetaflow.scheme", "run_flow"),
    "scheme.minimize_step": ("thetaflow.scheme", "minimize_step"),
    "scheme.project_to_H": ("thetaflow.scheme", "project_to_H"),
    "scheme.solveh_banded": ("thetaflow.scheme", "solveh_banded"),
    "stationary.detect_stationarity": ("thetaflow.stationary",
                                       "detect_stationarity"),
    "stationary.stationary_residual": ("thetaflow.stationary",
                                       "stationary_residual"),
    "app.presets.preset_symmetric_lens": ("thetaflow.app.presets",
                                          "preset_symmetric_lens"),
    "app.presets.preset_triod": ("thetaflow.app.presets", "preset_triod"),
    "app.presets.preset_perturbed": ("thetaflow.app.presets",
                                     "preset_perturbed"),
    "app.emit.emit_frames": ("thetaflow.app.emit", "emit_frames"),
    "app.emit.load_state": ("thetaflow.app.emit", "load_state"),
    "app.emit.save_state": ("thetaflow.app.emit", "save_state"),
    "app.cli.cli_main": ("thetaflow.app.cli", "cli_main"),
}

# span name -> (module, class) whose __post_init__ is wrapped
CLASS_TARGETS = {
    "grids.validate": (("thetaflow.grids", "AngleField"),
                       ("thetaflow.grids", "NetworkState")),
}

AGGREGATED = {"grids.trapezoid_integral", "grids.midpoint_gradient",
              "grids.validate", "scheme.solveh_banded"}


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, self time)
        self.aggregates = {}   # name -> [calls, total time, self time]
        self._stack = []       # open frames: [covered child time, span id]
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        if name in AGGREGATED:
            agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])

            def wrapper(*args, **kwargs):
                frame = [0.0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1][1] if stack else None
                frame = [0.0, next(ids)]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    if stack:
                        stack[-1][0] += dur
                    spans.append((frame[1], name, t0, t1, parent,
                                  dur - frame[0]))
        return wrapper

    def call(self, name, fn, *args):
        """Call ``fn`` under a harness-level span named ``name``."""
        return self._wrap(name, fn)(*args)

    def mark(self):
        """Position to split spans and aggregates into phases."""
        return len(self.spans), {k: tuple(v) for k, v in self.aggregates.items()}

    def since(self, mark):
        """Spans closed and aggregate totals accrued after ``mark``."""
        n, before = mark
        zero = (0, 0.0, 0.0)
        aggs = {k: [a - b for a, b in zip(v, before.get(k, zero))]
                for k, v in self.aggregates.items()}
        return self.spans[n:], aggs

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "thetaflow" or n.startswith("thetaflow."))]
        for name, (modname, attr) in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))
        for name, classes in CLASS_TARGETS.items():
            for modname, clsname in classes:
                cls = getattr(sys.modules[modname], clsname)
                orig = cls.__dict__["__post_init__"]
                setattr(cls, "__post_init__", self._wrap(name, orig))
                self._undo.append((cls, "__post_init__", orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()
