"""Ready-made admissible initial states.

All presets solve their free parameters against the *discrete* trapezoid
quadrature of the package, not against closed-form integrals, so the
constructed states are admissible to near machine precision on their own
grid (no projection step needed, no O(h^2) constraint defect).
"""

import numpy as np

from ..errors import InvalidLengths
from ..grids import AngleField, Grid, NetworkState, trapezoid_integral
from ..scheme import FlowConfig, project_to_H

__all__ = ["preset_symmetric_lens", "preset_triod", "preset_perturbed"]

LENS_ARC_LENGTH = 2.0  # length of the lens preset's two arcs
LENS_BAR_LENGTH = 1.0  # length of its straight third curve


def _grid(length: float, nodes_per_unit: int) -> Grid:
    if not nodes_per_unit >= 1:
        raise ValueError(f"nodes_per_unit must be at least 1 "
                         f"(got {nodes_per_unit!r})")
    return Grid(length, max(3, int(round(length * nodes_per_unit)) + 1))


def _discrete_chord(kappa: float, grid: Grid) -> float:
    """Trapezoid x-extent of the arc theta(s) = kappa (s - L/2)."""
    return trapezoid_integral(np.cos(kappa * (grid.nodes - 0.5 * grid.length)),
                              grid)


def _solve_arc_curvature(grid: Grid, chord: float) -> float:
    """Curvature kappa >= 0 with discrete chord equal to ``chord``.

    On [0, 2 pi / L] the arc turns at most one full circle and its discrete
    chord falls from L to 0, so the root there is unique.  Bisection keeps
    chord(lo) >= ``chord`` > chord(hi) until lo and hi are adjacent floats
    and returns lo.  Near-straight chords (within 1e-14 L of L) give 0.
    """
    if chord >= grid.length * (1.0 - 1e-14):
        return 0.0
    lo, hi = 0.0, 2.0 * np.pi / grid.length
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if _discrete_chord(mid, grid) >= chord:
            lo = mid
        else:
            hi = mid


def preset_symmetric_lens(nodes_per_unit: int = 200,
                          p: float = 2.0) -> NetworkState:
    """Theta network: straight third curve, two mirror-image arcs.

    Curves 1 and 2 have equal length ``LENS_ARC_LENGTH`` and bow
    symmetrically up and down over the straight segment of length
    ``LENS_BAR_LENGTH``; all three run between the same pair of junctions,
    so the offsets vanish.
    """
    arc_grid = _grid(LENS_ARC_LENGTH, nodes_per_unit)
    bar_grid = _grid(LENS_BAR_LENGTH, nodes_per_unit)
    kappa = _solve_arc_curvature(arc_grid, LENS_BAR_LENGTH)
    s_arc = arc_grid.nodes - 0.5 * LENS_ARC_LENGTH
    fields = (
        AngleField(arc_grid, -kappa * s_arc),
        AngleField(arc_grid, kappa * s_arc),
        AngleField(bar_grid, np.zeros(bar_grid.node_count)),
    )
    return NetworkState(fields, np.zeros((2, 2)), p)


def preset_triod(targets, lengths, nodes_per_unit: int = 200,
                 p: float = 2.0) -> NetworkState:
    """Three circular-ish arcs from the origin to the given target points.

    ``targets`` is a (3, 2) array of endpoints, ``lengths`` the three curve
    lengths.  Curves are relabeled so the shortest one sits in slot 3 (the
    slot the length ordering of :class:`NetworkState` requires); offsets are
    computed from the permuted targets.  Each curve is the arc
    theta(s) = beta + kappa (s - L/2) with beta aimed at its target and
    kappa solved so the discrete chord matches the target distance.

    Raises InvalidLengths for unreachable targets (L < |P|) or targets at
    the junction.
    """
    targets = np.asarray(targets, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if targets.shape != (3, 2) or lengths.shape != (3,):
        raise ValueError("need three 2d targets and three lengths")
    shortest = int(np.argmin(lengths))
    order = [j for j in range(3) if j != shortest] + [shortest]
    targets = targets[order]
    lengths = lengths[order]
    fields = []
    for target, length in zip(targets, lengths):
        dist = float(np.hypot(*target))
        if dist < 1e-9:
            raise InvalidLengths("triod target coincides with the junction")
        if length < dist * (1.0 - 1e-12):
            raise InvalidLengths(
                f"curve of length {length:g} cannot reach a target at "
                f"distance {dist:g}"
            )
        grid = _grid(length, nodes_per_unit)
        kappa = _solve_arc_curvature(grid, min(dist, length))
        beta = float(np.arctan2(target[1], target[0]))
        fields.append(AngleField(grid, beta + kappa * (grid.nodes - 0.5 * length)))
    offsets = np.stack([targets[0] - targets[1], targets[2] - targets[0]])
    return NetworkState(tuple(fields), offsets, p)


def preset_perturbed(base: NetworkState, amplitude: float = 0.05,
                     seed: int = 0, cfg: FlowConfig = None) -> NetworkState:
    """Smooth random perturbation of a preset, projected back to admissibility.

    Adds five random sine modes (frequencies pi m s / L, normal amplitudes
    decaying like 1/m, uniform phases) scaled by ``amplitude`` to every
    curve, then projects onto the constraint set.  ``amplitude = 0`` returns
    ``base`` unchanged.  Deterministic in ``seed``.
    """
    if amplitude == 0.0:
        return base
    if cfg is None:
        cfg = FlowConfig()
    rng = np.random.default_rng(seed)
    new_vals = []
    for f in base.fields:
        s = f.grid.nodes
        bump = np.zeros_like(s)
        for m in range(1, 6):
            coeff = rng.normal() / m
            phase = rng.uniform(0.0, 2.0 * np.pi)
            bump += coeff * np.sin(np.pi * m * s / f.grid.length + phase)
        new_vals.append(f.values + amplitude * bump)
    return project_to_H(base.with_values(new_vals), cfg)
