"""Uniform-grid angle fields for planar curve networks.

A planar curve parametrized by arc length is recovered, up to translation,
from the angle theta(s) of its unit tangent (cos theta, sin theta).  This
module is the substrate everything else builds on: angle values live on the
nodes of a uniform grid over [0, L], first derivatives live on cell
midpoints, zeroth-order integrals use the trapezoid rule on nodes and
first-order integrals use the midpoint rule on cells.  That pairing keeps
summation by parts exact, which the rest of the package relies on.

A network state bundles three angle fields (the three curves run from the
same junction), the two chord offsets between curve endpoints (zero for a
closed theta-shaped network) and the exponent p of the elastic energy.
"""

from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidLengths

__all__ = [
    "Grid",
    "AngleField",
    "NetworkState",
    "trapezoid_weights",
    "trapezoid_integral",
    "midpoint_gradient",
    "cumulative_tangent_integral",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``node_count`` nodes on [0, ``length``]."""

    length: float
    node_count: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise ValueError("grid length must be positive and finite")
        if self.node_count < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def spacing(self) -> float:
        return self.length / (self.node_count - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.node_count)


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AngleField(object):
    """Nodal samples of a tangent angle on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        if vals.ndim != 1 or vals.shape[0] != self.grid.node_count:
            raise ValueError(
                "value array must have one entry per grid node "
                f"(got shape {vals.shape}, expected ({self.grid.node_count},))"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("angle values must be finite")
        object.__setattr__(self, "values", vals)

    def oscillation(self) -> float:
        """sup theta - inf theta over the grid nodes."""
        return float(np.max(self.values) - np.min(self.values))


@dataclass(frozen=True, eq=False)
class NetworkState(object):
    """Three angle fields plus endpoint offsets and energy exponent.

    ``offsets`` is a (2, 2) array: row 0 is the vector between the far
    endpoints of curves 1 and 2, row 1 the vector between the far endpoints
    of curves 3 and 1.  Both rows are zero exactly when all three curves
    share their far endpoint as a second junction (theta network).
    """

    fields: tuple
    offsets: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    p_exponent: float = 2.0

    def __post_init__(self):
        flds = tuple(self.fields)
        if len(flds) != 3 or not all(isinstance(f, AngleField) for f in flds):
            raise ValueError("a network state needs exactly three angle fields")
        off = _readonly(self.offsets)
        if off.shape != (2, 2) or not np.all(np.isfinite(off)):
            raise ValueError("offsets must be a finite (2, 2) array")
        if not (np.isfinite(self.p_exponent) and self.p_exponent > 1.0):
            raise ValueError("energy exponent p must satisfy p > 1")
        lens = [f.grid.length for f in flds]
        if lens[2] > min(lens[0], lens[1]) * (1.0 + 1e-12):
            raise InvalidLengths(
                "third curve must not be longer than the other two "
                f"(lengths {lens[0]:g}, {lens[1]:g}, {lens[2]:g})"
            )
        object.__setattr__(self, "fields", flds)
        object.__setattr__(self, "offsets", off)

    @property
    def lengths(self):
        return tuple(f.grid.length for f in self.fields)

    @property
    def grids(self):
        return tuple(f.grid for f in self.fields)

    @property
    def is_theta(self) -> bool:
        """True when both offset rows vanish (closed theta network)."""
        return bool(np.all(self.offsets == 0.0))

    def with_values(self, values_per_curve) -> "NetworkState":
        """Same grids, offsets and exponent; exactly three new arrays."""
        new = copy(self)  # only the new fields need validating
        object.__setattr__(new, "fields", tuple(AngleField(f.grid, v) for f, v
                           in zip(self.fields, values_per_curve, strict=True)))
        return new

    def values(self):
        return tuple(f.values for f in self.fields)


def require_compatible(a: NetworkState, b: NetworkState) -> None:
    """Raise GridMismatch unless the two states share grids, offsets and p."""
    if a.grids != b.grids:
        raise GridMismatch("states live on different grids")
    if a.p_exponent != b.p_exponent:
        raise GridMismatch("states carry different energy exponents")
    if not np.array_equal(a.offsets, b.offsets):
        raise GridMismatch("states carry different endpoint offsets")


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Nodal quadrature weights h*(1/2, 1, ..., 1, 1/2)."""
    w = np.full(grid.node_count, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def trapezoid_integral(values, grid: Grid) -> float:
    """Trapezoid rule for nodal samples on the given grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.node_count,):
        raise ValueError(f"need one sample per grid node: shape {v.shape}, "
                         f"expected ({grid.node_count},)")
    h = grid.spacing
    return float(h * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def midpoint_gradient(f: AngleField) -> np.ndarray:
    """Cellwise difference quotients (theta_{k+1} - theta_k) / h."""
    return np.diff(f.values) / f.grid.spacing


def cumulative_tangent_integral(f: AngleField) -> np.ndarray:
    """Curve positions: cumulative trapezoid integral of (cos, sin) theta.

    Returns an (M, 2) array starting at the origin; entry k is the position
    of node k of the curve whose initial point sits at the origin.
    """
    tang = np.stack([np.cos(f.values), np.sin(f.values)], axis=1)
    seg = 0.5 * f.grid.spacing * (tang[:-1] + tang[1:])
    out = np.empty((f.grid.node_count, 2))
    out[0] = 0.0
    np.cumsum(seg, axis=0, out=out[1:])
    return out
