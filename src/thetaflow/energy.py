"""Elastic energy, step functional, constraints and related assemblies.

The p-elastic energy of an angle field is (1/p) * int |theta_s|^p, discretized
with the midpoint rule on cells.  One implicit time step minimizes

    E_step(theta) = sum_j (1/p) int |d theta^j / ds|^p
                  + (1/(2 tau)) sum_j int (theta^j - theta_prev^j)^2

subject to four scalar constraints tying the tangent integrals of the three
curves together (the curves must keep meeting at their endpoints).

Everything here is plain quadrature and pointwise algebra; no linear or
nonlinear solves.  The energies, the step gradient, the constraints and
their gradients are implemented once, on :class:`PackedLayout`, which packs
the three curves into one nodal vector; the functions taking network states
pack them and call it.  The gradient returned by :func:`step_gradient` is the
nodal representer of the first variation with respect to the lumped
(trapezoid-weighted) L2 inner product, so tolerances on it read as L2
tolerances on the continuous gradient.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import (
    AngleField,
    NetworkState,
    require_compatible,
    trapezoid_weights,
)

__all__ = [
    "PackedLayout",
    "cell_flux",
    "p_energy",
    "implicit_step_energy",
    "constraint_vector",
    "constraint_defect",
    "constraint_gradients",
    "MultiplierMatrices",
    "assemble_multiplier_data",
    "det_identity_check",
    "OscillationStats",
    "oscillation_stats",
    "step_gradient",
]


def cell_flux(slopes: np.ndarray, p: float) -> np.ndarray:
    """Cellwise p-Laplacian flux |u|^(p-2) u, with 0 mapped to 0."""
    return np.sign(slopes) * np.abs(slopes) ** (p - 1.0)


class PackedLayout(object):
    """The three curves of a network packed into one nodal vector of length
    M = M_1 + M_2 + M_3, curve after curve.

    ``weights`` are the trapezoid weights; ``cell_h`` the cell spacings and
    ``inv_h`` their inverses, both zero on the two cells that straddle a
    curve break, which thus carry no slope, energy or flux.  ``starts`` and
    ``counts`` locate the curves; ``hat_norms`` are the H1 norms of the
    nodal hat functions, the scale of the weak residual.  A layout depends
    on the grids, offsets and p only: :meth:`of` hands states that share
    them one cached layout, whose arrays are read-only.

    The four junction constraints are tangent integrals, so every quantity
    the solver needs from them is built from the six per-curve functions
    e_{2j+a} = T_a on curve j (zero elsewhere), with T = (sin, cos) theta
    the (2, M) array of :meth:`tangents`:

      * the constraint gradients are g = E e, E the constant (4, 6) matrix
        below; the variation directions are phi = D g = (D E) e;
      * lumped products with the e_b are per-curve node sums
        (:meth:`curve_sums`, one ``np.add.reduceat`` over the curve starts,
        as accurate as a pairwise sum), so every 4x4 matrix of the solver
        is E @ (block-diagonal per-curve 2x2 moments) @ F^T
        (:meth:`gradient_products`): the Gram matrix of the gradients
        takes F = E, the projection Jacobian F = D E;
      * a combination sum_b c_b e_b is :meth:`fields` of c and T.

    Node sums are pairwise: BLAS sums are too coarse for the noise-level
    tests of the inner solver.
    """

    # g_k = sum_b E[k, b] e_b: c1, c2 pair curves 1 and 2, c3, c4 curves 3
    # and 1; each gradient is -sin (c1, c3) or cos (c2, c4) times the signs
    SIGNS = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0]])
    E = np.kron(SIGNS, np.diag([-1.0, 1.0]))
    # phi_1 = g_1 + g_3, phi_2 = g_2 + g_4, phi_3 = -g_1, phi_4 = -g_2
    D = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])

    def __init__(self, grids, offsets: np.ndarray, p: float):
        self.counts = np.array([g.node_count for g in grids])
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        self.weights = np.concatenate([trapezoid_weights(g) for g in grids])
        self.cell_h = np.concatenate([
            np.append(np.full(g.node_count - 1, g.spacing), 0.0) for g in grids
        ])[:-1]
        self.inv_h = np.divide(1.0, self.cell_h, out=np.zeros_like(self.cell_h),
                               where=self.cell_h > 0.0)
        # H1 norms of the hat functions: mass 2 w_k / 3 plus the 1/h of each
        # cell in the support of node k
        padded_inv_h = np.concatenate([[0.0], self.inv_h, [0.0]])
        self.hat_norms = np.sqrt(2.0 * self.weights / 3.0 + padded_inv_h[:-1]
                                 + padded_inv_h[1:])
        self.junction_offsets = np.ravel(offsets)
        self.p = p
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @classmethod
    def of(cls, state: NetworkState):
        """(layout, packed nodal values) of a state; the layout is cached."""
        return (_layout(state.grids, state.offsets.tobytes(),
                        float(state.p_exponent)),
                cls.pack(state))

    @staticmethod
    def pack(state: NetworkState) -> np.ndarray:
        return np.concatenate(state.values())

    def unpack(self, theta: np.ndarray):
        """Per-curve views of a packed vector."""
        return tuple(np.split(theta, self.starts[1:]))

    def inner(self, a: np.ndarray, b: np.ndarray):
        """Lumped L2 products sum_k w_k a[..., k] b_k (each row of a with b)."""
        return np.sum(a * (self.weights * b), axis=-1)

    @staticmethod
    def tangents(theta: np.ndarray) -> np.ndarray:
        """T = (sin theta, cos theta), shape (2, M)."""
        out = np.empty((2, theta.shape[0]))
        np.sin(theta, out=out[0])
        np.cos(theta, out=out[1])
        return out

    def curve_sums(self, a: np.ndarray, b=None) -> np.ndarray:
        """Lumped integrals of ``a * b`` (``a`` alone if b is None) over
        each curve: shape (..., 3).  ``a`` is weighted before it is
        broadcast against ``b``, much the faster order for the
        (2, 1, M) x (1, 2, M) products of :meth:`gradient_products`."""
        rows = a * self.weights
        if b is not None:
            rows = rows * b
        return np.add.reduceat(rows, self.starts, axis=-1)

    def products(self, basis: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The six lumped products <e_b, f>, b = 2j + a, of the basis built
        from ``basis`` (2, M) with one nodal vector ``f``."""
        return self.curve_sums(basis, f).T.ravel()

    def gradient_products(self, tangents: np.ndarray, other: np.ndarray,
                          coef: np.ndarray) -> np.ndarray:
        """Lumped products <g_k, f_r> of the constraint gradients g = E e
        (e built on ``tangents``) with the fields f_r = sum_c coef[r, c] o_c
        (o built on ``other``, (2, M)), shape (4, n).

        e_b and o_c on different curves are orthogonal, so this is
        E @ blockdiag(per-curve 2x2 moments <T_a, other_a'>) @ coef^T.
        """
        blocks = self.curve_sums(tangents[:, None], other[None])  # (2, 2, 3)
        moments = np.zeros((3, 2, 3, 2))
        j = np.arange(3)
        moments[j, :, j, :] = blocks.transpose(2, 0, 1)
        return self.E @ moments.reshape(6, 6) @ coef.T

    def fields(self, coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """sum_b coef[..., b] e_b with e_{2j+a} = basis[a] on curve j:
        nodal arrays of shape (..., M)."""
        per_curve = coef.reshape(coef.shape[:-1] + (3, 2)).swapaxes(-1, -2)
        per_node = np.repeat(per_curve, self.counts, axis=-1)
        return np.einsum("...am,am->...m", per_node, basis)

    def slopes(self, theta: np.ndarray) -> np.ndarray:
        return np.diff(theta) * self.inv_h

    def elastic_energy(self, theta: np.ndarray) -> float:
        """sum_j (1/p) int |d theta^j/ds|^p (midpoint rule)."""
        energy = np.sum(self.cell_h * np.abs(self.slopes(theta)) ** self.p)
        return float(energy) / self.p

    def step_energy(self, theta, theta_prev, tau: float) -> float:
        """Elastic energy plus (1/(2 tau)) ||theta - theta_prev||_L2^2."""
        d = theta - theta_prev
        return self.elastic_energy(theta) + float(self.inner(d, d)) / (2.0 * tau)

    def elastic_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Lumped L2 gradient of the elastic energy (flux differences)."""
        padded = np.zeros(theta.shape[0] + 1)
        padded[1:-1] = cell_flux(self.slopes(theta), self.p)
        return (padded[:-1] - padded[1:]) / self.weights

    def step_gradient(self, theta, theta_prev, tau: float) -> np.ndarray:
        """Lumped L2 gradient of :meth:`step_energy`."""
        return self.elastic_gradient(theta) + (theta - theta_prev) / tau

    def constraint_values(self, tangents: np.ndarray) -> np.ndarray:
        """The four junction constraints (see :func:`constraint_vector`)
        from the tangents T of :meth:`tangents`."""
        cos_sin = self.curve_sums(tangents[::-1])  # (2, 3): rows cos, sin
        return np.ravel(self.SIGNS @ cos_sin.T) - self.junction_offsets

    def remainders(self, tangents: np.ndarray, move: np.ndarray,
                   tau: float) -> np.ndarray:
        """-(1/tau) <phi_r, move> = -(1/tau) (D E <e_b, move>)_r, the
        movement part of the multiplier right-hand side."""
        return -(self.D @ self.E) @ self.products(tangents, move) / tau

    def multiplier_data(self, theta: np.ndarray,
                        tangents: np.ndarray) -> "MultiplierMatrices":
        """A, G and det A (see :class:`MultiplierMatrices`): A from the
        per-curve moments of T, G from one cellwise reduceat."""
        (ss, sc), (_, cc) = self.curve_sums(tangents[:, None], tangents[None])
        A = np.array([[ss, -sc], [-sc, cc]]).transpose(2, 0, 1)
        mid = 0.5 * (theta[:-1] + theta[1:])
        w = self.cell_h * np.abs(self.slopes(theta)) ** self.p
        G = np.add.reduceat(w * np.stack([np.cos(mid), np.sin(mid)]),
                            self.starts, axis=-1).T
        return MultiplierMatrices(A=A, G=G, dets=ss * cc - sc * sc)


@lru_cache(maxsize=8)
def _layout(grids, offsets: bytes, p: float) -> PackedLayout:
    return PackedLayout(grids, np.frombuffer(offsets), p)


def p_energy(state: NetworkState) -> float:
    """Total elastic energy sum_j (1/p) int |d theta^j/ds|^p (midpoint rule)."""
    layout, theta = PackedLayout.of(state)
    return layout.elastic_energy(theta)


def implicit_step_energy(candidate: NetworkState, prev: NetworkState,
                         tau: float) -> float:
    """Elastic energy plus movement penalty (1/(2 tau)) ||cand - prev||_L2^2."""
    require_compatible(candidate, prev)
    if tau <= 0.0:
        raise ValueError("time step tau must be positive")
    layout, theta = PackedLayout.of(candidate)
    return layout.step_energy(theta, layout.pack(prev), tau)


def constraint_vector(state: NetworkState) -> np.ndarray:
    """Evaluate the four tangent-integral constraints, shape (4,).

    With I_j = int over curve j and (dx, dy) the stored offsets:

        c1 = I_1 cos - I_2 cos - off12_x      c2 = I_1 sin - I_2 sin - off12_y
        c3 = I_3 cos - I_1 cos - off31_x      c4 = I_3 sin - I_1 sin - off31_y

    All four vanish exactly when the three curves traced out from a common
    junction end at mutually consistent points.
    """
    layout, theta = PackedLayout.of(state)
    return layout.constraint_values(layout.tangents(theta))


def constraint_defect(values: np.ndarray) -> float:
    """Largest absolute constraint value."""
    return float(np.max(np.abs(values)))


def constraint_gradients(state: NetworkState):
    """L2 gradients of the four constraints, as nodal arrays per curve.

    Returns a list of four triples; entry [l][j] is the nodal array of
    d c_l / d theta^j.  Pairing any of these against a variation with the
    trapezoid rule gives the exact derivative of ``constraint_vector``.
    """
    layout, theta = PackedLayout.of(state)
    return [layout.unpack(g)
            for g in layout.fields(layout.E, layout.tangents(theta))]


@dataclass(frozen=True)
class MultiplierMatrices(object):
    """Per-curve Gram matrices and elastic forcing vectors.

    ``A`` has shape (3, 2, 2); curve i contributes

        A^i = [[ int sin^2,    -int sin cos ],
               [ -int sin cos,  int cos^2   ]]

    (trapezoid rule).  ``G`` has shape (3, 2): the cellwise sums
    sum_c h |D theta_c|^p (cos, sin)(theta averaged over cell c).  ``dets``
    are the three determinants of A.
    """

    A: np.ndarray
    G: np.ndarray
    dets: np.ndarray


def assemble_multiplier_data(state: NetworkState) -> MultiplierMatrices:
    """Assemble the A matrices, forcing vectors G and determinants."""
    layout, theta = PackedLayout.of(state)
    return layout.multiplier_data(theta, layout.tangents(theta))


def det_identity_check(f: AngleField):
    """Return (det A, double-sum form) of the Gram determinant.

    The determinant of the single-curve Gram matrix equals

        (1/2) int int sin^2(theta(s) - theta(t)) ds dt

    exactly (Lagrange identity), for any quadrature weights, so the two
    numbers agree to rounding.  Quadratic cost in the node count.
    """
    w = trapezoid_weights(f.grid)
    s, c = np.sin(f.values), np.cos(f.values)
    det = float(np.sum(w * s * s) * np.sum(w * c * c) - np.sum(w * s * c) ** 2)
    diff = f.values[:, None] - f.values[None, :]
    double = 0.5 * float(w @ (np.sin(diff) ** 2) @ w)
    return det, double


def _running(op, v: np.ndarray, size: int) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) over every window of ``size``
    consecutive entries of ``v``: out[i] = op.reduce(v[i:i + size]).

    Doubling: after each pass out[i] covers v[i:i + span] with span twice
    as long; one last ``op`` of two overlapping spans covers ``size``.
    O(m log size) time, O(m) memory, exact for max and min.
    """
    out, span = v, 1
    while 2 * span <= size:
        out = op(out[:-span], out[span:])
        span *= 2
    return op(out[:v.shape[0] - size + 1], out[size - span:])


def _sharp_modulus_inverse(f: AngleField, y: float) -> float:
    """Largest r = k*h such that |theta(s) - theta(t)| <= y whenever
    |s - t| <= r, measured over grid nodes.

    For the piecewise-linear interpolant this node measure is sharp at
    grid-multiple distances: on each cell theta is monotone affine, so the
    oscillation over any window is attained with both ends at nodes once the
    window is widened to the enclosing grid multiple.

    The window oscillation is nondecreasing in k, so k is found by bisection;
    each probe takes the largest max - min over the windows of k + 1
    consecutive nodes (:func:`_running`): O(m log^2 m) time, O(m) memory.
    """
    vals = f.values
    lo, hi = 0, vals.shape[0]  # the answer k lies in [lo, hi)
    while hi - lo > 1:
        k = (lo + hi) // 2
        osc = np.max(_running(np.maximum, vals, k + 1)
                     - _running(np.minimum, vals, k + 1))
        if osc <= y:
            lo = k
        else:
            hi = k
    return lo * f.grid.spacing


@dataclass(frozen=True)
class OscillationStats(object):
    """Oscillation-based lower bound on the Gram determinant."""

    osc: float
    delta0: float
    modulus_inverse_at: float
    det_lower_bound: float


def oscillation_stats(f: AngleField) -> OscillationStats:
    """Oscillation, clipped oscillation and the determinant lower bound

        det A >= (L/2) * sin^2(delta0/4) * min(r, L/2),

    delta0 = min(osc, pi) and r the largest window over which theta varies
    by at most delta0/4 (:func:`_sharp_modulus_inverse`).
    """
    osc = f.oscillation()
    delta0 = min(osc, np.pi)
    half_l = 0.5 * f.grid.length
    if delta0 <= 0.0:
        return OscillationStats(osc, delta0, half_l, 0.0)
    r = _sharp_modulus_inverse(f, 0.25 * delta0)
    bound = half_l * np.sin(0.25 * delta0) ** 2 * min(r, half_l)
    return OscillationStats(osc, delta0, r, float(bound))


def step_gradient(candidate: NetworkState, prev: NetworkState, tau: float):
    """Lumped L2 gradient of the step functional, one nodal array per curve.

    Node k of curve j carries

        (theta_k - theta_prev_k) / tau - (discrete p-Laplacian of theta)_k

    where the discrete p-Laplacian takes differences of cell fluxes
    F_c = |D_c|^(p-2) D_c over the node's dual cell (half cells at the
    boundary, which encodes the natural zero-flux boundary condition).
    Dividing the Euclidean partial derivatives of the step functional by the
    trapezoid weights yields exactly these values.
    """
    require_compatible(candidate, prev)
    layout, theta = PackedLayout.of(candidate)
    return layout.unpack(layout.step_gradient(theta, layout.pack(prev), tau))
