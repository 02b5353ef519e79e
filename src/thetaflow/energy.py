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
    "assemble_multiplier_data",
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
    e_{2j+a} = T_a on curve j (zero elsewhere), with T = (sin, cos) theta:

      * the constraint gradients are g = E e, E the constant (4, 6) matrix
        below; the variation directions are phi = D g = (D E) e, the
        product D E being the constant ``DE``;
      * lumped products with the e_b are per-curve node sums of W T times
        a nodal vector (one ``np.add.reduceat`` over the curve starts, as
        accurate as a pairwise sum), so every 4x4 matrix of the solver
        is E @ (block-diagonal per-curve 2x2 :meth:`moments`) @ F^T
        (:meth:`moment_products`): the Gram matrix of the gradients and
        the Schur complement of the Newton direction take F = E; the
        multiplier matrix J[l, r] = <g_l, phi_r> and the projection
        Jacobian, which starts out equal to it, take F = D E;
      * D E maps six products with the e_b to the four directions: the
        multiplier forcing is -(D E) f (:meth:`multiplier_data`), the
        remainders -(D E) <e_b, move> / tau (:meth:`remainders`);
      * a combination sum_b c_b e_b is :meth:`fields` of c and T.

    :meth:`tangents` returns T in rows 0-1 of a (4, M) array and W T, T
    times the trapezoid weights, in rows 2-3, so each evaluated point is
    weighted once: every lumped product (:meth:`products`, :meth:`moments`,
    :meth:`constraint_values` and the Newton right-hand sides of
    ``scheme``) reads W T, and whatever reads T as a basis (:meth:`fields`,
    and the second factor of :meth:`moments`) takes rows 0-1 of the array
    it is given, so a tangents array serves there too.

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
    DE = D @ E
    # fields(c ER, T) = fields(c E, dT/dtheta), dT/dtheta = (cos, -sin) theta
    ER = E @ np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    # flat index of entry (2j + a, 2j + a') of a 6x6 matrix, at [a, a', j]
    BLOCK_DIAGONAL = np.add.outer(np.add.outer([0, 6], [0, 1]), [0, 14, 28])

    def __init__(self, grids, offsets: np.ndarray, p: float):
        self.counts = np.array([g.node_count for g in grids])
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        self.breaks = tuple(int(k) for k in self.starts[1:])
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
        # slicing, without np.split's per-call argument handling
        a, b = self.breaks
        return theta[:a], theta[a:b], theta[b:]

    def inner(self, a: np.ndarray, b: np.ndarray):
        """Lumped L2 products sum_k w_k a[..., k] b_k (each row of a with b)."""
        return (a * (self.weights * b)).sum(axis=-1)

    def tangents(self, theta: np.ndarray) -> np.ndarray:
        """T = (sin theta, cos theta) in rows 0-1 and W T in rows 2-3,
        shape (4, M)."""
        out = np.empty((4, theta.shape[0]))
        np.sin(theta, out=out[0])
        np.cos(theta, out=out[1])
        np.multiply(out[:2], self.weights, out=out[2:])
        return out

    def curve_sums(self, a: np.ndarray) -> np.ndarray:
        """Lumped integrals of ``a`` over each curve: shape (..., 3).  The
        lumped products with the tangents read their W T rows instead:
        weighting T before it is broadcast against a second factor is much
        the faster order for the (2, 1, M) x (1, 2, M) products of
        :meth:`moments`, and W T is computed once per point."""
        return np.add.reduceat(a * self.weights, self.starts, axis=-1)

    def products(self, tangents: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The six lumped products <e_b, f>, b = 2j + a, of the basis built
        on ``tangents`` (the (4, M) array of :meth:`tangents`) with one
        nodal vector ``f``."""
        return np.add.reduceat(tangents[2:] * f, self.starts,
                               axis=-1).T.ravel()

    def moments(self, tangents: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Per-curve 2x2 moments <T_a, other_a'> of the (4, M) ``tangents``
        with rows 0-1 of ``other``, shape (2, 2, 3)."""
        return np.add.reduceat(tangents[2:, None] * other[None, :2],
                               self.starts, axis=-1)

    def moment_products(self, blocks: np.ndarray,
                        coef: np.ndarray) -> np.ndarray:
        """Lumped products <g_k, f_r>, (4, n), of the constraint gradients
        g = E e with f_r = sum_c coef[r, c] o_c, from the :meth:`moments`
        ``blocks`` <T_a, o_a'>: E @ blockdiag(blocks) @ coef^T, as e_b and
        o_c on different curves are orthogonal."""
        moments = np.zeros(36)
        moments[self.BLOCK_DIAGONAL] = blocks
        return self.E @ moments.reshape(6, 6) @ coef.T

    def fields(self, coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """sum_b coef[..., b] e_b with e_{2j+a} = basis[a] on curve j, a in
        rows 0-1 of ``basis``: nodal arrays of shape (..., M)."""
        per_curve = coef.reshape(coef.shape[:-1] + (3, 2)).swapaxes(-1, -2)
        per_node = np.repeat(per_curve, self.counts, axis=-1)
        return np.einsum("...am,am->...m", per_node, basis[:2])

    def oscillations(self, theta: np.ndarray) -> np.ndarray:
        """Per-curve max - min of a packed vector, shape (3,)."""
        return (np.maximum.reduceat(theta, self.starts)
                - np.minimum.reduceat(theta, self.starts))

    def slopes(self, theta: np.ndarray) -> np.ndarray:
        """Cellwise D theta, shape (M - 1,): the slopes that the energies,
        the gradients and the Newton band of a point are computed from."""
        # np.diff's subtraction, without its per-call argument handling
        return (theta[1:] - theta[:-1]) * self.inv_h

    def cell_energies(self, slopes: np.ndarray) -> np.ndarray:
        """Cellwise h |D theta|^p of the :meth:`slopes` D theta, the
        midpoint-rule terms of p times the elastic energy."""
        return self.cell_h * np.abs(slopes) ** self.p

    def elastic_energy(self, theta: np.ndarray) -> float:
        """sum_j (1/p) int |d theta^j/ds|^p (midpoint rule)."""
        return float(self.cell_energies(self.slopes(theta)).sum()) / self.p

    def step_energy(self, theta, theta_prev, tau: float,
                    cells=None) -> float:
        """Elastic energy plus (1/(2 tau)) ||theta - theta_prev||_L2^2, the
        elastic part from the :meth:`cell_energies` ``cells`` of ``theta``
        when the caller already has them."""
        if cells is None:
            cells = self.cell_energies(self.slopes(theta))
        d = theta - theta_prev
        return (float(cells.sum()) / self.p
                + float(self.inner(d, d)) / (2.0 * tau))

    def step_gradient(self, theta, theta_prev, tau: float,
                      slopes=None) -> np.ndarray:
        """Lumped L2 gradient of :meth:`step_energy` (flux differences over
        the weights plus the movement), from the :meth:`slopes` ``slopes``
        of ``theta`` when the caller already has them."""
        if slopes is None:
            slopes = self.slopes(theta)
        padded = np.zeros(slopes.shape[0] + 2)
        padded[1:-1] = cell_flux(slopes, self.p)
        return ((padded[:-1] - padded[1:]) / self.weights
                + (theta - theta_prev) / tau)

    def constraint_values(self, tangents: np.ndarray) -> np.ndarray:
        """The four junction constraints (see :func:`constraint_vector`)
        from the (4, M) array of :meth:`tangents`."""
        # per-curve sums of W sin and W cos, reversed to rows cos, sin
        cos_sin = np.add.reduceat(tangents[2:], self.starts, axis=-1)[::-1]
        return np.ravel(self.SIGNS @ cos_sin.T) - self.junction_offsets

    def remainders(self, tangents: np.ndarray, move: np.ndarray,
                   tau: float) -> np.ndarray:
        """-(1/tau) <phi_r, move> = -(1/tau) (D E <e_b, move>)_r, the
        movement part of the multiplier right-hand side."""
        return -self.DE @ self.products(tangents, move) / tau

    def multiplier_data(self, theta: np.ndarray, blocks: np.ndarray,
                        cells: np.ndarray):
        """(J, forcing, dets) of the multiplier system x . J = forcing +
        :meth:`remainders`, from the :meth:`moments` ``blocks`` of T with T
        and the :meth:`cell_energies` ``cells`` of ``theta``: J[l, r] =
        <g_l, phi_r> is :meth:`moment_products` with F = D E; the forcing
        is -(D E) f, f_b the sum over curve j of ``cells`` times
        (dT/dtheta)_a = (cos, -sin)_a at the cell midpoints, b = 2j + a,
        which is -(D ER) f' with f' the same sums of T; dets are the
        blocks' determinants."""
        mid = 0.5 * (theta[:-1] + theta[1:])
        # overflowing cells sum inf of both signs to NaN: a non-finite
        # forcing, which solve_multipliers refuses
        with np.errstate(invalid="ignore"):
            f = np.add.reduceat(cells * np.stack((np.sin(mid), np.cos(mid))),
                                self.starts, axis=-1).T.ravel()
        (ss, sc), (_, cc) = blocks
        # (-D @ ER) first: an exact integer matrix, so each entry of the
        # forcing is one rounded sum of two curve totals
        return (self.moment_products(blocks, self.DE), -self.D @ self.ER @ f,
                ss * cc - sc * sc)


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
    layout, theta, theta_prev = _pair(candidate, prev, tau)
    return layout.step_energy(theta, theta_prev, tau)


def _pair(candidate: NetworkState, prev: NetworkState, tau: float):
    """(layout, packed candidate, packed prev) of a step pair; GridMismatch
    unless the states match, ValueError unless tau is finite and positive."""
    require_compatible(candidate, prev)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError("time step tau must be finite and positive")
    layout, theta = PackedLayout.of(candidate)
    return layout, theta, layout.pack(prev)


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


def assemble_multiplier_data(state: NetworkState):
    """(J, forcing, dets) of the multiplier system of ``state``: see
    :meth:`PackedLayout.multiplier_data`."""
    layout, theta = PackedLayout.of(state)
    tangents = layout.tangents(theta)
    return layout.multiplier_data(theta, layout.moments(tangents, tangents),
                                  layout.cell_energies(layout.slopes(theta)))


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
    layout, theta, theta_prev = _pair(candidate, prev, tau)
    return layout.unpack(layout.step_gradient(theta, theta_prev, tau))
