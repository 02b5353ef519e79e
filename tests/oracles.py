"""Independent reference implementations for cross-checking the package.

Everything here is written as plain loops or array expressions against the
definitions, without reusing package internals, so agreement with the
package is meaningful.  The one exception is :func:`weak_residual`, the
test-facing form of the residual every step report carries: it packs
states and calls the shipped pieces, so tests of it test the solver's own
residual.
"""

import json
import math
from dataclasses import asdict

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import brentq

from thetaflow import scheme
from thetaflow.energy import PackedLayout


def naive_trapezoid(values, length):
    """Trapezoid rule as an explicit loop."""
    values = np.asarray(values, dtype=float)
    h = length / (len(values) - 1)
    total = 0.0
    for k in range(len(values) - 1):
        total += 0.5 * h * (values[k] + values[k + 1])
    return total


def naive_p_energy(values_list, lengths, p):
    """sum_j (1/p) int |theta_s|^p with explicit cell loops."""
    total = 0.0
    for values, length in zip(values_list, lengths):
        h = length / (len(values) - 1)
        for k in range(len(values) - 1):
            slope = (values[k + 1] - values[k]) / h
            total += h * abs(slope) ** p / p
    return total


def naive_step_energy(cand_list, prev_list, lengths, p, tau):
    total = naive_p_energy(cand_list, lengths, p)
    for cand, prev, length in zip(cand_list, prev_list, lengths):
        d = np.asarray(cand, dtype=float) - np.asarray(prev, dtype=float)
        total += naive_trapezoid(d * d, length) / (2.0 * tau)
    return total


def naive_constraints(values_list, lengths, offsets):
    """The four junction constraints from their definition."""
    ic = [naive_trapezoid(np.cos(np.asarray(v, float)), l)
          for v, l in zip(values_list, lengths)]
    isn = [naive_trapezoid(np.sin(np.asarray(v, float)), l)
           for v, l in zip(values_list, lengths)]
    off = np.asarray(offsets, dtype=float)
    return np.array([
        ic[0] - ic[1] - off[0, 0],
        isn[0] - isn[1] - off[0, 1],
        ic[2] - ic[0] - off[1, 0],
        isn[2] - isn[0] - off[1, 1],
    ])


def fd_step_gradient(cand_list, prev_list, lengths, p, tau, eps=1e-6):
    """Central finite differences of the step energy, rescaled to the
    lumped (trapezoid-weighted) representer convention."""
    out = []
    for j, values in enumerate(cand_list):
        values = np.asarray(values, dtype=float)
        m = len(values)
        h = lengths[j] / (m - 1)
        g = np.zeros(m)
        for k in range(m):
            w = 0.5 * h if k in (0, m - 1) else h
            up = [np.array(v, dtype=float) for v in cand_list]
            dn = [np.array(v, dtype=float) for v in cand_list]
            up[j][k] += eps
            dn[j][k] -= eps
            e_up = naive_step_energy(up, prev_list, lengths, p, tau)
            e_dn = naive_step_energy(dn, prev_list, lengths, p, tau)
            g[k] = (e_up - e_dn) / (2.0 * eps * w)
        out.append(g)
    return out


def double_sum_det(values, length):
    """(1/2) sum_ij w_i w_j sin^2(theta_i - theta_j), explicit loops."""
    values = np.asarray(values, dtype=float)
    m = len(values)
    h = length / (m - 1)
    w = np.full(m, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += w[i] * w[j] * np.sin(values[i] - values[j]) ** 2
    return 0.5 * total


def double_sum(values, length):
    """(1/2) w^T [sin^2(theta_i - theta_j)] w with w the trapezoid weights:
    :func:`double_sum_det` as one (m, m) array product.

    It equals the Gram determinant int sin^2 int cos^2 - (int sin cos)^2
    exactly (Lagrange identity), for any quadrature weights, so the two
    agree to rounding.
    """
    values = np.asarray(values, dtype=float)
    w = packed_weights([values], [length])
    diff = values[:, None] - values[None, :]
    return 0.5 * float(w @ (np.sin(diff) ** 2) @ w)


def weak_residual(candidate, prev, tau, mult):
    """Weak residual (see ``scheme._weak_residual``) of the step from
    ``prev`` to ``candidate`` with multipliers ``mult``, its gradient from
    the shipped layout of ``candidate``."""
    layout, theta = PackedLayout.of(candidate)
    grad = layout.step_gradient(theta, layout.pack(prev), tau)
    return scheme._weak_residual(layout, layout.tangents(theta), grad, mult)


def node_pair_modulus_inverse(values, spacing, y):
    """Largest k*h such that |theta_i - theta_j| <= y whenever |i - j| <= k,
    by scanning every node pair (m x m differences)."""
    vals = np.asarray(values, dtype=float)
    m = vals.shape[0]
    diff = np.abs(vals[:, None] - vals[None, :])
    # osc_by_gap[k] = max |theta_i - theta_j| over |i - j| <= k
    worst_at_gap = np.zeros(m)
    for k in range(1, m):
        worst_at_gap[k] = np.max(np.diagonal(diff, offset=k))
    osc_by_gap = np.maximum.accumulate(worst_at_gap)
    ok = np.flatnonzero(osc_by_gap <= y)
    k_best = int(ok[-1]) if ok.size else 0
    return k_best * spacing


def naive_gram(values, length):
    """The 2x2 matrix [[int sin^2, -int sin cos], [-int sin cos, int cos^2]]."""
    v = np.asarray(values, dtype=float)
    ss = naive_trapezoid(np.sin(v) ** 2, length)
    cc = naive_trapezoid(np.cos(v) ** 2, length)
    sc = naive_trapezoid(np.sin(v) * np.cos(v), length)
    return np.array([[ss, -sc], [-sc, cc]])


def naive_forcing(values, length, p):
    """sum_c h |D_c|^p (cos, sin) at cell-averaged angles, explicit loop."""
    v = np.asarray(values, dtype=float)
    h = length / (len(v) - 1)
    out = np.zeros(2)
    for k in range(len(v) - 1):
        slope = (v[k + 1] - v[k]) / h
        mid = 0.5 * (v[k] + v[k + 1])
        out += h * abs(slope) ** p * np.array([np.cos(mid), np.sin(mid)])
    return out


def naive_remainder_piece(cand, prev, length, tau):
    """(1/tau) int (cand - prev) (sin cand, -cos cand)."""
    c = np.asarray(cand, dtype=float)
    d = c - np.asarray(prev, dtype=float)
    return np.array([
        naive_trapezoid(d * np.sin(c), length),
        -naive_trapezoid(d * np.cos(c), length),
    ]) / tau


def block_multiplier_system(grams, forcings):
    """The multiplier system x . J = rhs (remainders left out) in its 2x2
    block form, from per-curve Gram blocks A_i (:func:`naive_gram`) and
    forcings G_i (:func:`naive_forcing`):

        J = [[ A2, -(A1 + A2)],      rhs = (G3 - G2, G2 - G1)
             [ A3,   A1      ]]

    The package builds J as <g_l, phi_r> from moments and the forcing as
    -(D E) f, f the sums against (cos, -sin): the same numbers, with the
    sign of -sin carried by the (G3 - G2, G2 - G1) differences here."""
    a1, a2, a3 = grams
    g1, g2, g3 = forcings
    kkt = np.block([[a2, -(a1 + a2)], [a3, a1]])
    return kkt, np.concatenate([g3 - g2, g2 - g1])


def naive_multiplier_system(values_list, lengths, p):
    """:func:`block_multiplier_system` of the naive Gram blocks and
    forcings of the curves."""
    return block_multiplier_system(
        [naive_gram(v, l) for v, l in zip(values_list, lengths)],
        [naive_forcing(v, l, p) for v, l in zip(values_list, lengths)])


def brute_force_multipliers(cand_list, prev_list, lengths, p, tau):
    """Solve the 4x4 multiplier system assembled entirely from the oracle
    pieces (Gram blocks, forcings, remainders), via dense lstsq on the
    row-vector equation x . J = rhs."""
    kkt, forcing = naive_multiplier_system(cand_list, lengths, p)
    r = [naive_remainder_piece(c, q, l, tau)
         for c, q, l in zip(cand_list, prev_list, lengths)]
    rhs = forcing + np.concatenate([r[2] - r[1], r[1] - r[0]])
    x, *_ = np.linalg.lstsq(kkt.T, rhs, rcond=None)
    return x[:2], x[2:]


def packed_weights(values_list, lengths):
    """Trapezoid weights of the curves, concatenated curve after curve."""
    out = []
    for values, length in zip(values_list, lengths):
        m = len(values)
        w = np.full(m, length / (m - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        out.append(w)
    return np.concatenate(out)


def packed_constraint_gradients(values_list):
    """(4, M) lumped gradients of the four constraints, curve after curve:

        g1 = (-sin t1, sin t2, 0)    g2 = (cos t1, -cos t2, 0)
        g3 = (sin t1, 0, -sin t3)    g4 = (-cos t1, 0, cos t3)
    """
    t1, t2, t3 = (np.asarray(v, dtype=float) for v in values_list)
    s1, s2, s3 = np.sin(t1), np.sin(t2), np.sin(t3)
    c1, c2, c3 = np.cos(t1), np.cos(t2), np.cos(t3)
    z1, z2, z3 = np.zeros_like(t1), np.zeros_like(t2), np.zeros_like(t3)
    return np.array([
        np.concatenate([-s1, s2, z3]),
        np.concatenate([c1, -c2, z3]),
        np.concatenate([s1, z2, -s3]),
        np.concatenate([-c1, z2, c3]),
    ])


def rows_gram(weights, a, b):
    """Lumped products of the rows of ``a`` with those of ``b``, one
    (4, 4, M) product summed over nodes."""
    return np.sum((a * weights)[:, None] * b[None], axis=-1)


def rows_tangent_project(weights, grads, grad):
    """``grad`` minus its lumped L2 projection onto the rows of ``grads``
    (4, M), through their 4x4 Gram matrix."""
    gram = rows_gram(weights, grads, grads)
    rhs = np.sum(grads * (weights * grad), axis=-1)
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return grad - coef @ grads


def rows_projection_jacobian(weights, grads, frozen_grads):
    """J[l, r] = <g_l, phi_r> with g at the current point and the variation
    directions phi_1 = g1 + g3, phi_2 = g2 + g4, phi_3 = -g1, phi_4 = -g2
    built from gradients frozen at another point."""
    g1, g2, g3, g4 = frozen_grads
    phi = np.array([g1 + g3, g2 + g4, -g1, -g2])
    return rows_gram(weights, grads, phi)


def rows_newton_direction(weights, grads, grad, bands):
    """(direction, Schur complement) of the bordered system
    [[B, C^T], [C, 0]] [d, y] = [W grad, 0], C = W grads, B given in upper
    banded form: one banded solve with the five right-hand sides
    W (grad, g1..g4)."""
    rhs = np.vstack([grad, grads]) * weights
    sol = solveh_banded(bands, rhs.T)
    d0, z = sol[:, 0], sol[:, 1:]
    schur = rows_gram(weights, grads, z.T)
    rhs4 = np.sum(grads * (weights * d0), axis=-1)
    y, *_ = np.linalg.lstsq(schur, rhs4, rcond=None)
    return d0 - z @ y, schur


def curve_sums(weights, starts, a, b=None):
    """Per-curve lumped integrals of ``a * b`` (``a`` alone if b is None),
    summed as the tangent kernels once summed them, weighting on every
    call: ``a`` times the trapezoid weights, then times ``b``, then one
    ``np.add.reduceat`` over the curve starts."""
    rows = a * weights
    if b is not None:
        rows = rows * b
    return np.add.reduceat(rows, starts, axis=-1)


def curve_sums_products(weights, starts, tangents, f):
    """The six products <e_b, f>, b = 2j + a, from the (2, M) T."""
    return curve_sums(weights, starts, tangents, f).T.ravel()


def curve_sums_moments(weights, starts, tangents, other):
    """Per-curve 2x2 moments <T_a, other_a'>, shape (2, 2, 3)."""
    return curve_sums(weights, starts, tangents[:, None], other[None])


def curve_sums_constraint_values(weights, starts, offsets, tangents):
    """The four junction constraints from the (2, M) T: per-curve
    integrals of cos and sin, paired curve 1 with 2 and curve 3 with 1."""
    cos_sin = curve_sums(weights, starts, tangents[::-1])
    signs = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0]])
    return np.ravel(signs @ cos_sin.T) - np.ravel(offsets)


def vstack_newton_rhs(weights, grad, tangents):
    """The (3, M) right-hand sides W (grad, sin theta, cos theta) of the
    Newton band solve, stacked and then weighted in place."""
    rhs = np.vstack([grad, tangents])
    rhs *= weights
    return rhs


def block_diagonal_moment_products(e, blocks, coef):
    """e @ blockdiag(per-curve 2x2 blocks[:, :, j]) @ coef^T, the block
    diagonal built by zero-filling a (3, 2, 3, 2) array and fancy-indexing
    its three diagonal blocks."""
    moments = np.zeros((3, 2, 3, 2))
    j = np.arange(3)
    moments[j, :, j, :] = blocks.transpose(2, 0, 1)
    return e @ moments.reshape(6, 6) @ coef.T


def naive_junction_balance(values_list, lengths, p, lam, mu):
    """Larger Euclidean force-balance defect over the two curve ends.

    At each end, sum over curves of (one-sided flux divergence) * (unit
    normal) minus (conserved scalar extrapolated to the end) * (unit
    tangent), the conserved scalar of curve j being (p-1)/p |theta_s|^p -
    c_j . (cos, sin) theta with c = (lam - mu, -lam, mu).  Cell data are
    walked from the end inwards (fluxes negated at the far end, where the
    outward direction is reversed); the divergence and the end slope use
    second-order one-sided stencils, first-order ones on two-cell curves.
    """
    coeffs = [(lam[0] - mu[0], lam[1] - mu[1]), (-lam[0], -lam[1]),
              (mu[0], mu[1])]
    worst = 0.0
    for start in (True, False):
        defect = [0.0, 0.0]
        for values, length, (a, b) in zip(values_list, lengths, coeffs):
            n = len(values)
            h = length / (n - 1)
            cells = range(n - 1) if start else range(n - 2, -1, -1)
            sign = 1.0 if start else -1.0
            slopes = [(values[k + 1] - values[k]) / h for k in cells]
            flux = [sign * math.copysign(abs(d) ** (p - 1.0), d)
                    for d in slopes]
            if len(slopes) >= 3:
                slope_end = (1.875 * slopes[0] - 1.25 * slopes[1]
                             + 0.375 * slopes[2])
                div = (-2.0 * flux[0] + 3.0 * flux[1] - flux[2]) / h
            else:
                slope_end = 1.5 * slopes[0] - 0.5 * slopes[1]
                div = (flux[1] - flux[0]) / h
            theta = values[0] if start else values[-1]
            c, s = math.cos(theta), math.sin(theta)
            conserved = ((p - 1.0) / p) * abs(slope_end) ** p - (a * c + b * s)
            defect[0] += div * -s - conserved * c
            defect[1] += div * c - conserved * s
        worst = max(worst, math.hypot(*defect))
    return worst


LENS_CURVATURE_CONTINUUM = 1.8954942670339809
"""Root of sin(k) = k/2 on (0, pi): the continuum curvature of a length-2
arc spanning a chord of 1.  Discrete-grid curvatures converge to this at
second order in h."""


def lens_curvature_reference():
    """Recompute the continuum lens curvature independently."""
    return brentq(lambda k: 2.0 * np.sin(k) / k - 1.0, 0.5, 3.0,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


def random_angle_field_values(rng, m, smooth=True, scale=1.0):
    """Random nodal values: smooth low-frequency Fourier combinations, or
    raw uniform noise when smooth=False."""
    s = np.linspace(0.0, 1.0, m)
    if not smooth:
        return scale * rng.uniform(-1.0, 1.0, size=m)
    vals = np.zeros(m)
    for freq in range(1, 4):
        vals += rng.normal() / freq * np.sin(np.pi * freq * s + rng.uniform(0, 2 * np.pi))
    return scale * vals


def loop_positions(values, length):
    """Node positions of a curve starting at the origin: running sum of
    trapezoid increments (h/2) (tangent_k + tangent_k+1), one node at a time."""
    v = np.asarray(values, dtype=float)
    h = length / (len(v) - 1)
    cos, sin = np.cos(v), np.sin(v)
    pos = np.zeros((len(v), 2))
    for k in range(len(v) - 1):
        pos[k + 1, 0] = pos[k, 0] + 0.5 * h * (cos[k] + cos[k + 1])
        pos[k + 1, 1] = pos[k, 1] + 0.5 * h * (sin[k] + sin[k + 1])
    return pos


def _g17(x):
    return format(float(x), ".17g")


def per_value_csv(frames):
    """Trajectory CSV text, one format call per value.

    ``frames`` lists (step, t, curves) with curves a list of
    (nodal values, length) per curve."""
    rows = ["step,t,curve,s,theta,x,y\n"]
    for i, t, curves in frames:
        for j, (values, length) in enumerate(curves):
            pos = loop_positions(values, length)
            s_nodes = np.linspace(0.0, length, len(values))
            for k in range(len(values)):
                rows.append(
                    f"{i},{_g17(t)},{j + 1},{_g17(s_nodes[k])},"
                    f"{_g17(values[k])},{_g17(pos[k][0])},{_g17(pos[k][1])}\n"
                )
    return "".join(rows)


def svg_view_box(curves):
    """(lo, hi) corners of the curves' bounding box padded by 20 percent."""
    pts = np.vstack([loop_positions(v, l) for v, l in curves])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.2 * max(float(np.max(hi - lo)), 1e-6)
    return lo - pad, hi + pad


def per_value_svg_frame(curves, caption, lo, hi):
    """One SVG frame of ``curves`` (as in :func:`per_value_csv`), one
    f-string per polyline point; y is flipped because SVG y grows down."""
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    view = f"{lo[0]:.6g} {-hi[1]:.6g} {width:.6g} {height:.6g}"
    stroke = 0.006 * max(width, height)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view}" width="640" height="640">\n'
    ]
    positions = [loop_positions(v, l) for v, l in curves]
    for color, pos in zip(("#1f77b4", "#d62728", "#2ca02c"), positions):
        pts = " ".join(f"{x:.6g},{-y:.6g}" for x, y in pos)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.6g}"/>\n'
        )
    marker = 1.6 * stroke
    parts.append(f'<circle cx="0" cy="0" r="{marker:.6g}" fill="#000000"/>\n')
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


def _multipliers_dict(mult):
    return {"lambda": mult[:2].tolist(), "mu": mult[2:].tolist()}


def _report_dict(rep):
    d = asdict(rep)
    d["dets"] = rep.dets.tolist()
    d["oscs"] = rep.oscs.tolist()
    d["multipliers"] = _multipliers_dict(rep.multipliers)
    return d


def _stationary_dict(rep):
    return {
        "step_index": rep.step_index,
        "residuals": rep.residuals.tolist(),
        "bc_defect": rep.bc_defect,
        "conserved_drift": rep.conserved_drift.tolist(),
        "junction_balance_defect": rep.junction_balance_defect,
        "multipliers": _multipliers_dict(rep.multipliers),
    }


def report_json(traj, spec, stationary, halt_reason):
    """The text of a run's ``report.json``, every array of every record
    converted to a list by name."""
    doc = {
        "config": asdict(spec),
        "times": [float(t) for t in traj.times],
        "steps": [_report_dict(r) for r in traj.reports],
        "stationary": None if stationary is None else _stationary_dict(stationary),
        "halt_reason": halt_reason,
    }
    return json.dumps(doc, indent=1) + "\n"
