import warnings

import numpy as np
import pytest

from thetaflow import (
    AngleField,
    DegenerateGeometry,
    FlowConfig,
    Grid,
    NetworkState,
    SingularSystem,
    p_energy,
    run_flow,
)
from thetaflow import multipliers
from thetaflow.app.presets import preset_symmetric_lens
from thetaflow.energy import (PackedLayout, assemble_multiplier_data,
                              constraint_vector)
from thetaflow.grids import trapezoid_weights
from thetaflow.multipliers import (
    COND_CAP,
    bound_constant,
    compute_remainders,
    directional_constraint_jacobian,
    multiplier_bound,
    multiplier_norm,
    solve_capped,
    solve_multipliers,
    variation_directions,
)
from thetaflow.scheme import _tangent_project

from helpers import make_pair, make_state
from oracles import (
    block_multiplier_system,
    brute_force_multipliers,
    naive_multiplier_system,
    naive_remainder_piece,
)


def test_variation_directions_zero_slots(rng):
    s = make_state(rng)
    phi = variation_directions(s)
    v1, v2, v3 = s.values()
    assert np.all(phi[0][0] == 0) and np.all(phi[1][0] == 0)
    assert np.all(phi[2][2] == 0) and np.all(phi[3][2] == 0)
    assert np.allclose(phi[0][1], np.sin(v2))
    assert np.allclose(phi[0][2], -np.sin(v3))
    assert np.allclose(phi[1][1], -np.cos(v2))
    assert np.allclose(phi[1][2], np.cos(v3))
    assert np.allclose(phi[2][0], np.sin(v1))
    assert np.allclose(phi[2][1], -np.sin(v2))
    assert np.allclose(phi[3][0], -np.cos(v1))
    assert np.allclose(phi[3][1], np.cos(v2))


def test_kkt_matrix_equals_directional_jacobian(rng):
    # both are E @ (per-curve moments) with one +-moment per entry of the
    # middle factor, summed in the same order
    for m in (14, (7, 11, 5)):
        s = make_state(rng, m=m)
        kkt, _, _ = assemble_multiplier_data(s)
        j = directional_constraint_jacobian(s, variation_directions(s))
        assert kkt.tobytes() == j.tobytes()


def test_kkt_matrix_matches_finite_difference_jacobian(rng):
    s = make_state(rng, m=10)
    kkt, _, _ = assemble_multiplier_data(s)
    phi = variation_directions(s)
    eps = 1e-6
    fd = np.empty((4, 4))
    for r in range(4):
        up = s.with_values(tuple(v + eps * d for v, d in zip(s.values(), phi[r])))
        dn = s.with_values(tuple(v - eps * d for v, d in zip(s.values(), phi[r])))
        fd[:, r] = (constraint_vector(up) - constraint_vector(dn)) / (2 * eps)
    assert np.max(np.abs(fd - kkt)) < 1e-9


def test_remainders_match_naive_pieces(rng):
    cand, prev, tau = make_pair(rng, m=12)
    rem = compute_remainders(cand, prev, tau)
    pieces = [naive_remainder_piece(c, q, L, tau)
              for c, q, L in zip(cand.values(), prev.values(), cand.lengths)]
    assert np.allclose(rem[:2], pieces[2] - pieces[1], atol=1e-11)
    assert np.allclose(rem[2:], pieces[1] - pieces[0], atol=1e-11)


def test_remainders_for_constant_shift_of_flat_curve():
    # Flat curve 2 at angle 0 moved by a constant eps: its remainder piece is
    # (0, -eps*L2/tau), so R23 = (0, eps*L2/tau) and R21 = (0, -eps*L2/tau).
    m, eps, tau = 9, 1e-3, 1e-3
    fields = tuple(AngleField(Grid(L, m), np.zeros(m)) for L in (1.0, 0.8, 0.6))
    cand = NetworkState(fields)
    vals = [f.values.copy() for f in fields]
    vals[1] = vals[1] - eps
    prev = cand.with_values(tuple(vals))
    rem = compute_remainders(cand, prev, tau)
    assert np.allclose(rem[:2], [0.0, 0.8 * eps / tau], atol=1e-12)
    assert np.allclose(rem[2:], [0.0, -0.8 * eps / tau], atol=1e-12)


def test_solve_multipliers_matches_brute_force(rng):
    for _ in range(10):
        cand, prev, tau = make_pair(rng, m=11, p=2.0)
        jac, forcing, _ = assemble_multiplier_data(cand)
        rem = compute_remainders(cand, prev, tau)
        x = solve_multipliers(jac, forcing + rem)
        lam, mu = brute_force_multipliers(
            [v for v in cand.values()], [v for v in prev.values()],
            cand.lengths, 2.0, tau)
        assert x.shape == (4,)
        assert np.allclose(x[:2], lam, atol=1e-9, rtol=1e-9)
        assert np.allclose(x[2:], mu, atol=1e-9, rtol=1e-9)


def test_solve_multipliers_satisfies_row_equation(rng):
    cand, prev, tau = make_pair(rng, m=16, p=2.5)
    jac, forcing, _ = assemble_multiplier_data(cand)
    rem = compute_remainders(cand, prev, tau)
    x = solve_multipliers(jac, forcing + rem)
    j, g = naive_multiplier_system(cand.values(), cand.lengths,
                                   cand.p_exponent)
    assert np.allclose(x @ j, g + rem, atol=1e-10)


def test_solve_multipliers_rejects_singular_geometry():
    # All curves straight at a common angle: every Gram matrix is the same
    # rank-one block, so the system is singular.
    m = 9
    fields = tuple(AngleField(Grid(L, m), np.zeros(m)) for L in (1.0, 1.0, 0.5))
    s = NetworkState(fields)
    jac, forcing, _ = assemble_multiplier_data(s)
    rem = compute_remainders(s, s, 1e-3)
    with pytest.raises(SingularSystem):
        solve_multipliers(jac, forcing + rem)


def _with_singular_values(rng, s):
    u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    v = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    return (u * s) @ v.T


def _capped_matrices(rng):
    """Random 4x4 matrices, and ones whose condition number sits at 1e12
    within 1e-3."""
    for _ in range(100):
        yield rng.normal(size=(4, 4))
        s = np.sort(10.0 ** rng.uniform(-4, 4, size=4))[::-1]
        s[-1] = s[0] / (COND_CAP * (1.0 + rng.uniform(-1e-3, 1e-3)))
        yield _with_singular_values(rng, s)


def test_capped_solve_reads_the_condition_number_of_cond(rng, monkeypatch):
    # sigma_max / sigma_min of the solve's own SVD must be np.linalg.cond
    # to 1e-12: a cap just below it rejects the matrix, one just above it
    # lets it through to the solution
    for m in _capped_matrices(rng):
        cond = np.linalg.cond(m)
        rhs = rng.normal(size=4)
        monkeypatch.setattr(multipliers, "COND_CAP", cond * (1.0 - 1e-12))
        with pytest.raises(SingularSystem, match="condition number"):
            solve_capped(m, rhs, "test matrix")
        monkeypatch.setattr(multipliers, "COND_CAP", cond * (1.0 + 1e-12))
        x = solve_capped(m, rhs, "test matrix")
        assert np.max(np.abs(m @ x - rhs)) <= 1e-14 * cond * (
            np.linalg.norm(m, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))


def test_capped_solve_keeps_the_cap(rng):
    # a permuted diagonal has its singular values exactly
    for factor, passes in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
        s = np.array([3.0, 2.0, 1.0, 3.0 / COND_CAP * factor])
        m = np.diag(s)[rng.permutation(4)]
        if passes:
            solve_capped(m, np.ones(4), "test matrix")
        else:
            with pytest.raises(SingularSystem):
                solve_capped(m, np.ones(4), "test matrix")


def test_exactly_singular_multiplier_system_raises_singular_system(rng):
    # sigma_min = 0 exactly: no LinAlgError and no division warning (CI
    # turns RuntimeWarning into an error)
    rank_one = np.array([[1.0, 0.0], [0.0, 0.0]])
    for a in (np.zeros((3, 2, 2)), np.stack([rank_one] * 3)):
        jac, forcing = block_multiplier_system(a, rng.normal(size=(3, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="condition number"):
                solve_multipliers(jac, forcing)


def test_non_finite_multiplier_system_raises_singular_system(rng):
    # at p = 1e308 the cellwise |D theta|^p overflow, so the forcing is not
    # finite; the solve must refuse it, and a non-finite matrix entry, with
    # no warning rather than return NaN multipliers
    with np.errstate(over="ignore"):
        s = preset_symmetric_lens(nodes_per_unit=20, p=1e308)
        jac, forcing, _ = assemble_multiplier_data(s)
    rhs = forcing + compute_remainders(s, s, 1e-3)
    assert np.all(np.isfinite(jac)) and not np.all(np.isfinite(rhs))
    bad_jac, finite_rhs, _ = assemble_multiplier_data(make_state(rng))
    bad_jac[1, 2] = np.nan
    for j, r in ((jac, rhs), (bad_jac, finite_rhs)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="non-finite"):
                solve_multipliers(j, r)


def test_multiplier_norm_is_euclidean_pair_sum():
    x = np.array([3.0, 4.0, 0.0, 2.0])
    assert multiplier_norm(x) == pytest.approx(5.0 + 2.0)


def test_bound_dominates_solved_multipliers(rng):
    hits = 0
    for _ in range(25):
        cand, prev, tau = make_pair(rng, m=12, p=2.0, step_scale=0.05)
        jac, forcing, dets = assemble_multiplier_data(cand)
        try:
            x = solve_multipliers(
                jac, forcing + compute_remainders(cand, prev, tau))
            bound = multiplier_bound(
                bound_constant(dets, cand.lengths), cand.p_exponent,
                p_energy(cand),
                velocity_l1=sum(
                    trapezoid_weights(g) @ np.abs(c - q)
                    for g, c, q in zip(cand.grids, cand.values(), prev.values())),
                tau=tau)
        except (SingularSystem, DegenerateGeometry):
            continue
        hits += 1
        assert multiplier_norm(x) <= bound * (1 + 1e-9)
    assert hits >= 15


def test_bound_constant_requires_curved_first_pair():
    m = 9
    fields = (
        AngleField(Grid(1.0, m), np.zeros(m)),  # straight: det A1 = 0
        AngleField(Grid(1.0, m), np.linspace(0.0, 1.0, m)),
        AngleField(Grid(0.5, m), np.linspace(0.0, 0.5, m)),
    )
    s = NetworkState(fields)
    with pytest.raises(DegenerateGeometry):
        bound_constant(assemble_multiplier_data(s)[2], s.lengths)


def test_bound_constant_is_rotation_invariant(rng):
    s = make_state(rng, m=13)
    c0 = bound_constant(assemble_multiplier_data(s)[2], s.lengths)
    rot = s.with_values(tuple(v + 0.7 for v in s.values()))
    c1 = bound_constant(assemble_multiplier_data(rot)[2], rot.lengths)
    assert c1 == pytest.approx(c0, rel=1e-10)


def test_solved_multipliers_rotate_with_the_frame(rng):
    def solved(cand, prev, tau):
        jac, forcing, _ = assemble_multiplier_data(cand)
        return solve_multipliers(jac,
                                 forcing + compute_remainders(cand, prev, tau))

    alpha = 0.7
    rot = np.array([[np.cos(alpha), -np.sin(alpha)],
                    [np.sin(alpha), np.cos(alpha)]])
    cand, prev, tau = make_pair(rng, m=12)
    x = solved(cand, prev, tau)
    cand_r = cand.with_values(tuple(v + alpha for v in cand.values()))
    prev_r = prev.with_values(tuple(v + alpha for v in prev.values()))
    x_r = solved(cand_r, prev_r, tau)
    assert np.allclose(x_r[:2], rot @ x[:2], atol=1e-9)
    assert np.allclose(x_r[2:], rot @ x[2:], atol=1e-9)


def _multiplier_gaps(p, nodes_per_unit):
    """Per step of a short lens flow: |x + coef|_inf / |x|_inf, x the
    report's phi-tested multipliers and coef the tangent projection's
    multiplier estimate at the step's final state, -coef being the
    discrete Lagrange multipliers of the step."""
    lens = preset_symmetric_lens(nodes_per_unit=nodes_per_unit, p=p)
    traj = run_flow(lens, FlowConfig(p_exponent=p, tau=1e-3, T=0.02))
    gaps = []
    for prev, state, rep in zip(traj.states, traj.states[1:], traj.reports):
        layout, theta = PackedLayout.of(state)
        tangents = layout.tangents(theta)
        grad = layout.step_gradient(theta, layout.pack(prev), rep.tau,
                                    layout.slopes(theta))
        _, coef = _tangent_project(layout, tangents,
                                   layout.moments(tangents, tangents), grad)
        x = rep.multipliers
        gaps.append(np.max(np.abs(x + coef)) / np.max(np.abs(x)))
    return np.array(gaps)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_reported_multipliers_approach_the_discrete_lagrange_ones(p):
    # The two formulas differ only by quadrature, so the gap is O(h^2):
    # measured, it falls by 4.00 per halving with max gap / h^2 = 0.163
    # (p = 2) and 0.167 (p = 3).  With the forcing's sign flipped the gap
    # is 2.0 on every mesh.
    meshes = (50, 100, 200, 400)
    gaps = [_multiplier_gaps(p, npu) for npu in meshes]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse.shape == fine.shape == (20,)
        ratio = coarse / fine
        assert np.all((3.5 <= ratio) & (ratio <= 4.5)), ratio
    for npu, gap in zip(meshes, gaps):
        assert np.max(gap) <= 0.2 / npu**2
