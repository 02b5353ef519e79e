import numpy as np
import pytest

from thetaflow import (
    AngleField,
    DegenerateGeometry,
    Grid,
    NetworkState,
    SingularSystem,
    assemble_kkt,
    assemble_multiplier_data,
    constraint_vector,
    p_energy,
    variation_directions,
)
from thetaflow.grids import trapezoid_weights
from thetaflow.multipliers import (
    bound_constant,
    compute_remainders,
    directional_constraint_jacobian,
    multiplier_bound,
    multiplier_norm,
    solve_multipliers,
)

from helpers import make_pair, make_state
from oracles import brute_force_multipliers, naive_remainder_piece


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
    for m in (14, (7, 11, 5)):
        s = make_state(rng, m=m)
        kkt = assemble_kkt(assemble_multiplier_data(s))
        j = directional_constraint_jacobian(s, variation_directions(s))
        assert np.allclose(kkt, j, atol=1e-12)


def test_kkt_matrix_matches_finite_difference_jacobian(rng):
    s = make_state(rng, m=10)
    kkt = assemble_kkt(assemble_multiplier_data(s))
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
        data = assemble_multiplier_data(cand)
        rem = compute_remainders(cand, prev, tau)
        x = solve_multipliers(data, rem)
        lam, mu = brute_force_multipliers(
            [v for v in cand.values()], [v for v in prev.values()],
            cand.lengths, 2.0, tau)
        assert x.shape == (4,)
        assert np.allclose(x[:2], lam, atol=1e-9, rtol=1e-9)
        assert np.allclose(x[2:], mu, atol=1e-9, rtol=1e-9)


def test_solve_multipliers_satisfies_row_equation(rng):
    cand, prev, tau = make_pair(rng, m=16, p=2.5)
    data = assemble_multiplier_data(cand)
    rem = compute_remainders(cand, prev, tau)
    x = solve_multipliers(data, rem)
    j = assemble_kkt(data)
    rhs = np.concatenate([
        data.G[2] - data.G[1] + rem[:2],
        data.G[1] - data.G[0] + rem[2:],
    ])
    assert np.allclose(x @ j, rhs, atol=1e-10)


def test_solve_multipliers_rejects_singular_geometry():
    # All curves straight at a common angle: every Gram matrix is the same
    # rank-one block, so the system is singular.
    m = 9
    fields = tuple(AngleField(Grid(L, m), np.zeros(m)) for L in (1.0, 1.0, 0.5))
    s = NetworkState(fields)
    data = assemble_multiplier_data(s)
    rem = compute_remainders(s, s, 1e-3)
    with pytest.raises(SingularSystem):
        solve_multipliers(data, rem)


def test_multiplier_norm_is_euclidean_pair_sum():
    x = np.array([3.0, 4.0, 0.0, 2.0])
    assert multiplier_norm(x) == pytest.approx(5.0 + 2.0)


def test_bound_dominates_solved_multipliers(rng):
    hits = 0
    for _ in range(25):
        cand, prev, tau = make_pair(rng, m=12, p=2.0, step_scale=0.05)
        data = assemble_multiplier_data(cand)
        try:
            x = solve_multipliers(data, compute_remainders(cand, prev, tau))
            bound = multiplier_bound(
                bound_constant(data, cand), cand.p_exponent, p_energy(cand),
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
        bound_constant(assemble_multiplier_data(s), s)


def test_bound_constant_is_rotation_invariant(rng):
    s = make_state(rng, m=13)
    c0 = bound_constant(assemble_multiplier_data(s), s)
    rot = s.with_values(tuple(v + 0.7 for v in s.values()))
    c1 = bound_constant(assemble_multiplier_data(rot), rot)
    assert c1 == pytest.approx(c0, rel=1e-10)


def test_solved_multipliers_rotate_with_the_frame(rng):
    alpha = 0.7
    rot = np.array([[np.cos(alpha), -np.sin(alpha)],
                    [np.sin(alpha), np.cos(alpha)]])
    cand, prev, tau = make_pair(rng, m=12)
    x = solve_multipliers(assemble_multiplier_data(cand),
                          compute_remainders(cand, prev, tau))
    cand_r = cand.with_values(tuple(v + alpha for v in cand.values()))
    prev_r = prev.with_values(tuple(v + alpha for v in prev.values()))
    x_r = solve_multipliers(assemble_multiplier_data(cand_r),
                            compute_remainders(cand_r, prev_r, tau))
    assert np.allclose(x_r[:2], rot @ x[:2], atol=1e-9)
    assert np.allclose(x_r[2:], rot @ x[2:], atol=1e-9)
