import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow import (
    AngleField,
    Grid,
    GridMismatch,
    NetworkState,
    p_energy,
)
from thetaflow.energy import (
    PackedLayout,
    _running,
    _sharp_modulus_inverse,
    assemble_multiplier_data,
    constraint_defect,
    constraint_gradients,
    constraint_vector,
    implicit_step_energy,
    oscillation_stats,
    step_gradient,
)
from thetaflow.grids import trapezoid_weights
from thetaflow.multipliers import compute_remainders

from helpers import make_pair, make_state, solver_det, steep_pair
from oracles import (
    block_diagonal_moment_products,
    double_sum,
    double_sum_det,
    fd_step_gradient,
    naive_constraints,
    naive_gram,
    naive_multiplier_system,
    naive_p_energy,
    naive_step_energy,
    node_pair_modulus_inverse,
    random_angle_field_values,
)


def test_states_on_the_same_grids_share_one_read_only_layout(rng):
    # a run packs every state through PackedLayout.of: one layout per run
    cand, prev, _ = make_pair(rng, m=(7, 11, 5))
    layout, theta = PackedLayout.of(cand)
    assert PackedLayout.of(prev)[0] is layout
    assert np.array_equal(theta, np.concatenate(cand.values()))
    for name in ("weights", "cell_h", "inv_h", "hat_norms", "starts"):
        with pytest.raises(ValueError):
            getattr(layout, name)[0] = 1.0
    other_p = NetworkState(cand.fields, p_exponent=3.0)
    moved = NetworkState(cand.fields, offsets=[[0.1, 0.0], [0.0, 0.0]])
    for state in (other_p, moved):
        assert PackedLayout.of(state)[0] is not layout
    assert PackedLayout.of(moved)[0].junction_offsets[0] == 0.1


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_packed_shortcuts_equal_what_they_replace_bitwise(rng, p):
    # minimize_step takes the guard's oscillations from one reduceat and
    # starts the inner solve from the elastic energy, not step_energy(θ, θ)
    state = make_state(rng, m=(7, 11, 5), p=p, scale=3.0)
    layout, theta = PackedLayout.of(state)
    oscs = layout.oscillations(theta)
    assert oscs.tobytes() == np.array(
        [f.oscillation() for f in state.fields]).tobytes()
    energy = layout.elastic_energy(theta)
    slopes = layout.slopes(theta)
    cells = layout.cell_energies(slopes)
    for tau in (1e-3, 0.5):
        assert layout.step_energy(theta, theta, tau, cells) == energy
    assert layout.DE.tobytes() == (layout.D @ layout.E).tobytes()
    # the state-level wrappers build the by-products the packed kernels take
    prev = make_state(rng, m=(7, 11, 5), p=p, scale=3.0)
    theta_prev = layout.pack(prev)
    for tau in (1e-3, 0.5):
        assert (np.float64(implicit_step_energy(state, prev, tau)).tobytes()
                == np.float64(layout.step_energy(theta, theta_prev, tau,
                                                 cells)).tobytes())
        assert (np.concatenate(step_gradient(state, prev, tau)).tobytes()
                == layout.step_gradient(theta, theta_prev, tau,
                                        slopes).tobytes())


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_p_energy_matches_naive_loop(rng, p):
    s = make_state(rng, p=p, m=13)
    expect = naive_p_energy(s.values(), s.lengths, p)
    assert p_energy(s) == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_p_energy_of_straight_curves_is_zero():
    fields = tuple(AngleField(Grid(L, 7), np.full(7, b))
                   for L, b in zip((1.0, 1.0, 0.5), (0.3, -0.2, 1.0)))
    assert p_energy(NetworkState(fields)) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_p_energy_of_circular_arcs_is_exact(p):
    # Linear angle fields have exactly constant difference quotients, so the
    # midpoint rule is exact: E = sum (1/p) |kappa_j|^p L_j.
    lengths = (1.2, 1.0, 0.8)
    kappas = (0.7, -1.3, 2.0)
    fields = tuple(AngleField(Grid(L, 11), k * Grid(L, 11).nodes)
                   for L, k in zip(lengths, kappas))
    expect = sum(abs(k) ** p * L / p for L, k in zip(lengths, kappas))
    assert p_energy(NetworkState(fields, p_exponent=p)) == pytest.approx(
        expect, rel=1e-14)


def test_implicit_step_energy_matches_naive(rng):
    cand, prev, tau = make_pair(rng, p=2.5, m=11)
    expect = naive_step_energy(cand.values(), prev.values(), cand.lengths,
                               2.5, tau)
    assert implicit_step_energy(cand, prev, tau) == pytest.approx(
        expect, rel=1e-13)


def test_implicit_step_energy_rejects_mismatched_grids(rng):
    cand = make_state(rng, m=9)
    other = make_state(rng, m=11)
    with pytest.raises(GridMismatch):
        implicit_step_energy(cand, other, 0.1)


@pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -1e-3])
@pytest.mark.parametrize("pair_function", [implicit_step_energy, step_gradient,
                                           compute_remainders])
def test_pair_functions_reject_a_bad_tau(pair_function, tau, rng):
    # as FlowConfig does: a finite, positive time step, refused before any
    # arithmetic could return nan or warn
    cand, prev, _ = make_pair(rng, p=2.5, m=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tau"):
            pair_function(cand, prev, tau)


def test_constraint_vector_matches_naive(rng):
    offsets = [[0.3, -0.1], [0.2, 0.4]]
    # unequal node counts put the curve breaks of the packed layout at
    # positions equal counts never test
    for m in (15, (7, 11, 5)):
        s = make_state(rng, offsets=offsets, m=m)
        expect = naive_constraints(s.values(), s.lengths, offsets)
        got = constraint_vector(s)
        assert np.allclose(got, expect, atol=1e-13)
        assert constraint_defect(got) == pytest.approx(
            np.max(np.abs(expect)), abs=1e-13)


def test_constraint_gradients_match_finite_differences(rng):
    for m in (9, (7, 11, 5)):
        s = make_state(rng, m=m)
        weights = [trapezoid_weights(g) for g in s.grids]
        grads = constraint_gradients(s)
        eps = 1e-7
        for l in range(4):
            direction = [random_angle_field_values(rng, len(v))
                         for v in s.values()]
            up = s.with_values(tuple(v + eps * d for v, d in zip(s.values(), direction)))
            dn = s.with_values(tuple(v - eps * d for v, d in zip(s.values(), direction)))
            fd = (constraint_vector(up)[l] - constraint_vector(dn)[l]) / (2 * eps)
            pairing = sum(w @ (g * d) for w, g, d in zip(weights, grads[l], direction))
            assert fd == pytest.approx(pairing, abs=5e-7)


def test_multiplier_data_matches_naive_assembly(rng):
    s = make_state(rng, p=1.5, m=12)
    jac, forcing, dets = assemble_multiplier_data(s)
    kkt, g = naive_multiplier_system(s.values(), s.lengths, 1.5)
    assert np.allclose(jac, kkt, atol=1e-13)
    assert np.allclose(forcing, g, atol=1e-13)
    for j in range(3):
        a = naive_gram(s.values()[j], s.lengths[j])
        assert dets[j] == pytest.approx(np.linalg.det(a), abs=1e-13)


def test_moment_products_match_block_diagonal_oracle(rng):
    # the block diagonal is scattered through a precomputed flat index; the
    # oracle zero-fills and fancy-indexes it, and the bits must agree
    layout = PackedLayout.of(make_state(rng))[0]
    for _ in range(200):
        blocks = rng.normal(size=(2, 2, 3)) * 10.0 ** rng.uniform(-8, 8)
        for coef in (layout.E, layout.DE):
            got = layout.moment_products(blocks, coef)
            want = block_diagonal_moment_products(layout.E, blocks, coef)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=0.05, max_value=4.0),
    smooth=st.booleans(),
)
def test_det_identity_holds_for_random_fields(m, seed, scale, smooth):
    rng = np.random.default_rng(seed)
    f = AngleField(Grid(1.3, m),
                   random_angle_field_values(rng, m, smooth=smooth, scale=scale))
    assert solver_det(f) == pytest.approx(double_sum(f.values, 1.3),
                                          abs=1e-10)


def test_det_identity_double_sum_matches_loop_oracle(rng):
    f = AngleField(Grid(0.8, 20), random_angle_field_values(rng, 20))
    assert double_sum(f.values, 0.8) == pytest.approx(
        double_sum_det(f.values, 0.8), abs=1e-13)


def test_oscillation_stats_reports_peak_to_peak(rng):
    f = AngleField(Grid(1.0, 30), random_angle_field_values(rng, 30))
    stats = oscillation_stats(f)
    assert stats.osc == pytest.approx(f.oscillation())
    assert 0.0 <= stats.delta0 <= np.pi


def test_oscillation_bound_is_sharp_scale_for_linear_field():
    # theta = kappa * s: oscillation kappa*L, and |theta(s)-theta(t)| <= y
    # exactly when |s-t| <= y/kappa, so the modulus inverse is the largest
    # grid multiple below (osc/4)/kappa (osc below the pi clip).  The node
    # count is chosen so that threshold falls strictly between multiples.
    g = Grid(2.0, 44)
    kappa = 1.2
    f = AngleField(g, kappa * g.nodes)
    stats = oscillation_stats(f)
    delta0 = min(kappa * 2.0, np.pi)
    r_exact = delta0 / 4.0 / kappa
    k = int(np.floor(r_exact / g.spacing))
    assert k * g.spacing < r_exact < (k + 1) * g.spacing  # no float tie
    assert stats.modulus_inverse_at == pytest.approx(k * g.spacing, abs=1e-12)
    expect = 0.5 * 2.0 * np.sin(delta0 / 4.0) ** 2 * min(k * g.spacing, 1.0)
    assert stats.det_lower_bound == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 17, 33, 64])
def test_running_max_min_matches_window_reduction(m):
    # rounded to one decimal so that windows hold ties
    v = np.round(np.random.default_rng(m).normal(size=m), 1)
    for size in range(1, m + 1):
        windows = sliding_window_view(v, size)
        assert np.array_equal(_running(np.maximum, v, size), windows.max(-1))
        assert np.array_equal(_running(np.minimum, v, size), windows.min(-1))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=0.05, max_value=4.0),
    smooth=st.booleans(),
    frac=st.floats(min_value=0.0, max_value=1.2),
    tie=st.booleans(),
)
def test_modulus_inverse_matches_node_pair_scan(m, seed, scale, smooth, frac,
                                                tie):
    rng = np.random.default_rng(seed)
    f = AngleField(Grid(1.3, m),
                   random_angle_field_values(rng, m, smooth=smooth, scale=scale))
    if tie:
        # a level equal to some node-pair difference: the window bound is
        # attained exactly, so "<= y" must agree at the tie
        i, j = rng.integers(0, m, size=2)
        y = abs(f.values[i] - f.values[j])
    else:
        y = frac * f.oscillation()
    expect = node_pair_modulus_inverse(f.values, f.grid.spacing, y)
    assert _sharp_modulus_inverse(f, y) == expect


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=0.2, max_value=3.0),
)
def test_oscillation_bound_never_exceeds_determinant(m, seed, scale):
    rng = np.random.default_rng(seed)
    f = AngleField(Grid(1.1, m),
                   random_angle_field_values(rng, m, scale=scale))
    stats = oscillation_stats(f)
    assert stats.det_lower_bound <= solver_det(f) + 1e-10


def test_oscillation_bound_applies_formula_to_sharp_modulus(rng):
    # The bound is (L/2) sin^2(delta0/4) min(r, L/2) with r the sharp
    # node-based window at level delta0/4.
    f = AngleField(Grid(1.0, 25), random_angle_field_values(rng, 25))
    stats = oscillation_stats(f)
    r = _sharp_modulus_inverse(f, stats.delta0 / 4.0)
    assert stats.modulus_inverse_at == r
    expect = 0.5 * 1.0 * np.sin(stats.delta0 / 4.0) ** 2 * min(r, 0.5)
    assert stats.det_lower_bound == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_step_gradient_matches_finite_differences(rng, p):
    for m in (5, (7, 11, 5)):
        cand, prev, tau = steep_pair(rng, m=m, p=p)
        grads = step_gradient(cand, prev, tau)
        fd = fd_step_gradient([v for v in cand.values()],
                              [v for v in prev.values()],
                              cand.lengths, p, tau)
        for got, expect in zip(grads, fd):
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(got - expect)) / scale < 1e-6


def test_step_gradient_vanishes_at_quadratic_minimum(rng):
    # For p=2 with tau -> small the penalty dominates; at cand == prev the
    # gradient reduces to the pure elastic part, which vanishes for straight
    # curves.
    fields = tuple(AngleField(Grid(L, 7), np.full(7, b))
                   for L, b in zip((1.0, 1.0, 0.5), (0.1, 0.7, -0.4)))
    s = NetworkState(fields)
    grads = step_gradient(s, s, 0.01)
    for g in grads:
        assert np.max(np.abs(g)) < 1e-14
