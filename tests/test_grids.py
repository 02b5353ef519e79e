import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow import AngleField, Grid, GridMismatch, InvalidLengths, NetworkState
from thetaflow.grids import (
    cumulative_tangent_integral,
    midpoint_gradient,
    require_compatible,
    trapezoid_integral,
    trapezoid_weights,
)

from oracles import naive_trapezoid, random_angle_field_values


def test_grid_basic_geometry():
    g = Grid(length=2.0, node_count=5)
    assert g.spacing == pytest.approx(0.5)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Grid(length=0.0, node_count=5)
    with pytest.raises(ValueError):
        Grid(length=1.0, node_count=2)


def test_trapezoid_weights_sum_to_length():
    g = Grid(length=1.7, node_count=23)
    w = trapezoid_weights(g)
    assert w.sum() == pytest.approx(1.7)
    assert w[0] == pytest.approx(g.spacing / 2)
    assert w[-1] == pytest.approx(g.spacing / 2)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=40),
    length=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_trapezoid_integral_matches_naive_loop(m, length, seed):
    g = Grid(length=length, node_count=m)
    vals = np.random.default_rng(seed).normal(size=m)
    assert trapezoid_integral(vals, g) == pytest.approx(
        naive_trapezoid(vals, length), abs=1e-12, rel=1e-12
    )


@pytest.mark.parametrize("shape", [(1, 9), (2, 9), ()])
def test_trapezoid_integral_wants_one_sample_per_node(shape):
    # a (1, M) or (2, M) array, or a scalar, is not one curve's samples
    with pytest.raises(ValueError, match="one sample per grid node"):
        trapezoid_integral(np.ones(shape), Grid(length=1.0, node_count=9))


def test_midpoint_gradient_of_linear_field_is_constant(rng):
    g = Grid(length=1.3, node_count=17)
    slope = rng.normal()
    f = AngleField(g, 0.4 + slope * g.nodes)
    assert np.allclose(midpoint_gradient(f), slope, atol=1e-12)


def test_cumulative_tangent_integral_endpoint_matches_quadrature(rng):
    g = Grid(length=0.9, node_count=31)
    f = AngleField(g, random_angle_field_values(rng, 31))
    pos = cumulative_tangent_integral(f)
    assert pos.shape == (31, 2)
    assert np.allclose(pos[0], 0.0)
    w = trapezoid_weights(g)
    assert pos[-1, 0] == pytest.approx(w @ np.cos(f.values), abs=1e-12)
    assert pos[-1, 1] == pytest.approx(w @ np.sin(f.values), abs=1e-12)


def test_angle_field_values_are_read_only(rng):
    g = Grid(length=1.0, node_count=8)
    f = AngleField(g, random_angle_field_values(rng, 8))
    with pytest.raises(ValueError):
        f.values[0] = 99.0


def test_angle_field_oscillation_is_peak_to_peak(rng):
    g = Grid(length=1.0, node_count=12)
    vals = random_angle_field_values(rng, 12)
    f = AngleField(g, vals)
    assert f.oscillation() == pytest.approx(vals.max() - vals.min())


def _state(lengths=(1.0, 1.0, 0.5), m=9, rng=None, p=2.0):
    rng = rng or np.random.default_rng(0)
    fields = tuple(
        AngleField(Grid(L, m), random_angle_field_values(rng, m)) for L in lengths
    )
    return NetworkState(fields, p_exponent=p)


def test_network_state_rejects_long_third_curve():
    with pytest.raises(InvalidLengths):
        _state(lengths=(1.0, 1.0, 1.5))


def test_network_state_rejects_bad_exponent():
    with pytest.raises(ValueError):
        _state(p=1.0)


def test_network_state_theta_flag():
    assert _state().is_theta
    triod = NetworkState(_state().fields, offsets=np.array([[0.5, 0.0], [0.1, 0.2]]))
    assert not triod.is_theta


def test_network_state_with_values_preserves_structure(rng):
    s = _state(rng=rng, p=2.5)
    new_vals = tuple(v + 0.3 for v in s.values())
    s2 = s.with_values(new_vals)
    assert s2.p_exponent == 2.5
    assert s2.grids == s.grids
    assert np.array_equal(s2.offsets, s.offsets)
    for a, b in zip(s2.values(), new_vals):
        assert np.allclose(a, b)


@pytest.mark.parametrize("count", [2, 4])
def test_network_state_with_values_wants_three_arrays(rng, count):
    # zip would silently drop a fourth array and keep a 3-curve state
    s = _state(rng=rng)
    vals = (s.values() + (np.zeros(9),))[:count]
    with pytest.raises(ValueError):
        s.with_values(vals)


def test_require_compatible_flags_mismatches(rng):
    a = _state(rng=rng)
    require_compatible(a, a.with_values(tuple(v * 0.5 for v in a.values())))
    with pytest.raises(GridMismatch):
        require_compatible(a, _state(m=11))
    with pytest.raises(GridMismatch):
        require_compatible(a, _state(p=3.0))
    shifted = NetworkState(a.fields, offsets=np.array([[0.2, 0.0], [0.0, 0.0]]))
    with pytest.raises(GridMismatch):
        require_compatible(a, shifted)
