import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaflow import (
    AngleField,
    FlowConfig,
    Grid,
    NetworkState,
    conserved_coefficients,
    conserved_quantity,
    detect_stationarity,
    run_flow,
)
from thetaflow import stationary
from thetaflow.stationary import (
    _endpoint_fluxdiv,
    _endpoint_value,
    stationary_residual,
)

from helpers import make_state
from oracles import naive_junction_balance
from thetaflow.app.presets import preset_symmetric_lens


def _interior_divergence(values, length, p):
    h = length / (len(values) - 1)
    slopes = np.diff(values) / h
    flux = np.sign(slopes) * np.abs(slopes) ** (p - 1.0)
    return np.diff(flux) / h


def _trig_rows(state, x):
    lam, mu = x[:2], x[2:]
    t1, t2, t3 = state.values()
    return (
        -(lam[0] - mu[0]) * np.sin(t1) + (lam[1] - mu[1]) * np.cos(t1),
        lam[0] * np.sin(t2) - lam[1] * np.cos(t2),
        -mu[0] * np.sin(t3) + mu[1] * np.cos(t3),
    )


def test_interior_residuals_match_the_strong_form(rng):
    # each curve's residual is the sup over interior nodes of the strong
    # form, flux divergence minus trigonometric right-hand side
    s = make_state(rng, m=17, p=2.5)
    x = np.array([0.4, -0.7, 0.2, 0.9])
    report = stationary_residual(s, x)
    for j in range(3):
        div = _interior_divergence(s.values()[j], s.lengths[j], 2.5)
        trig = _trig_rows(s, x)[j]
        strong = float(np.max(np.abs(div - trig[1:-1])))
        assert report.residuals[j] == pytest.approx(strong, rel=1e-9)


def test_conserved_quantity_constant_on_straight_curves():
    f = AngleField(Grid(1.3, 21), np.full(21, 0.8))
    coeff = np.array([0.3, -0.5])
    q = conserved_quantity(f, coeff, 2.0)
    assert np.ptp(q) == 0.0
    assert q[0] == pytest.approx(-(0.3 * np.cos(0.8) - 0.5 * np.sin(0.8)))


def test_conserved_coefficients_structure():
    c1, c2, c3 = conserved_coefficients(np.array([1.0, 2.0, 10.0, 20.0]))
    assert np.allclose(c1, [-9.0, -18.0])
    assert np.allclose(c2, [-1.0, -2.0])
    assert np.allclose(c3, [10.0, 20.0])


def test_junction_balance_vanishes_for_straight_curves_zero_multipliers():
    fields = tuple(AngleField(Grid(L, 9), np.full(9, b))
                   for L, b in zip((1.0, 0.9, 0.7), (0.1, 2.0, -1.2)))
    s = NetworkState(fields)
    assert stationary_residual(s, np.zeros(4)).junction_balance_defect == 0.0


@pytest.mark.parametrize("m", [17, (7, 11, 5), (7, 11, 3)])
def test_junction_balance_matches_the_loop_oracle(rng, m):
    # (7, 11, 3) gives curve 3 two cells, the first-order end stencils
    for _ in range(5):
        s = make_state(rng, m=m, p=2.5)
        x = rng.normal(size=4)
        expect = naive_junction_balance(s.values(), s.lengths, 2.5,
                                        x[:2], x[2:])
        got = stationary_residual(s, x).junction_balance_defect
        assert got == pytest.approx(expect, rel=1e-12)


def test_stationary_residual_differentiates_each_curve_once(rng,
                                                            monkeypatch):
    calls = []
    real = stationary.midpoint_gradient

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(stationary, "midpoint_gradient", counting)
    s = make_state(rng, m=17, p=2.5)
    stationary_residual(s, np.array([0.4, -0.7, 0.2, 0.9]))
    assert len(calls) == 3


def test_endpoint_value_exact_for_quadratic_cell_data(rng):
    a, b, c = rng.normal(size=3)
    h = 0.1
    x = (np.arange(6) + 0.5) * h
    cells = a * x**2 + b * x + c
    assert _endpoint_value(cells, start=True) == pytest.approx(c, abs=1e-12)
    end = 6 * h
    expect = a * end**2 + b * end + c
    assert _endpoint_value(cells, start=False) == pytest.approx(expect, abs=1e-12)


def test_endpoint_fluxdiv_exact_for_affine_flux(rng):
    alpha, beta = rng.normal(size=2)
    h = 0.05
    x = (np.arange(7) + 0.5) * h
    flux = alpha * x + beta
    assert _endpoint_fluxdiv(flux, h, start=True) == pytest.approx(alpha, abs=1e-9)
    assert _endpoint_fluxdiv(flux, h, start=False) == pytest.approx(alpha, abs=1e-9)


def test_detection_fires_on_relaxed_flow(relaxed_lens):
    traj, _ = relaxed_lens
    report = detect_stationarity(traj, window=25, tol=1e-6)
    assert report is not None
    vels = np.sqrt([r.velocity_l2sq for r in traj.reports[-25:]])
    assert report.step_index == len(traj.reports) - 25 + int(np.argmin(vels))
    # Coarse grid (h = 0.02): defects at the discretization level.
    assert report.max_residual < 1e-2
    assert report.bc_defect < 0.1
    assert float(np.max(report.conserved_drift)) < 5e-3
    assert report.junction_balance_defect < 1e-2


def test_detection_returns_none_while_moving():
    lens = preset_symmetric_lens(nodes_per_unit=40)
    traj = run_flow(lens, FlowConfig(tau=1e-3, T=3e-3))
    assert detect_stationarity(traj, window=5, tol=1e-6) is None


def test_detection_handles_empty_trajectory():
    lens = preset_symmetric_lens(nodes_per_unit=40)
    from thetaflow import Trajectory
    traj = Trajectory(states=(lens,), reports=(), times=np.array([0.0]))
    assert detect_stationarity(traj) is None


@pytest.fixture(scope="module")
def short_lens_run():
    lens = preset_symmetric_lens(nodes_per_unit=20)
    return run_flow(lens, FlowConfig(tau=1e-2, T=6e-2))


@settings(max_examples=200, deadline=None)
@given(window=st.integers(), tol=st.floats())
@example(window=-2, tol=1e9)
@example(window=3, tol=float("nan"))
@example(window=3, tol=1e9)
def test_detection_rejects_bad_arguments_or_meets_tol(short_lens_run,
                                                      window, tol):
    traj = short_lens_run
    valid = window >= 1 and math.isfinite(tol) and tol > 0.0
    try:
        report = detect_stationarity(traj, window, tol)
    except ValueError:
        assert not valid
        return
    assert valid
    vels = np.sqrt([r.velocity_l2sq for r in traj.reports])
    if report is None:
        assert np.all(vels[-window:] > tol)
    else:
        assert len(traj.reports) - window <= report.step_index
        assert vels[report.step_index] <= tol


def test_max_residual_property(rng):
    s = make_state(rng, m=9)
    report = stationary_residual(s, np.array([0.1, 0.2, 0.3, 0.4]))
    assert report.max_residual == pytest.approx(float(np.max(report.residuals)))
