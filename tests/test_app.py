import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from thetaflow import (
    FlatnessBlowup,
    FlowConfig,
    Grid,
    InnerSolveFailed,
    InvalidLengths,
    detect_stationarity,
    p_energy,
    run_flow,
)
from thetaflow import scheme
from thetaflow.energy import constraint_defect, constraint_vector
from thetaflow.grids import cumulative_tangent_integral, midpoint_gradient
from thetaflow.app import cli, presets
from thetaflow.app.emit import RunSpec, emit_frames, load_state, save_state
from thetaflow.app.presets import (
    preset_perturbed,
    preset_symmetric_lens,
    preset_triod,
)

from oracles import (
    LENS_CURVATURE_CONTINUUM,
    lens_curvature_reference,
    per_value_csv,
    per_value_svg_frame,
    report_json,
    svg_view_box,
)


def test_lens_curvature_reference_is_frozen_correctly():
    assert lens_curvature_reference() == pytest.approx(
        LENS_CURVATURE_CONTINUUM, abs=1e-13)


def test_lens_preset_geometry():
    lens = preset_symmetric_lens(nodes_per_unit=200)
    assert constraint_defect(constraint_vector(lens)) < 1e-11
    slopes1 = midpoint_gradient(lens.fields[0])
    slopes2 = midpoint_gradient(lens.fields[1])
    # Both arcs have constant curvature of equal magnitude, opposite sign.
    assert np.ptp(slopes1) < 1e-11
    assert np.ptp(slopes2) < 1e-11
    kappa = abs(float(slopes1[0]))
    assert float(slopes2[0]) == pytest.approx(-slopes1[0], rel=1e-11)
    # The discrete arc curvature converges to the continuum chord equation
    # root at second order; at h = 1/200 they agree to ~1e-5.
    assert kappa == pytest.approx(LENS_CURVATURE_CONTINUUM, abs=1e-4)
    # Straight middle curve.
    assert np.all(lens.fields[2].values == lens.fields[2].values[0])
    # Linear angle fields make the quadrature exact: E = 2 * kappa^2 for p=2.
    assert p_energy(lens) == pytest.approx(2.0 * kappa**2, rel=1e-12)


def test_lens_preset_endpoints_close_up():
    lens = preset_symmetric_lens(nodes_per_unit=100)
    p1, p2, p3 = (cumulative_tangent_integral(f)[-1] for f in lens.fields)
    assert np.allclose(p1, p2, atol=1e-11)
    assert np.allclose(p1, p3, atol=1e-11)
    assert np.linalg.norm(p3) == pytest.approx(1.0, abs=1e-12)


def test_triod_preset_hits_targets():
    targets = ((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8))
    lengths = (1.35, 1.3, 0.95)
    triod = preset_triod(targets, lengths, nodes_per_unit=100)
    assert not triod.is_theta
    assert constraint_defect(constraint_vector(triod)) <= 1e-9
    for f, target in zip(triod.fields, targets):
        end = cumulative_tangent_integral(f)[-1]
        assert np.linalg.norm(end - np.asarray(target)) < 1e-7


def test_triod_preset_relabels_shortest_curve_to_slot_three():
    targets = ((0.5, 0.1), (-0.6, 0.2), (0.2, -0.7))
    lengths = (0.9, 1.2, 1.1)  # input slot 1 is shortest
    triod = preset_triod(targets, lengths, nodes_per_unit=60)
    assert triod.lengths == pytest.approx((1.2, 1.1, 0.9))
    reordered = (targets[1], targets[2], targets[0])
    for f, target in zip(triod.fields, reordered):
        end = cumulative_tangent_integral(f)[-1]
        assert np.linalg.norm(end - np.asarray(target)) < 1e-7


def test_triod_preset_rejects_unreachable_targets():
    with pytest.raises(InvalidLengths):
        preset_triod(((5.0, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                     (1.35, 1.3, 0.95), nodes_per_unit=40)
    with pytest.raises(InvalidLengths):
        preset_triod(((0.0, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                     (1.35, 1.3, 0.95), nodes_per_unit=40)


def _assert_arc_curvature(grid, chord, near_brentq=True):
    """The bisection root: in (0, 2 pi / L], the last float whose discrete
    chord is still >= ``chord``, and within scipy brentq's own tolerance
    of brentq's root on the same bracket."""
    eps = np.finfo(float).eps
    length = grid.length
    f = lambda k: presets._discrete_chord(k, grid) - chord
    kappa = presets._solve_arc_curvature(grid, chord)
    assert 0.0 < kappa <= 2.0 * np.pi / length
    assert f(kappa) >= 0.0 > f(np.nextafter(kappa, np.inf))
    assert abs(f(kappa)) <= 4 * eps * length
    if near_brentq:
        root = brentq(f, 0.0, 2.0 * np.pi / length, xtol=1e-14, rtol=4 * eps)
        assert abs(kappa - root) <= 1e-14 + 4 * eps * abs(kappa)


@pytest.mark.parametrize("npu", [1, 3, 20, 200, 3200])
def test_arc_curvature_equals_scipy_brentq_on_preset_chords(npu):
    # the lens arcs over their bar, and the triod arcs the CLI builds
    cases = [(2.0, 1.0)] + [(length, float(np.hypot(*target)))
                            for target, length in zip(cli._TRIOD_TARGETS,
                                                      cli._TRIOD_LENGTHS)]
    for length, chord in cases:
        _assert_arc_curvature(presets._grid(length, npu), chord)


def test_arc_curvature_equals_scipy_brentq_on_random_chords():
    rng = np.random.default_rng(20261018)
    # a chord within 1e-13 of the length: the chord is flat in kappa there,
    # so any root with a zero residual is as good as brentq's
    _assert_arc_curvature(presets._grid(1.3, 40), 1.3 - 5e-14,
                          near_brentq=False)
    for _ in range(60):
        length = float(rng.uniform(0.2, 3.0))
        npu = int(rng.choice([1, 2, 3, 7, 20, 50, 200, 800, 3200]))
        _assert_arc_curvature(presets._grid(length, npu),
                              length * float(rng.uniform(0.01, 0.99999)))


@pytest.mark.parametrize("chord", [1e-3, 1e-9])
def test_arc_curvature_turns_at_most_once_on_a_coarse_grid(chord):
    # on three nodes a short chord needs nearly one full turn
    _assert_arc_curvature(Grid(1.0, 3), chord)


def test_coarse_triod_arcs_turn_at_most_once():
    triod = preset_triod(((0.02, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                         (1.35, 1.3, 0.95), nodes_per_unit=1)
    assert max(np.max(np.abs(v)) for v in triod.values()) < 2.0 * np.pi
    energy = p_energy(triod)
    assert np.isfinite(energy) and energy < 100.0


def test_perturbed_preset_seed_behavior():
    base = preset_symmetric_lens(nodes_per_unit=50)
    a = preset_perturbed(base, amplitude=0.05, seed=11)
    b = preset_perturbed(base, amplitude=0.05, seed=11)
    c = preset_perturbed(base, amplitude=0.05, seed=12)
    for va, vb in zip(a.values(), b.values()):
        assert np.array_equal(va, vb)
    assert any(not np.array_equal(va, vc)
               for va, vc in zip(a.values(), c.values()))
    assert constraint_defect(constraint_vector(a)) <= 1e-9
    assert preset_perturbed(base, amplitude=0.0, seed=3) is base


def test_state_io_round_trip(tmp_path):
    triod = preset_triod(((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                         (1.35, 1.3, 0.95), nodes_per_unit=40, p=2.5)
    path = os.path.join(tmp_path, "state.json")
    save_state(triod, path)
    loaded = load_state(path)
    assert loaded.p_exponent == triod.p_exponent
    assert np.array_equal(loaded.offsets, triod.offsets)
    assert loaded.lengths == pytest.approx(triod.lengths)
    for a, b in zip(loaded.values(), triod.values()):
        assert np.array_equal(a, b)


def test_load_state_rejects_malformed_documents(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write('{"curves": "nope"}')
    with pytest.raises(ValueError):
        load_state(path)
    with open(path, "w") as fh:
        fh.write("not json at all {")
    with pytest.raises(ValueError):
        load_state(path)
    with pytest.raises(OSError):
        load_state(os.path.join(tmp_path, "missing.json"))


_HUGE = 10**400  # a JSON integer beyond float range
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from([_HUGE, -_HUGE]) | st.text(max_size=4))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
_numbers = st.floats() | st.integers() | st.sampled_from([_HUGE, -_HUGE])
# state-shaped documents, so the validators behind the key lookups run too
_curves = st.fixed_dictionaries({
    "length": _numbers | _json_values,
    "values": st.lists(_numbers, max_size=6) | _json_values,
})
_state_docs = st.fixed_dictionaries({
    "p": _numbers | _json_values,
    "offsets": st.lists(st.lists(_numbers, max_size=3), max_size=3) | _json_values,
    "curves": st.lists(_curves, max_size=4) | _json_values,
})


@settings(max_examples=200, deadline=None)
@given(doc=_state_docs | _json_values)
@example(doc={"p": 2.0, "offsets": [[0, 0], [0, 0]],
              "curves": [{"length": _HUGE, "values": [0, 0, 0]}] * 3})
@example(doc={"p": 2.0, "offsets": [[0, 0], [0, 0]],
              "curves": [{"length": 1.0, "values": [0, 0, 0]},
                         {"length": 1.0, "values": [0, 0, 0]},
                         {"length": 2.0, "values": [0, 0, 0]}]})
@example(doc={"p": "2", "offsets": [[0, 0], [0, 0]],
              "curves": [{"length": "1.0", "values": ["0", True, 0.5]}] * 3})
def test_load_state_yields_a_state_or_value_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "load_state_doc.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = load_state(str(path))
    except ValueError:
        return
    assert len(loaded.fields) == 3
    # only JSON numbers load: no strings, no booleans
    slots = [doc["p"], *(x for row in doc["offsets"] for x in row)]
    for c in doc["curves"]:
        slots += [c["length"], *c["values"]]
    assert all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in slots)


def test_run_spec_validation():
    with pytest.raises(ValueError):
        RunSpec(flow=FlowConfig(), stride=0)
    with pytest.raises(ValueError):
        RunSpec(flow=FlowConfig(), emit=("png",))


def test_run_spec_records_only_the_settings_it_is_given():
    # report.json must not claim a preset, grid or perturbation that no
    # caller passed
    keys = ("preset", "input_path", "nodes_per_unit", "amplitude", "seed")
    config = asdict(RunSpec(flow=FlowConfig()))
    assert {k: config[k] for k in keys} == dict.fromkeys(keys)
    config = asdict(RunSpec(flow=FlowConfig(), preset="lens",
                            nodes_per_unit=100))
    assert [config[k] for k in keys] == ["lens", None, 100, None, None]


@pytest.fixture(scope="module")
def one_step_lens():
    lens = preset_symmetric_lens(nodes_per_unit=30)
    cfg = FlowConfig(tau=1e-3, T=1e-3)
    return run_flow(lens, cfg), cfg


def test_emit_writes_requested_artifacts(one_step_lens, tmp_path):
    traj, cfg = one_step_lens
    spec = RunSpec(flow=cfg, preset="lens", out_dir=str(tmp_path / "out"),
                   stride=1, emit=("json", "csv", "svg"))
    written = emit_frames(traj, spec, halt_reason=None)
    names = [os.path.relpath(w, spec.out_dir) for w in written]
    assert "report.json" in names
    assert "trajectory.csv" in names
    assert os.path.join("frames", "frame_000000.svg") in names
    assert os.path.join("frames", "frame_000001.svg") in names
    assert len(names) == 4  # a one-step run at stride 1 has two frames

    with open(os.path.join(spec.out_dir, "report.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"config", "times", "steps", "stationary", "halt_reason"}
    assert doc["halt_reason"] is None
    assert doc["stationary"] is None
    assert doc["times"] == [0.0, 1e-3]
    assert len(doc["steps"]) == 1
    step = doc["steps"][0]
    assert step["step_index"] == 0
    x = traj.reports[0].multipliers
    assert step["multipliers"] == {"lambda": x[:2].tolist(),
                                   "mu": x[2:].tolist()}
    assert step["energy_after"] <= step["energy_before"]

    with open(os.path.join(spec.out_dir, "trajectory.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "step,t,curve,s,theta,x,y"
    nodes = sum(f.grid.node_count for f in traj.states[0].fields)
    assert len(lines) == 1 + 2 * nodes
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[1]) == 0.0 and int(first[2]) == 1

    with open(os.path.join(spec.out_dir, "frames", "frame_000000.svg")) as fh:
        svg = fh.read()
    assert svg.startswith("<svg") or "<svg" in svg
    assert svg.count("<polyline") == 3


def test_report_json_matches_the_field_by_field_oracle(monkeypatch,
                                                     tmp_path):
    # a halving, a stationarity record and a halt reason: every part of
    # report.json, in the key order and number format of the oracle
    step = scheme._step
    taus = []

    def first_call_fails(prev, carried, cfg, tau, index):
        taus.append(tau)
        if len(taus) == 1:
            raise InnerSolveFailed("forced rejection")
        return step(prev, carried, cfg, tau, index)

    monkeypatch.setattr(scheme, "_step", first_call_fails)
    triod = preset_triod(cli._TRIOD_TARGETS, cli._TRIOD_LENGTHS,
                         nodes_per_unit=20)
    cfg = FlowConfig(tau=1e-2, T=2.0, osc_floor=1.95)
    with pytest.raises(FlatnessBlowup) as info:
        run_flow(triod, cfg)
    traj = info.value.trajectory
    halt = f"FlatnessBlowup: {info.value}"
    stat = detect_stationarity(traj, tol=1e9)
    assert traj.reports[0].tau == 5e-3
    assert stat is not None and stat.step_index >= 0
    spec = RunSpec(flow=cfg, preset="triod", nodes_per_unit=20,
                   out_dir=str(tmp_path))
    emit_frames(traj, spec, stationary=stat, halt_reason=halt)
    with open(tmp_path / "report.json", "rb") as fh:
        assert fh.read() == report_json(traj, spec, stat, halt).encode()


def test_emit_is_deterministic(one_step_lens, emission_path, tmp_path):
    traj, cfg = one_step_lens
    blobs = []
    # json carries the differing out_dir in its config block, so byte-compare
    # only the path-independent artifacts.
    for sub in ("a", "b"):
        spec = RunSpec(flow=cfg, out_dir=str(tmp_path / sub), stride=1,
                       emit=("csv", "svg"))
        written = emit_frames(traj, spec)
        blob = b""
        for w in sorted(written):
            with open(w, "rb") as fh:
                blob += fh.read()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_emit_respects_stride(one_step_lens, tmp_path):
    # 1-step trajectory, stride 10: indices 0 and the forced final index.
    traj, cfg = one_step_lens
    spec = RunSpec(flow=cfg, out_dir=str(tmp_path / "o"), stride=10,
                   emit=("svg",))
    written = emit_frames(traj, spec)
    assert len(written) == 2


@pytest.mark.parametrize("steps, stride, selected", [
    # states 0 and 2 plus the forced final state 3
    pytest.param(3, 2, (0, 2, 3), id="three-frames"),
    # more frames than workers
    pytest.param(6, 1, (0, 1, 2, 3, 4, 5, 6), id="seven-frames"),
])
def test_emit_bytes_match_per_value_oracle(steps, stride, selected,
                                           emission_path, tmp_path):
    # a triod has nonzero offsets, so coordinates take both signs
    triod = preset_triod(((1.1, 0.0), (-0.5, 0.95), (0.1, -0.8)),
                         (1.35, 1.3, 0.95), nodes_per_unit=40, p=3.0)
    cfg = FlowConfig(p_exponent=3.0, tau=1e-3, T=steps * 1e-3)
    traj = run_flow(triod, cfg)
    assert len(traj.states) == steps + 1
    spec = RunSpec(flow=cfg, out_dir=str(tmp_path), stride=stride,
                   emit=("csv", "svg"))
    emit_frames(traj, spec)
    frames = [(i, traj.times[i],
               [(f.values, f.grid.length) for f in traj.states[i].fields])
              for i in selected]
    pts = np.vstack([cumulative_tangent_integral(f) for f in triod.fields])
    assert (pts < 0).any(axis=0).all() and (pts > 0).any(axis=0).all()

    with open(tmp_path / "trajectory.csv", "rb") as fh:
        assert fh.read() == per_value_csv(frames).encode()
    lo, hi = svg_view_box(frames[0][2])
    assert sorted(os.listdir(tmp_path / "frames")) == [
        f"frame_{i:06d}.svg" for i, _, _ in frames]
    for i, t, curves in frames:
        # the frames take E from the step reports; p_energy must agree
        caption = f"t={t:.6g} E={p_energy(traj.states[i]):.6g}"
        with open(tmp_path / "frames" / f"frame_{i:06d}.svg", "rb") as fh:
            assert fh.read() == per_value_svg_frame(curves, caption, lo, hi).encode()


def test_emit_raises_when_a_frame_cannot_be_written(one_step_lens,
                                                    emission_path, tmp_path):
    # a directory where frame 1 goes fails that frame's job
    traj, cfg = one_step_lens
    os.makedirs(tmp_path / "frames" / "frame_000001.svg")
    spec = RunSpec(flow=cfg, out_dir=str(tmp_path), stride=1,
                   emit=("csv", "svg"))
    with pytest.raises(OSError, match="frame_000001.svg"):
        emit_frames(traj, spec)
