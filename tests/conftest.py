import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from thetaflow import FlowConfig, run_flow
from thetaflow.app import emit
from thetaflow.app.presets import preset_symmetric_lens

# CI runs the property tests on a fixed example sequence, so a failure there
# reproduces locally with CI=1 (GitHub Actions sets CI).  The example
# database is off: a derandomized run replays nothing from it.
settings.register_profile("derandomized", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def relaxed_lens():
    """A coarse lens flow driven far into its stationary regime.

    Session-scoped: several test modules probe the terminal state (velocity
    decay, stationarity diagnostics, restart invariance) and the run takes
    about a second.
    """
    state = preset_symmetric_lens(nodes_per_unit=50)
    cfg = FlowConfig(T=6.0, tau=1e-2)
    return run_flow(state, cfg), cfg


@pytest.fixture(params=[
    pytest.param(2, id="pool", marks=pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="workers are forked")),
    pytest.param(1, id="in-process"),
])
def emission_path(request, monkeypatch):
    """Emit frames in a pool of two workers or in-process, whatever the
    host's CPU count; no worker may outlive the test."""
    monkeypatch.setattr(emit, "_usable_cpus", lambda: request.param)
    yield request.param
    assert not multiprocessing.active_children()


@pytest.fixture
def pool_forks(monkeypatch):
    """Emit frames through a pool of two workers; the list holds the worker
    count of each pool forked.  No worker may outlive the test."""
    forks = []
    fork = emit._fork_pool

    def recorded(workers):
        forks.append(workers)
        return fork(workers)

    monkeypatch.setattr(emit, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(emit, "_fork_pool", recorded)
    yield forks
    assert not multiprocessing.active_children()
