import os

import numpy as np
import pytest
from hypothesis import settings

from thetaflow import FlowConfig, run_flow
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
