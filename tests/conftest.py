"""Shared fixtures.

The full default mission run (25,868 steps) takes about 0.4 s, so it is
executed once per session and shared by every test that inspects the stock
scenario.
"""
import time

import numpy as np
import pytest

from mobman.config import ScenarioConfig, build_geometry, build_inertial
from mobman.dynamics import ArmDynamics
from mobman.kinematics import ArmGeometry
from mobman.simulate import run_mission


@pytest.fixture(scope="session")
def default_mission():
    """(MissionResult, wall_seconds) for the stock scenario."""
    t0 = time.perf_counter()
    result = run_mission(ScenarioConfig())
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def stock_arm():
    """The stock arm, as the default scenario builds it."""
    return build_geometry(ScenarioConfig())


@pytest.fixture(scope="session")
def stock_params(stock_arm):
    """The default scenario's inertial parameters: its mass budget split
    over the stock arm."""
    return build_inertial(ScenarioConfig(), stock_arm)


@pytest.fixture(scope="session")
def model(stock_arm, stock_params):
    """Arm dynamics with the stock geometry and mass budget."""
    return ArmDynamics(stock_params, stock_arm)


@pytest.fixture(scope="session")
def offset_arm():
    """A non-stock arm: other link lengths and shoulder height, and a nozzle
    offset, so the tool-offset terms of FK, IK and the dynamics are live."""
    return ArmGeometry(a=(150.0, 900.0, 1500.0, 120.0, 110.0), d1=240.0,
                       y5p=135.0)


@pytest.fixture(scope="session")
def offset_model(offset_arm):
    """Arm dynamics of offset_arm with the default scenario's mass budget
    split over it."""
    return ArmDynamics(build_inertial(ScenarioConfig(), offset_arm),
                       offset_arm)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
