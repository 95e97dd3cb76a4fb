"""Tests for the benchmark tracer: self-time arithmetic on a synthetic call
tree, patching and restoring mobman bindings, and absent targets.

    python3 -m pytest perfbench
"""
import os
import sys

import numpy as np
import pytest

from tracer import TARGETS, Target, Tracer, patched_bindings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 0.5

    leaf = tracer.wrap("leaf", leaf)

    def inner():
        clock.now += 3.0
        leaf()

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()
        leaf()

    def failing():
        clock.now += 0.25
        leaf()
        raise ValueError("boom")

    outer = tracer.wrap("outer", outer)
    failing = tracer.wrap("failing", failing)
    outer()
    with pytest.raises(ValueError):
        failing()

    stats = tracer.stats
    assert stats["outer"].calls == 1
    assert list(stats["outer"].durations) == [10.5]
    assert stats["outer"].self_s == 3.0
    assert stats["inner"].calls == 2
    assert list(stats["inner"].durations) == [3.5, 3.5]
    assert stats["inner"].self_s == 6.0
    assert stats["leaf"].calls == 4
    assert stats["leaf"].self_s == 2.0
    assert (stats["failing"].calls, stats["failing"].failures) == (1, 1)
    assert stats["failing"].self_s == 0.25
    # Self times partition the top-level spans exactly.
    total = sum(s.self_s for s in stats.values())
    assert total == stats["outer"].durations[0] + stats["failing"].durations[0]
    assert tracer._child_time == [11.25]


def test_install_counts_calls_and_restores_every_binding():
    import mobman
    from mobman import dynamics, kinematics, simulate

    originals = {
        "fk": kinematics.forward_kinematics,
        "sim_fk": simulate.forward_kinematics,
        "fd": vars(dynamics.ArmDynamics)["forward_dynamics"],
        "from_csv": vars(simulate.SimLog)["from_csv"],
        "run": mobman.run_mission,
    }
    tracer = Tracer()
    with tracer.installed(TARGETS):
        assert simulate.forward_kinematics is kinematics.forward_kinematics
        assert simulate.forward_kinematics is not originals["fk"]
        assert mobman.run_mission is simulate.run_mission
        assert mobman.run_mission is not originals["run"]
        assert patched_bindings("mobman")
        model = dynamics.ArmDynamics()
        model.forward_dynamics(np.zeros(4) + 0.5, np.zeros(4), np.zeros(4))
        with pytest.raises(OSError):
            simulate.SimLog.from_csv("/nonexistent/timeseries.csv")
    assert tracer.absent == []
    for name in ("dynamics.forward_dynamics", "dynamics.mass_matrix",
                 "dynamics.coriolis_matrix", "dynamics.gravity_vector"):
        assert tracer.stats[name].calls == 1
    assert tracer.stats["simulate.from_csv"].failures == 1

    assert patched_bindings("mobman") == []
    assert kinematics.forward_kinematics is originals["fk"]
    assert simulate.forward_kinematics is originals["sim_fk"]
    assert vars(dynamics.ArmDynamics)["forward_dynamics"] is originals["fd"]
    assert vars(simulate.SimLog)["from_csv"] is originals["from_csv"]
    assert mobman.run_mission is originals["run"]


def test_missing_targets_are_reported_absent():
    from mobman import kinematics

    targets = [Target("gone.module", "mobman.no_such_module", "f"),
               Target("gone.function", "mobman.kinematics", "no_such_function"),
               Target("gone.class", "mobman.kinematics", "NoSuchClass.method"),
               Target("gone.method", "mobman.dynamics", "ArmDynamics.no_such"),
               Target("kinematics.forward_kinematics", "mobman.kinematics",
                      "forward_kinematics")]
    original = kinematics.forward_kinematics
    tracer = Tracer()
    with tracer.installed(targets):
        assert kinematics.forward_kinematics is not original
    assert tracer.absent == ["gone.module", "gone.function", "gone.class",
                             "gone.method"]
    assert tracer.stats["gone.function"].calls == 0
    assert kinematics.forward_kinematics is original
    assert patched_bindings("mobman") == []
