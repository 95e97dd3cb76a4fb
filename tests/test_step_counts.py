"""Calls per control step of each stage the step loop runs.

One 10 ms stock run under each integrator rule, with a recorder wrapped
around every function the loop's two passes reach once or more per step:
the chassis controller (simulate.chassis_tick) and plant step
(simulate.plant_step), the arm law (simulate.control_law) and plant step
(simulate.arm_step), the arm model's kernel (ArmDynamics._kernel) and its
accelerations (dynamics.accelerations), and around the FK that derives the
tool columns after the loop (simulate.forward_kinematics).  A stage renamed
or moved out of the loop fails here, in the change that moves it, and the
counts state how much model work a step does.
"""
import collections
import contextlib

import numpy as np
import pytest

from mobman import dynamics, simulate
from mobman.config import parse_config
from mobman.dynamics import ArmDynamics

# (owner, name) of each binding the run calls through.
TARGETS = ((simulate, "chassis_tick"), (simulate, "control_law"),
           (simulate, "plant_step"), (simulate, "arm_step"),
           (dynamics, "accelerations"), (ArmDynamics, "_kernel"),
           (simulate, "forward_kinematics"))


@contextlib.contextmanager
def recording(targets):
    """Wrap each (owner, name) binding in a recorder, yield the argument
    tuples of its calls by name, and put every original binding back on
    exit."""
    calls = collections.defaultdict(list)
    saved = [(owner, name, vars(owner)[name]) for owner, name in targets]

    def wrap(name, fn):
        def recorded(*args):
            calls[name].append(args)
            return fn(*args)
        return recorded

    try:
        for owner, name, fn in saved:
            setattr(owner, name, wrap(name, fn))
        yield calls
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


@pytest.mark.parametrize("integrator, stages", [("midpoint", 2),
                                                ("euler", 1)])
def test_calls_per_step(integrator, stages):
    """A run of n steps logs n + 1 states: one chassis tick and one arm law
    at each, and one chassis and one arm plant step between each pair.  The
    law's kernel at a state is shared with the arm step's first stage, so
    the kernel runs stages * n + 1 times and accelerations stages * n
    times.  FK runs outside the loop: at most twice, each on all n + 1 joint
    vectors, not twice a step.  What the kernel and the plant steps are
    given is checked in test_simulate.py."""
    originals = [vars(owner)[name] for owner, name in TARGETS]
    with recording(TARGETS) as calls:
        log = simulate.run_mission(parse_config(
            {"dt": 0.01, "integrator": integrator})).log
    assert [vars(owner)[name] for owner, name in TARGETS] == originals
    n = log.n_rows - 1
    assert n > 2000
    fk = calls.pop("forward_kinematics")
    assert {name: len(args) for name, args in calls.items()} == {
        "chassis_tick": n + 1, "control_law": n + 1, "plant_step": n,
        "arm_step": n, "_kernel": stages * n + 1,
        "accelerations": stages * n}
    assert 1 <= len(fk) <= 2
    assert all(np.shape(joints) == (n + 1, 4) for joints, _ in fk)
