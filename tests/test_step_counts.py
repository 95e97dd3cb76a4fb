"""Calls per control step of each stage the step loop runs.

One 10 ms stock run under each integrator rule, with a counter wrapped
around every function the loop reaches once or more per step: the chassis
controller (simulate.chassis_tick), the arm law (simulate.control_law), the
plant step (simulate.plant_step), the arm model's kernel
(ArmDynamics._kernel) and its accelerations (chassis_control.accelerations).
A stage renamed or moved out of the loop fails here, in the change that
moves it, and the counts state how much model work a step does.
"""
import collections
import contextlib

import pytest

from mobman import chassis_control, simulate
from mobman.config import parse_config
from mobman.dynamics import ArmDynamics

# (owner, name) of each binding the loop calls through.
TARGETS = ((simulate, "chassis_tick"), (simulate, "control_law"),
           (simulate, "plant_step"), (chassis_control, "accelerations"),
           (ArmDynamics, "_kernel"))


@contextlib.contextmanager
def counting(targets):
    """Wrap each (owner, name) binding in a call counter, yield the counts
    by name, and put every original binding back on exit."""
    counts = collections.Counter()
    saved = [(owner, name, vars(owner)[name]) for owner, name in targets]

    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    try:
        for owner, name, fn in saved:
            setattr(owner, name, wrap(name, fn))
        yield counts
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


@pytest.mark.parametrize("integrator, stages", [("midpoint", 2),
                                                ("euler", 1)])
def test_calls_per_step(integrator, stages):
    """A run of n steps logs n + 1 states: one chassis tick and one arm law
    at each, and one plant step between each pair.  The law's kernel at a
    state is shared with the step's first stage, so the kernel runs
    stages * n + 1 times and accelerations stages * n times."""
    originals = [vars(owner)[name] for owner, name in TARGETS]
    with counting(TARGETS) as counts:
        log = simulate.run_mission(parse_config(
            {"dt": 0.01, "integrator": integrator})).log
    assert [vars(owner)[name] for owner, name in TARGETS] == originals
    n = log.n_rows - 1
    assert n > 2000
    assert dict(counts) == {"chassis_tick": n + 1, "control_law": n + 1,
                            "plant_step": n, "_kernel": stages * n + 1,
                            "accelerations": stages * n}
