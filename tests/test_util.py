"""Float step helpers against the numpy expressions they replaced.

The control step runs on plain Python floats.  These oracles keep the numpy
forms of the midpoint and Euler steps, the chassis plant and np.sign/np.clip,
and require the float versions to give the same bits; the chassis and arm
plant steps, which write each rule out in closed form, must together also
match the closure-form step in tests/oracles.py.
"""
import math

import numpy as np
import pytest

from mobman.chassis_control import plant_step
from mobman.dynamics import accelerations, arm_step
from mobman.util import switch, wrap_angle
from oracles import (ChassisRefSample, closure_plant_step,
                     random_joint_angles, sign, substepped_integrate)

METHODS = ["midpoint", "euler"]
SPECIALS = [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]


def _numpy_step(f, y, dt, method):
    """The array form of one Euler or midpoint step."""
    if method == "euler":
        return y + dt * f(0.0, y)
    k1 = f(0.0, y)
    return y + dt * f(0.5 * dt, y + 0.5 * dt * k1)


def _numpy_plant_step(state, ref_now, ref_next, u, f, dt, method):
    """The array form of the chassis plant step."""
    x0, y0, h0, v0, w0 = (float(s) for s in state)
    av = u[0] - f[0]
    aw = u[1] - f[1]

    def f_pose(tau, pose):
        vt = v0 + av * tau
        wt = w0 + aw * tau
        return np.array([vt * math.cos(pose[2]), vt * math.sin(pose[2]), wt])

    pose = _numpy_step(f_pose, np.array([x0, y0, h0]), dt, method)
    v1 = v0 + av * dt + (ref_next.v - ref_now.v)
    w1 = w0 + aw * dt + (ref_next.w - ref_now.w)
    return np.array([pose[0], pose[1], wrap_angle(pose[2]), v1, w1])


def _same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()


def _with_zeros(rng, values) -> list:
    """values with about two in three entries replaced by 0.0 or -0.0."""
    return [float(rng.choice([0.0, -0.0, v])) for v in values]


@pytest.mark.parametrize("method", METHODS)
def test_arm_step_matches_numpy_integrator_bitwise(method, model, rng):
    """The mission's two plant steps advance the pose and the arm by the
    rule written out in closed form, the arm reusing the kernel terms of its
    start state.  arm_step must match the numpy oracle that evaluates the
    kernel and the accelerations afresh at every stage, plant_step the
    chassis-only oracle, and the two joined the closure-form step of
    tests/oracles.py (plant_step alone its chassis-only form), bit for bit,
    also on inputs holding 0.0 and -0.0."""
    for case, q in enumerate(random_joint_angles(rng, 400)):
        qd = rng.uniform(-2.0, 2.0, 4)
        tau = rng.uniform(-1e3, 1e3, 4).tolist()
        state = rng.uniform(-3.0, 3.0, 5).tolist()
        refs = rng.uniform(-1.0, 1.0, 4).tolist()
        u = rng.uniform(-5.0, 5.0, 2).tolist()
        f_dist = rng.uniform(-0.1, 0.1, 2).tolist()
        if case >= 200:  # signed zeros in every input
            q, qd = (np.array(_with_zeros(rng, v)) for v in (q, qd))
            tau, state, refs, u, f_dist = (_with_zeros(rng, v) for v in
                                           (tau, state, refs, u, f_dist))
        v0, w0, v1, w1 = refs
        now = ChassisRefSample(0.0, 0.0, 0.0, v=v0, w=w0)
        nxt = ChassisRefSample(0.0, 0.0, 0.0, v=v1, w=w1)

        def f(t, y):
            return np.concatenate([y[4:], accelerations(
                model._kernel(y[:4].tolist(), y[4:].tolist()), tau)])

        want = _numpy_step(f, np.concatenate([q, qd]), 1e-3, method)
        q0, qd0 = q.tolist(), qd.tolist()
        arm = (model, q0, qd0, model._kernel(q0, qd0), tau)
        got = arm_step(*arm, 1e-3, method)
        chassis = plant_step(state, now, nxt, u, f_dist, 1e-3, method)
        assert _same_bits(got, want)
        assert _same_bits(chassis, _numpy_plant_step(state, now, nxt, u,
                                                     f_dist, 1e-3, method))
        assert _same_bits(chassis + got, closure_plant_step(
            state, now, nxt, u, f_dist, 1e-3, method, arm))
        assert _same_bits(chassis, closure_plant_step(state, now, nxt, u,
                                                      f_dist, 1e-3, method))


@pytest.mark.parametrize("method", METHODS)
def test_plant_step_matches_numpy_integrator_bitwise(method, rng):
    for _ in range(200):
        state = rng.uniform(-3.0, 3.0, 5).tolist()
        v0, w0, v1, w1 = rng.uniform(-1.0, 1.0, 4).tolist()
        now = ChassisRefSample(0.0, 0.0, 0.0, v=v0, w=w0)
        nxt = ChassisRefSample(0.0, 0.0, 0.0, v=v1, w=w1)
        u = rng.uniform(-5.0, 5.0, 2).tolist()
        f = rng.uniform(-0.1, 0.1, 2).tolist()
        want = _numpy_plant_step(state, now, nxt, u, f, 1e-3, method)
        got = plant_step(state, now, nxt, u, f, 1e-3, integrator=method)
        assert _same_bits(got, want)


@pytest.mark.parametrize("method", ["rk4", "rk2"])
def test_unknown_integrator_is_rejected(method):
    """A rule name outside INTEGRATORS raises, naming it, in the chassis
    and the arm plant step alike, before any stage runs: it never falls
    through to another rule."""
    class NoStage:
        def _kernel(self, q, qd):
            raise AssertionError("a stage ran")

    ref = ChassisRefSample(0.0, 0.0, 0.0, v=0.88, w=0.0)
    with pytest.raises(ValueError, match="unknown integrator %r" % method):
        plant_step([0.0, 0.0, 0.0, 0.88, 0.0], ref, ref, [0.0, 0.0],
                   [0.0, 0.0], 1e-3, method)
    with pytest.raises(ValueError, match="unknown integrator %r" % method):
        arm_step(NoStage(), [0.0] * 4, [0.0] * 4, None, [0.0] * 4, 1e-3,
                 method)


def test_midpoint_local_error_is_third_order(model, rng):
    """One mission step of both plants under the midpoint rule, against the
    same step as the closure-form oracle integrates it by the substepped
    RK4 reference: the local error is O(dt^3), so halving dt divides it by
    about 8.  Every error stays above 1e-9, far above round-off, so the
    ratio measures the rule."""

    def local_error(args, dt):
        state, now, nxt, u, f_dist, q, qd, tau = args
        arm = (model, q, qd, model._kernel(q, qd), tau)
        got = (plant_step(state, now, nxt, u, f_dist, dt, "midpoint")
               + arm_step(*arm, dt, "midpoint"))
        want = closure_plant_step(state, now, nxt, u, f_dist, dt, "midpoint",
                                  arm, step=substepped_integrate)
        return np.abs(np.subtract(got, want)).max()

    for q in random_joint_angles(rng, 100):
        v0, w0, v1, w1 = rng.uniform(-1.0, 1.0, 4).tolist()
        args = (rng.uniform(-3.0, 3.0, 5).tolist(),
                ChassisRefSample(0.0, 0.0, 0.0, v=v0, w=w0),
                ChassisRefSample(0.0, 0.0, 0.0, v=v1, w=w1),
                rng.uniform(-5.0, 5.0, 2).tolist(),
                rng.uniform(-0.1, 0.1, 2).tolist(),
                q.tolist(), rng.uniform(-2.0, 2.0, 4).tolist(),
                rng.uniform(-1e3, 1e3, 4).tolist())
        coarse, fine = local_error(args, 1e-3), local_error(args, 5e-4)
        assert fine > 1e-9
        assert 7.0 < coarse / fine < 9.0


def _agree(got, want) -> bool:
    want = np.float64(want)
    if math.isnan(want):
        return math.isnan(got)
    return _same_bits(got, want)


@pytest.mark.parametrize("x", SPECIALS, ids=repr)
def test_sign_and_switch_match_numpy(x):
    assert type(sign(x)) is float and _agree(sign(x), np.sign(x))
    assert _agree(switch(x, 0.0), np.sign(x))
    assert _agree(switch(x, 0.01), np.clip(x / 0.01, -1.0, 1.0))
