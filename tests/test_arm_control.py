"""Arm sliding-mode controller and spray-target frame change."""
import math
from dataclasses import replace

import numpy as np
import pytest

from mobman.arm_control import control_law, target_in_base_frame
from mobman.config import ArmControlConfig
from mobman.dynamics import accelerations
from mobman.kinematics import forward_kinematics, inverse_kinematics
from oracles import (coriolis_matrix, gravity_vector, integrate, mass_matrix,
                     random_joint_angles)

DEG = math.pi / 180.0


# Stand-in kernel terms with M = I and no bias, so the inverse dynamics
# returns the commanded acceleration and control_law hands back its reaching
# acceleration.
_IDENTITY = ((1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0), None, None,
             (0.0, 0.0, 0.0, 0.0))


def test_sliding_surface_and_switch():
    """The law's reaching acceleration is rate * edot + K sw(s) with
    s = edot + rate * e: linear in s inside the boundary layer, saturated
    outside it, and the plain sign without a layer."""
    zero = [0.0] * 4
    gains = ArmControlConfig(surface_rate=20.0,
                             switch_gain=[1.0, 2.0, 3.0, 4.0],
                             boundary_layer=0.01)
    # s = 20 e: 0.005 and -0.005 inside the layer, 5.0 and -0.4 outside it.
    e = [0.00025, -0.00025, 0.25, -0.02]
    inner = control_law(zero, zero, e, zero, zero, gains, _IDENTITY)
    np.testing.assert_allclose(inner, [0.5, -1.0, 3.0, -4.0], rtol=1e-12)
    # With edot alone: s = edot = 0.3 saturates, and rate * edot adds 6.0.
    inner = control_law(zero, [0.0, -0.3, 0.0, 0.0], zero, zero, zero, gains,
                        _IDENTITY)
    np.testing.assert_allclose(inner, [0.0, 6.0 + 2.0, 0.0, 0.0], rtol=1e-12)
    hard = replace(gains, boundary_layer=0.0)
    inner = control_law(zero, zero, [0.0, -1e-6, 2e-6, 0.0], zero, zero, hard,
                        _IDENTITY)
    assert inner == [0.0, -2.0, 3.0, 0.0]


def test_control_law_formula_recomposition(model, rng):
    gains = ArmControlConfig()
    for _ in range(10):
        q = random_joint_angles(rng)
        qd = rng.uniform(-0.5, 0.5, 4)
        ref_q = q + rng.uniform(-0.05, 0.05, 4)
        ref_qd = rng.uniform(-0.5, 0.5, 4)
        ref_qdd = rng.uniform(-1.0, 1.0, 4)
        tau = control_law(q, qd, ref_q, ref_qd, ref_qdd, gains,
                          model._kernel(q, qd))

        e = ref_q - q
        ed = ref_qd - qd
        s = ed + gains.surface_rate * e
        sw = np.clip(s / gains.boundary_layer, -1.0, 1.0)
        inner = ref_qdd + gains.surface_rate * ed \
            + np.asarray(gains.switch_gain) * sw
        expect = mass_matrix(model, q) @ inner + gravity_vector(model, q) \
            + coriolis_matrix(model, q, qd) @ qd
        np.testing.assert_allclose(tau, expect, atol=1e-9)


def test_equilibrium_torque_is_gravity(model):
    q = np.array([0.2, 60.0 * DEG, -30.0 * DEG, -20.0 * DEG])
    tau = control_law(q, np.zeros(4), q, np.zeros(4), np.zeros(4),
                      ArmControlConfig(), model._kernel(q, np.zeros(4)))
    np.testing.assert_allclose(tau, gravity_vector(model, q), atol=1e-12)


def _track(model, gains, q0, ref_q, dt, steps):
    q = q0.copy()
    qd = np.zeros(4)
    vs, errs = [], []
    zero = np.zeros(4)
    for _ in range(steps):
        tau = control_law(q, qd, ref_q, zero, zero, gains,
                          model._kernel(q, qd))

        def f(t, y):
            return np.concatenate([y[4:], accelerations(
                model._kernel(y[:4], y[4:]), tau)])

        y = integrate(f, np.concatenate([q, qd]), dt, "midpoint")
        q, qd = y[:4], y[4:]
        s = (zero - qd) + gains.surface_rate * (ref_q - q)
        vs.append(0.5 * float(s @ s))
        errs.append(float(np.abs(ref_q - q).max()))
    return np.array(vs), np.array(errs)


def test_setpoint_regulation_surface_decay(model):
    """With the exact model the surface energy never grows and the error
    drops below 1e-4 rad in well under a second."""
    gains = ArmControlConfig()
    ref_q = np.array([0.1, 70.0 * DEG, -30.0 * DEG, -20.0 * DEG])
    q0 = ref_q + np.array([0.05, -0.04, 0.05, -0.03])
    vs, errs = _track(model, gains, q0, ref_q, 1e-3, 1000)
    inc = np.diff(vs)
    assert inc.max() < 1e-9
    assert errs[-1] < 1e-4
    assert (errs < 1e-4).argmax() < 1000


def test_target_in_base_frame_round_trip(rng):
    for _ in range(25):
        pose = (rng.uniform(-3, 3), rng.uniform(-3, 3),
                rng.uniform(-math.pi, math.pi))
        target = rng.uniform(-2, 2, 3)
        pitch = rng.uniform(0.0, 0.5 * math.pi)
        local = target_in_base_frame(pose, target, pitch)
        c, s = math.cos(pose[2]), math.sin(pose[2])
        back_x = pose[0] + (c * local.x - s * local.y) * 1e-3
        back_y = pose[1] + (s * local.x + c * local.y) * 1e-3
        assert back_x == pytest.approx(target[0], abs=1e-12)
        assert back_y == pytest.approx(target[1], abs=1e-12)
        assert local.z == pytest.approx(target[2] * 1e3)
        assert local.phi == pitch


def test_mission_sweep_references_stay_in_limits(default_mission):
    """The planned joint path of the stock mission respects every limit."""
    result, _ = default_mission
    log = result.log
    q = np.column_stack([log.values["q%d" % k] for k in range(1, 5)])
    from mobman.kinematics import check_joint_limits
    for i in range(0, len(q), 500):
        check_joint_limits(q[i])


def test_tool_offset_changes_solution(stock_arm):
    tool = replace(stock_arm, y5p=150.0)
    pose = forward_kinematics(np.array([0.0, 80.0 * DEG, -40.0 * DEG,
                                        -30.0 * DEG]), tool)
    with_tool = inverse_kinematics(pose, tool)
    bare = inverse_kinematics(pose, stock_arm)
    assert np.abs(with_tool - bare).max() > 1e-3
