"""Chassis sliding-mode controller: error frame, surfaces, law and plant.

chassis_tick works the controller out in one body; the stage functions in
oracles (tracking_error, error_rates, sliding_surface, control_law) are its
reference, and the error-frame properties are held on chassis_tick's own
error."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mobman import simulate
from mobman.chassis_control import (chassis_tick, check_disturbance,
                                    plant_step, wheel_speeds)
from mobman.config import ChassisControlConfig, CircuitConfig
from mobman.errors import DisturbanceBoundViolation
from mobman.mission import Circuit
from mobman.util import wrap_angle
from oracles import (ChassisError, ChassisRefSample, control_law, error_rates,
                     run_line_scenario, sliding_surface, tracking_error)

DEG = math.pi / 180.0


def _ref(x=0.0, y=0.0, heading=0.0, v=0.88, w=0.0):
    return ChassisRefSample(x=x, y=y, heading=heading, v=v, w=w)


def _error(ref_pose, pose) -> ChassisError:
    """chassis_tick's tracking error of the vehicle at pose (X, Y, heading),
    at rest, from a reference at ref_pose with every rate zero."""
    err, _, _ = chassis_tick([*ref_pose] + [0.0] * 2, [*pose, 0.0, 0.0],
                             ChassisControlConfig())
    return ChassisError(*err)


def test_tracking_error_rotation_oracle(rng):
    for _ in range(25):
        rx, ry, rh = rng.uniform(-3, 3, 2).tolist() + [rng.uniform(-3, 3)]
        ax, ay, ah = rng.uniform(-3, 3, 2).tolist() + [rng.uniform(-3, 3)]
        err = _error((rx, ry, rh), (ax, ay, ah))
        rot = np.array([[math.cos(ah), math.sin(ah)],
                        [-math.sin(ah), math.cos(ah)]])
        expect = rot @ np.array([rx - ax, ry - ay])
        assert err.e1 == pytest.approx(expect[0], abs=1e-12)
        assert err.e2 == pytest.approx(expect[1], abs=1e-12)
        wrapped = math.atan2(math.sin(rh - ah), math.cos(rh - ah))
        assert err.e3 == pytest.approx(wrapped, abs=1e-12)


def test_tracking_error_pure_lateral_case():
    err = _error((0.0, -1.0, 0.0), (0.0, 0.0, 0.0))
    assert (err.e1, err.e2, err.e3) == (0.0, -1.0, 0.0)


def test_tracking_error_heading_wrap():
    err = _error((0.0, 0.0, math.pi - 0.01), (0.0, 0.0, -math.pi + 0.01))
    assert err.e3 == pytest.approx(-0.02, abs=1e-12)


def test_rigid_motion_invariance(rng):
    """Moving both poses by one planar rigid motion leaves the error alone."""
    ref = (1.0, 2.0, 0.4)
    act = (0.8, 2.3, 0.3)
    base = _error(ref, act)
    for _ in range(10):
        tx, ty, th = rng.uniform(-2, 2, 3)
        c, s = math.cos(th), math.sin(th)

        def move(p):
            x, y, heading = p
            return (tx + c * x - s * y, ty + s * x + c * y,
                    wrap_angle(heading + th))

        moved = _error(move(ref), move(act))
        assert moved.e1 == pytest.approx(base.e1, abs=1e-12)
        assert moved.e2 == pytest.approx(base.e2, abs=1e-12)
        assert moved.e3 == pytest.approx(base.e3, abs=1e-12)


def test_error_rates_formulas():
    err = ChassisError(0.1, -0.2, 0.3)
    v, w, vr, wr = 0.9, 0.2, 0.88, 0.1
    rates = error_rates(err, v, w, vr, wr)
    assert rates[0] == pytest.approx(w * err.e2 - v + vr * math.cos(err.e3))
    assert rates[1] == pytest.approx(-w * err.e1 + vr * math.sin(err.e3))
    assert rates[2] == pytest.approx(wr - w)


def test_sliding_surface_worked_case():
    gains = ChassisControlConfig(surface_gains=[2.0, 100.0, 18.0])
    s = sliding_surface(ChassisError(0.1, 0.0, 0.0), np.zeros(3), gains)
    np.testing.assert_allclose(s, [0.2, 0.0], atol=1e-15)


def test_sliding_surface_lateral_coupling_sign():
    gains = ChassisControlConfig(surface_gains=[2.0, 10.0, 3.0])
    _, k2, k3 = gains.surface_gains
    err = ChassisError(-0.1, 0.05, 0.0)
    rates = np.array([0.0, 0.02, 0.01])
    s = sliding_surface(err, rates, gains)
    mag = abs(rates[1] + k2 * err.e2)
    assert s[0] == pytest.approx(-0.2 - mag)
    assert s[1] == pytest.approx(rates[2] + k3 * err.e3
                                 + rates[1] + k2 * err.e2)


def test_control_law_term_by_term(rng):
    gains = ChassisControlConfig()
    k1, k2, k3 = gains.surface_gains
    q1, q2 = gains.reaching_gains
    p1, p2 = gains.switch_gains
    for _ in range(20):
        err = ChassisError(*rng.uniform(-0.2, 0.2, 3))
        rates = rng.uniform(-0.5, 0.5, 3)
        heading = rng.uniform(-math.pi, math.pi)
        yaw_rate = rng.uniform(-1.0, 1.0)
        ref = _ref(heading=rng.uniform(-math.pi, math.pi),
                   v=rng.uniform(-1, 1), w=rng.uniform(-1, 1))
        s = sliding_surface(err, rates, gains)
        u = control_law(err, rates, s, ref, heading, yaw_rate, gains)

        e1d, e2d, e3d = rates
        sgn = np.sign
        u2 = q2 * s[1] + p2 * sgn(s[1]) + k3 * e3d + e2d + k2 * e2d
        # The reference's world-frame velocity and its rate on a circle.
        vdx, vdy = ref.v * math.cos(ref.heading), ref.v * math.sin(ref.heading)
        vdx_dot, vdy_dot = -ref.w * vdy, ref.w * vdx
        u1 = (q1 * s[0] + p1 * sgn(s[0])
              + e2d * yaw_rate + (err.e2 + gains.offset_l) * u2
              - ref.v * e3d * math.sin(err.e3)
              + k1 * e1d + sgn(err.e1) * abs(e2d + k2 * e2d)
              - vdx_dot * math.cos(heading) + vdx * yaw_rate * math.sin(heading)
              - vdy_dot * math.sin(heading) - vdy * yaw_rate * math.cos(heading)
              + ref.w * e2d)
        np.testing.assert_allclose(u, [u1, u2], atol=1e-12)


def test_control_law_zero_on_reference():
    gains = ChassisControlConfig()
    err, s, u = chassis_tick(_ref(), np.array([0.0, 0.0, 0.0, 0.88, 0.0]),
                             gains)
    assert err == (0.0, 0.0, 0.0)
    np.testing.assert_array_equal(s, [0.0, 0.0])
    np.testing.assert_array_equal(u, [0.0, 0.0])


_REF_FLOAT = st.floats(-5.0, 5.0)


@settings(max_examples=200, deadline=None)
@given(ref=st.lists(_REF_FLOAT, min_size=5, max_size=5),
       position=st.tuples(_REF_FLOAT, _REF_FLOAT),
       heading=st.floats(-4.0 * math.pi, 4.0 * math.pi),
       rates=st.tuples(_REF_FLOAT, _REF_FLOAT),
       on_position=st.booleans(), as_record=st.booleans(),
       width=st.sampled_from([0.0, 0.5]) | st.floats(1e-3, 1.0))
# On the reference position the error is e1 = -0.0 for a heading in the
# third quadrant and +0.0 in the first.
@example(ref=[1.0, 2.0, 0.3, 0.88, 0.1],
         position=(0.0, 0.0), heading=-2.5, rates=(0.87, 0.12),
         on_position=True, as_record=False, width=0.0)
@example(ref=[1.0, 2.0, 0.3, 0.88, 0.1],
         position=(0.0, 0.0), heading=0.5, rates=(0.87, 0.12),
         on_position=True, as_record=True, width=0.5)
def test_chassis_tick_equals_stage_composition(ref, position, heading, rates,
                                               on_position, as_record, width):
    """chassis_tick, on a ChassisRefSample or the plain float row the step
    loop reads, gives the bits of tracking_error, then error_rates,
    sliding_surface and control_law, for headings past +-pi, for both signs
    of a zero e1 and with and without a boundary layer."""
    x, y = ref[:2] if on_position else position
    z = [x, y, heading, *rates]
    gains = ChassisControlConfig(boundary_layer=width)
    got = chassis_tick(ChassisRefSample._make(ref) if as_record else ref, z,
                       gains)
    rec = ChassisRefSample._make(ref)
    err = tracking_error(rec, (x, y, wrap_angle(heading)))
    err_rates = error_rates(err, z[3], z[4], rec.v, rec.w)
    s = sliding_surface(err, err_rates, gains)
    u = control_law(err, err_rates, s, rec, heading, z[4], gains)
    assert [float.hex(v) for part in got for v in part] == [
        float.hex(v) for v in (*err, *s, *u)]
    if on_position:
        assert got[0][0] == 0.0


def test_boundary_layer_softens_switch():
    hard = ChassisControlConfig(boundary_layer=0.0)
    soft = ChassisControlConfig(boundary_layer=0.5)
    err = ChassisError(1e-4, 0.0, 0.0)
    rates = np.zeros(3)
    s = sliding_surface(err, rates, hard)
    u_hard = control_law(err, rates, s, _ref(), 0.0, 0.0, hard)
    u_soft = control_law(err, rates, s, _ref(), 0.0, 0.0, soft)
    # Inside the layer the switch is proportional, so the command shrinks.
    assert abs(u_soft[0]) < abs(u_hard[0])
    assert np.sign(u_soft[0]) == np.sign(s[0])


def test_check_disturbance_bounds():
    check_disturbance((0.1, -0.1), (0.1, 0.1))
    with pytest.raises(DisturbanceBoundViolation):
        check_disturbance((0.11, 0.0), (0.1, 0.1))


def test_check_disturbance_rejects_nan():
    """abs(nan) > bound is False, so the check must be written the other way."""
    with pytest.raises(DisturbanceBoundViolation, match="channel 0"):
        check_disturbance((math.nan, 0.0), (0.1, 0.1))
    with pytest.raises(DisturbanceBoundViolation, match="channel 1"):
        check_disturbance((0.0, math.nan), (0.1, 0.1))


def test_wheel_speeds_differential_split():
    vl, vr = wheel_speeds(1.0, 2.0, 0.8)
    assert (vl, vr) == (1.0 - 0.8, 1.0 + 0.8)
    vl, vr = wheel_speeds(0.88, 0.0, 0.8)
    assert vl == vr == 0.88


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
@pytest.mark.parametrize("v0, ref_next, accel, steps, expect", [
    # Corner entry: the reference jump lands whole at the step end.
    (0.88, (0.8796, 1.7), 0.0, 1, (0.8796, 1.7)),
    # Constant commanded acceleration from rest.
    (0.0, (0.0, 0.0), 0.7, 250, (0.7 * 250 * 1e-3, 0.0)),
], ids=["reference_delta", "constant_accel"])
def test_plant_step_velocity_channel(integrator, v0, ref_next, accel, steps,
                                     expect):
    now = ChassisRefSample(0, 0, 0, v=v0, w=0.0)
    nxt = ChassisRefSample(0, 0, 0, v=ref_next[0], w=ref_next[1])
    z = np.array([0.0, 0.0, 0.0, v0, 0.0])
    for _ in range(steps):
        z = plant_step(z, now, nxt, np.array([accel, 0.0]), np.zeros(2), 1e-3,
                       integrator=integrator)
    assert z[3] == pytest.approx(expect[0], rel=1e-12, abs=1e-15)
    assert z[4] == pytest.approx(expect[1], abs=1e-15)


def test_plant_step_on_reference_stays_exact():
    """Zero command, zero disturbance, straight reference: no drift."""
    spec = _ref()
    z = np.array([spec.x, spec.y, spec.heading, spec.v, spec.w])
    dt = 1e-3
    for i in range(200):
        now = spec._replace(x=spec.v * i * dt)
        nxt = spec._replace(x=spec.v * (i + 1) * dt)
        z = plant_step(z, now, nxt, np.zeros(2), np.zeros(2), dt, "midpoint")
    assert z[0] == pytest.approx(0.88 * 0.2, abs=1e-12)
    assert abs(z[1]) < 1e-15 and abs(z[2]) < 1e-15
    assert z[3] == pytest.approx(0.88, abs=1e-15)


def test_plant_step_euler_matches_hand_update():
    z = np.array([1.0, 2.0, 0.3, 0.8, 0.2])
    u = np.array([0.5, -0.4])
    f = np.array([0.05, -0.05])
    now = ChassisRefSample(0, 0, 0, v=0.8, w=0.2)
    nxt = ChassisRefSample(0, 0, 0, v=0.8, w=0.2)
    dt = 1e-3
    out = plant_step(z, now, nxt, u, f, dt, integrator="euler")
    assert out[0] == pytest.approx(1.0 + 0.8 * math.cos(0.3) * dt)
    assert out[1] == pytest.approx(2.0 + 0.8 * math.sin(0.3) * dt)
    assert out[2] == pytest.approx(0.3 + 0.2 * dt)
    assert out[3] == pytest.approx(0.8 + (0.5 - 0.05) * dt)
    assert out[4] == pytest.approx(0.2 + (-0.4 + 0.05) * dt)


def test_line_scenario_rejects_out_of_bound_disturbance(monkeypatch):
    """The whole disturbance series is checked before the first step: a 0.5
    sample (or a NaN) mid-series fails the run, naming its channel, with no
    tick or plant step run.  The line runs the mission's chassis pass, so
    the bindings that pass calls are the ones counted."""
    steps = []

    def counted(real):
        def wrapper(*args, **kwargs):
            steps.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("chassis_tick", "plant_step"):
        monkeypatch.setattr(simulate, name, counted(getattr(simulate, name)))
    for channel, bad in ((0, 0.5), (1, 0.5), (1, math.nan)):
        series = np.zeros((1000, 2))
        series[500, channel] = bad
        with pytest.raises(DisturbanceBoundViolation,
                           match="channel %d" % channel):
            run_line_scenario(ChassisControlConfig(), duration=1.0, dt=1e-3,
                              disturbance=series)
        assert steps == []
    # The same run with the sample at the bound goes through every step.
    series[500, 1] = 0.1
    run_line_scenario(ChassisControlConfig(), duration=1.0, dt=1e-3,
                      disturbance=series)
    assert steps.count("plant_step") == 1000


def test_closed_loop_exact_lap_tracking():
    """Started on the reference, the loop holds the lap to micron level
    through every corner entry and exit."""
    gains = ChassisControlConfig()
    circuit = Circuit(CircuitConfig(), dt=1e-3)
    dt = 1e-3
    n = int(round(circuit.lap_time / dt))
    refs = list(map(ChassisRefSample._make,
                    circuit.sample_rows(np.arange(n + 1) * dt).tolist()))
    r0 = refs[0]
    z = np.array([r0.x, r0.y, r0.heading, r0.v, r0.w])
    worst = 0.0
    for i in range(n):
        err, _, u = chassis_tick(refs[i], z, gains)
        worst = max(worst, abs(err[0]), abs(err[1]))
        z = plant_step(z, refs[i], refs[i + 1], u, np.zeros(2), dt,
                       "midpoint")
    assert worst < 1e-4


def test_zero_speed_regulation_holds_position():
    """Frozen reference, start on it: the platform must not creep."""
    gains = ChassisControlConfig()
    ref = ChassisRefSample(1.0, -2.0, 0.7, 0.0, 0.0)
    z = np.array([1.0, -2.0, 0.7, 0.0, 0.0])
    for _ in range(500):
        _, _, u = chassis_tick(ref, z, gains)
        z = plant_step(z, ref, ref, u, np.zeros(2), 1e-3, "midpoint")
    assert abs(z[0] - 1.0) < 1e-9 and abs(z[1] + 2.0) < 1e-9
    assert abs(z[3]) < 1e-9 and abs(z[4]) < 1e-9


def test_offset_converges_into_band():
    """Pose offset at speed: both surfaces reach and the error decays."""
    gains = ChassisControlConfig()
    dt = 1e-3
    z = np.array([0.05, 0.05, 3.0 * DEG, 0.88, 0.0])
    hist = []
    for i in range(2500):
        now = _ref(x=0.88 * i * dt)
        nxt = _ref(x=0.88 * (i + 1) * dt)
        err, _, u = chassis_tick(now, z, gains)
        hist.append(err)
        z = plant_step(z, now, nxt, u, np.zeros(2), dt, "midpoint")
    tail = np.array(hist[-500:])
    assert np.abs(tail[:, 0]).max() < 0.020
    assert np.abs(tail[:, 1]).max() < 0.001
    assert np.abs(tail[:, 2]).max() < 0.6 * DEG
