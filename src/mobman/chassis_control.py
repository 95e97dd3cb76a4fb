"""Differential-drive chassis tracking: error frame, sliding surfaces, control.

The tracking error is the pose mismatch rotated into the vehicle frame
(forward, lateral, heading).  Two coupled sliding surfaces drive it to zero;
the control acts on a reduced plant in which an inner loop has already
cancelled the chassis dynamics, leaving  zdot - zdot_ref = u - f  for
z = (v, w) with a bounded lumped disturbance f.

Units: metres, seconds, radians.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DisturbanceBoundViolation
from .util import integrate, sign, switch, wrap_angle


class ChassisError(NamedTuple):
    """Tracking error in the vehicle frame: forward, lateral, heading."""

    e1: float
    e2: float
    e3: float


class ChassisRefSample(NamedTuple):
    """Reference pose, body rates, world-frame velocity components and their
    time derivatives at one control instant."""

    x: float
    y: float
    heading: float
    v: float
    w: float
    vdx: float = 0.0
    vdy: float = 0.0
    vdx_dot: float = 0.0
    vdy_dot: float = 0.0
    w_dot: float = 0.0


def tracking_error(ref, pose) -> ChassisError:
    """Pose mismatch rotated into the actual vehicle frame; pose is the
    actual (X, Y, heading), heading wrapped to (-pi, pi]."""
    x, y, heading = pose
    dx = ref.x - x
    dy = ref.y - y
    c, s = math.cos(heading), math.sin(heading)
    return ChassisError(c * dx + s * dy, -s * dx + c * dy,
                        wrap_angle(ref.heading - heading))


def error_rates(err: ChassisError, v: float, w: float,
                v_ref: float, w_ref: float) -> tuple:
    """Analytic error derivatives from the unicycle error kinematics."""
    e1d = w * err.e2 - v + v_ref * math.cos(err.e3)
    e2d = -w * err.e1 + v_ref * math.sin(err.e3)
    e3d = w_ref - w
    return e1d, e2d, e3d


def sliding_surface(err: ChassisError, err_rates, gains) -> tuple:
    """Two coupled surfaces: the first mixes the forward channel with the
    magnitude of the lateral one, the second sums heading and lateral.
    gains is the scenario's ChassisControlConfig section."""
    e1d, e2d, e3d = err_rates
    k1, k2, k3 = gains.surface_gains
    s1 = e1d + k1 * err.e1 + sign(err.e1) * abs(e2d + k2 * err.e2)
    s2 = e3d + k3 * err.e3 + e2d + k2 * err.e2
    return s1, s2


def control_law(err: ChassisError, err_rates, s, ref: ChassisRefSample,
                heading: float, yaw_rate: float, gains) -> tuple:
    """Reduced-plant acceleration command (u1, u2) for the surfaces s.

    Symbol conventions: the coupling block uses the reference linear speed and
    the actual yaw rate; the actual yaw acceleration is estimated from the
    reduced plant with the yaw command computed first (the disturbance is not
    available to the controller).  gains is the scenario's
    ChassisControlConfig section: the surface slopes k1..k3, the reaching
    gains q1, q2, the switching gains p1, p2, the lever offset l, and the
    boundary_layer width, where a zero width selects the pure switching sign.
    """
    e1d, e2d, e3d = err_rates
    s1, s2 = s
    k1, k2, k3 = gains.surface_gains
    q1, q2 = gains.reaching_gains
    p1, p2 = gains.switch_gains
    width = gains.boundary_layer
    u2 = (q2 * s2 + p2 * switch(s2, width)
          + (k3 * e3d + e2d + k2 * e2d)
          + (-ref.w_dot))

    w_acc = ref.w_dot + u2  # plant-model estimate of the actual yaw acceleration
    coupling = (e2d * yaw_rate + (err.e2 + gains.offset_l) * w_acc
                - ref.v * e3d * math.sin(err.e3))
    slope = k1 * e1d + sign(err.e1) * abs(e2d + k2 * e2d)
    c, sh = math.cos(heading), math.sin(heading)
    feedforward = (-ref.vdx_dot * c + ref.vdx * yaw_rate * sh
                   - ref.vdy_dot * sh - ref.vdy * yaw_rate * c
                   + ref.w_dot * err.e2 + ref.w * e2d)
    u1 = (q1 * s1 + p1 * switch(s1, width)
          + coupling + slope + feedforward)
    return u1, u2


def chassis_tick(ref: ChassisRefSample, z, gains):
    """One controller evaluation at plant state z = (X, Y, heading, v, w),
    with gains the ChassisControlConfig section; returns the tracking error,
    the surfaces and the command."""
    x, y, heading, v, w = z
    err = tracking_error(ref, (x, y, wrap_angle(heading)))
    rates = error_rates(err, v, w, ref.v, ref.w)
    s = sliding_surface(err, rates, gains)
    return err, s, control_law(err, rates, s, ref, heading, w, gains)


def check_disturbance(f, f_bounds) -> None:
    """Raise unless each channel's disturbance f (a sample, or a series' peak
    |f|) is within the bound the gains assume; NaN is out of bounds."""
    for i, (fi, bound) in enumerate(zip(f, f_bounds)):
        if not abs(fi) <= bound + 1e-12:
            raise DisturbanceBoundViolation(
                "disturbance channel %d: |%.4f| > %.4f" % (i, fi, bound))


def plant_step(state, ref_now: ChassisRefSample, ref_next: ChassisRefSample,
               u, f, dt: float, integrator: str, carried=None) -> list:
    """Advance pose + velocity state (X, Y, heading, v, w) one control step
    by the rule integrator names, one of util.INTEGRATORS; returns the new
    state as a list of 5 floats, then the carried plant's.

    Rates vary linearly under the commanded acceleration during the step; the
    reference delta lands at the step end so that a reference discontinuity
    taking effect at the next sample leaves this step's pose motion intact.
    An on-reference vehicle with u = f therefore stays on the reference
    exactly, including across corner entries and stop commands.  Callers
    check f's whole series against the bounds once, with check_disturbance.

    carried, when given, is a plant riding on the chassis, (y, rates): its
    state y as a list of floats and its derivative rates(t, y) at step-local
    time t.  The one integrate call advances it with the pose, and its new
    state follows the 5 chassis floats in the result.
    """
    x0, y0, h0, v0, w0 = state
    av = u[0] - f[0]
    aw = u[1] - f[1]
    start, carried_rates = ([], None) if carried is None else carried

    def rates(tau, y):
        vt = v0 + av * tau
        pose = [vt * math.cos(y[2]), vt * math.sin(y[2]), w0 + aw * tau]
        if carried_rates is None:
            return pose
        return pose + carried_rates(tau, y[3:])

    x1, y1, h1, *rest = integrate(rates, [x0, y0, h0, *start], dt, integrator)
    v1 = v0 + av * dt + (ref_next.v - ref_now.v)
    w1 = w0 + aw * dt + (ref_next.w - ref_now.w)
    return [x1, y1, wrap_angle(h1), v1, w1, *rest]


def wheel_speeds(v: float, w: float, track_width: float):
    """Left/right wheel rim speeds of the differential drive."""
    half = 0.5 * track_width
    return v - w * half, v + w * half
