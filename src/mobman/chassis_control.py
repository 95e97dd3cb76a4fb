"""Differential-drive chassis tracking: error frame, sliding surfaces, control.

The tracking error is the pose mismatch rotated into the vehicle frame
(forward, lateral, heading).  Two coupled sliding surfaces drive it to zero;
the control acts on a reduced plant in which an inner loop has already
cancelled the chassis dynamics, leaving  zdot - zdot_ref = u - f  for
z = (v, w) with a bounded lumped disturbance f.  chassis_tick evaluates the
whole controller in one body, and plant_step advances the chassis alone (the
arm never acts on it) by the midpoint or Euler rule in closed form.

Units: metres, seconds, radians.
"""
from __future__ import annotations

import math

from .errors import DisturbanceBoundViolation
from .util import INTEGRATORS, switch, wrap_angle


def chassis_tick(ref, z, gains):
    """One controller evaluation at plant state z = (X, Y, heading, v, w),
    with gains the ChassisControlConfig section; returns the tracking error
    (e1, e2, e3), the surfaces (s1, s2) and the command (u1, u2) as tuples.
    ref is one reference row, its pose and body rates (v, w), read by
    position in the column order of mission.Circuit.REFERENCE_COLUMNS.

    The error is the pose mismatch rotated into the vehicle frame at the
    wrapped heading, with the heading error wrapped too; its rates follow
    the unicycle error kinematics.  The first surface mixes the forward
    channel with the magnitude of the lateral one, the second sums heading
    and lateral.  The reduced-plant command's coupling block uses the
    reference linear speed and the actual yaw rate, and the yaw command,
    computed first, stands for the actual yaw acceleration (the disturbance
    is not available to the controller).  The feedforward forms the
    reference's world-frame velocity and its rate from the row.  A zero
    boundary_layer width selects the pure switching sign.
    """
    rx, ry, rh, rv, rw = ref
    x, y, heading, v, w = z
    k1, k2, k3 = gains.surface_gains
    q1, q2 = gains.reaching_gains
    p1, p2 = gains.switch_gains
    width = gains.boundary_layer
    h = wrap_angle(heading)
    dx = rx - x
    dy = ry - y
    c, s = math.cos(h), math.sin(h)
    e1 = c * dx + s * dy
    e2 = -s * dx + c * dy
    e3 = wrap_angle(rh - h)
    sin_e3 = math.sin(e3)
    e1d = w * e2 - v + rv * math.cos(e3)
    e2d = -w * e1 + rv * sin_e3
    e3d = rw - w
    sgn = switch(e1, 0.0)
    s1 = e1d + k1 * e1 + sgn * abs(e2d + k2 * e2)
    s2 = e3d + k3 * e3 + e2d + k2 * e2
    u2 = (q2 * s2 + p2 * switch(s2, width)
          + (k3 * e3d + e2d + k2 * e2d))
    coupling = (e2d * w + (e2 + gains.offset_l) * u2  # u2 stands for w's rate
                - rv * e3d * sin_e3)
    slope = k1 * e1d + sgn * abs(e2d + k2 * e2d)
    ch, sh = math.cos(heading), math.sin(heading)
    crh, srh = math.cos(rh), math.sin(rh)
    vdx, vdy = rv * crh, rv * srh  # world-frame reference velocity
    vdx_dot, vdy_dot = -rv * rw * srh, rv * rw * crh  # and its rate
    feedforward = (-vdx_dot * ch + vdx * w * sh
                   - vdy_dot * sh - vdy * w * ch + rw * e2d)
    u1 = (q1 * s1 + p1 * switch(s1, width)
          + coupling + slope + feedforward)
    return (e1, e2, e3), (s1, s2), (u1, u2)


def check_disturbance(f, f_bounds) -> None:
    """Raise unless each channel's disturbance f (a sample, or a series' peak
    |f|) is within the bound the gains assume; NaN is out of bounds."""
    for i, (fi, bound) in enumerate(zip(f, f_bounds)):
        if not abs(fi) <= bound + 1e-12:
            raise DisturbanceBoundViolation(
                "disturbance channel %d: |%.4f| > %.4f" % (i, fi, bound))


def plant_step(state, ref_now, ref_next, u, f, dt: float,
               integrator: str) -> list:
    """Advance pose + velocity state (X, Y, heading, v, w) one control step
    by the rule integrator names, one of util.INTEGRATORS (any other raises
    ValueError); returns the new state as a list of 5 floats.

    Rates vary linearly under the commanded acceleration during the step; the
    reference delta lands at the step end so that a reference discontinuity
    taking effect at the next sample leaves this step's pose motion intact.
    An on-reference vehicle with u = f therefore stays on the reference
    exactly, including across corner entries and stop commands.  The
    reference rows are read by position, in the column order of
    mission.Circuit.REFERENCE_COLUMNS; only v and w are used.  Callers check
    f's whole series against the bounds once, with check_disturbance.

    Euler is y + dt f(0, y), the explicit midpoint rule y + dt f(t, y +
    t f(0, y)) with t = dt/2; its half step forms only the heading, as no
    rate reads X or Y.  Sums run in the vector form's order, with its t = 0
    rates v0 + av * 0 and w0 + aw * 0, so a step matches numpy bit for bit,
    signed zeros included.
    """
    x0, y0, h0, v0, w0 = state
    av = u[0] - f[0]
    aw = u[1] - f[1]
    midpoint = integrator == "midpoint"
    if not midpoint and integrator != "euler":
        raise ValueError("unknown integrator %r: expected %s"
                         % (integrator, " or ".join(INTEGRATORS)))
    t = 0.5 * dt if midpoint else 0.0  # the stage the rates are taken at
    heading = h0 + t * (w0 + aw * 0.0) if midpoint else h0
    v = v0 + av * t
    return [x0 + dt * (v * math.cos(heading)),
            y0 + dt * (v * math.sin(heading)),
            wrap_angle(h0 + dt * (w0 + aw * t)),
            v0 + av * dt + (ref_next[3] - ref_now[3]),
            w0 + aw * dt + (ref_next[4] - ref_now[4])]


def wheel_speeds(v: float, w: float, track_width: float):
    """Left/right wheel rim speeds of the differential drive."""
    half = 0.5 * track_width
    return v - w * half, v + w * half
