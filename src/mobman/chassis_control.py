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
from dataclasses import dataclass

import numpy as np

from .errors import DisturbanceBoundViolation
from .util import integrate, wrap_angle


@dataclass(frozen=True)
class ChassisState:
    """Planar pose; heading is wrapped to (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class ChassisError:
    """Tracking error in the vehicle frame: forward, lateral, heading."""

    e1: float
    e2: float
    e3: float


@dataclass(frozen=True)
class ChassisGains:
    """Surface slopes (k1..k3), reaching gains (q1, q2), switching gains
    (p1, p2), the lever offset l, and the disturbance bounds the switching
    gains must dominate.  boundary_layer > 0 replaces the switching sign with
    a saturation of that width."""

    k1: float = 4.0
    k2: float = 100.0
    k3: float = 18.0
    q1: float = 15.0
    q2: float = 15.0
    p1: float = 0.2
    p2: float = 0.2
    offset_l: float = 0.3
    f_bounds: tuple = (0.1, 0.1)
    boundary_layer: float = 0.0
    track_width: float = 0.8
    max_speed: float = 1.0


@dataclass(frozen=True)
class ChassisRefSample:
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


def tracking_error(ref, actual) -> ChassisError:
    """Pose mismatch rotated into the actual vehicle frame."""
    dx = ref.x - actual.x
    dy = ref.y - actual.y
    c, s = math.cos(actual.heading), math.sin(actual.heading)
    return ChassisError(e1=c * dx + s * dy,
                        e2=-s * dx + c * dy,
                        e3=wrap_angle(ref.heading - actual.heading))


def error_rates(err: ChassisError, v: float, w: float,
                v_ref: float, w_ref: float) -> np.ndarray:
    """Analytic error derivatives from the unicycle error kinematics."""
    e1d = w * err.e2 - v + v_ref * math.cos(err.e3)
    e2d = -w * err.e1 + v_ref * math.sin(err.e3)
    e3d = w_ref - w
    return np.array([e1d, e2d, e3d])


def _sgn(x: float) -> float:
    return float(np.sign(x))


def _switch(x: float, width: float) -> float:
    """Sign, or a linear saturation of the given half-width."""
    if width > 0.0:
        return float(np.clip(x / width, -1.0, 1.0))
    return _sgn(x)


def sliding_surface(err: ChassisError, err_rates, gains: ChassisGains) -> np.ndarray:
    """Two coupled surfaces: the first mixes the forward channel with the
    magnitude of the lateral one, the second sums heading and lateral."""
    e1d, e2d, e3d = (float(v) for v in err_rates)
    s1 = e1d + gains.k1 * err.e1 + _sgn(err.e1) * abs(e2d + gains.k2 * err.e2)
    s2 = e3d + gains.k3 * err.e3 + e2d + gains.k2 * err.e2
    return np.array([s1, s2])


def control_law(err: ChassisError, err_rates, s, ref: ChassisRefSample,
                heading: float, yaw_rate: float,
                gains: ChassisGains) -> np.ndarray:
    """Reduced-plant acceleration command (u1, u2) for the surfaces s.

    Symbol conventions: the coupling block uses the reference linear speed and
    the actual yaw rate; the actual yaw acceleration is estimated from the
    reduced plant with the yaw command computed first (the disturbance is not
    available to the controller).  The switching sign is replaced by a
    saturation when the boundary layer is positive.
    """
    e1d, e2d, e3d = (float(v) for v in err_rates)
    u2 = (gains.q2 * s[1] + gains.p2 * _switch(s[1], gains.boundary_layer)
          + (gains.k3 * e3d + e2d + gains.k2 * e2d)
          + (-ref.w_dot))

    w_acc = ref.w_dot + u2  # plant-model estimate of the actual yaw acceleration
    coupling = (e2d * yaw_rate + (err.e2 + gains.offset_l) * w_acc
                - ref.v * e3d * math.sin(err.e3))
    slope = gains.k1 * e1d + _sgn(err.e1) * abs(e2d + gains.k2 * e2d)
    c, sh = math.cos(heading), math.sin(heading)
    feedforward = (-ref.vdx_dot * c + ref.vdx * yaw_rate * sh
                   - ref.vdy_dot * sh - ref.vdy * yaw_rate * c
                   + ref.w_dot * err.e2 + ref.w * e2d)
    u1 = (gains.q1 * s[0] + gains.p1 * _switch(s[0], gains.boundary_layer)
          + coupling + slope + feedforward)
    return np.array([u1, u2])


def chassis_tick(ref: ChassisRefSample, z, gains: ChassisGains):
    """One controller evaluation at plant state z = (X, Y, heading, v, w);
    returns the tracking error, the surfaces and the command."""
    err = tracking_error(ref, ChassisState(z[0], z[1], z[2]))
    rates = error_rates(err, z[3], z[4], ref.v, ref.w)
    s = sliding_surface(err, rates, gains)
    return err, s, control_law(err, rates, s, ref, z[2], z[4], gains)


def check_disturbance(f, f_bounds) -> None:
    """Raise if a disturbance sample exceeds the bound the gains assume."""
    for i, (fi, bound) in enumerate(zip(f, f_bounds)):
        if abs(fi) > bound + 1e-12:
            raise DisturbanceBoundViolation(
                "disturbance channel %d: |%.4f| > %.4f" % (i, fi, bound))


def plant_step(state, ref_now: ChassisRefSample, ref_next: ChassisRefSample,
               u, f, dt: float, f_bounds=None, integrator: str = "rk4"):
    """Advance pose + velocity state (X, Y, heading, v, w) one control step.

    Rates vary linearly under the commanded acceleration during the step; the
    reference delta lands at the step end so that a reference discontinuity
    taking effect at the next sample leaves this step's pose motion intact.
    An on-reference vehicle with u = f therefore stays on the reference
    exactly, including across corner entries and stop commands.
    """
    if f_bounds is not None:
        check_disturbance(f, f_bounds)
    x0, y0, h0, v0, w0 = (float(s) for s in state)
    av = u[0] - f[0]
    aw = u[1] - f[1]

    def f_pose(tau, pose):
        vt = v0 + av * tau
        wt = w0 + aw * tau
        return np.array([vt * math.cos(pose[2]), vt * math.sin(pose[2]), wt])

    pose = integrate(f_pose, np.array([x0, y0, h0]), dt, integrator)
    v1 = v0 + av * dt + (ref_next.v - ref_now.v)
    w1 = w0 + aw * dt + (ref_next.w - ref_now.w)
    return np.array([pose[0], pose[1], wrap_angle(pose[2]), v1, w1])


def wheel_speeds(v: float, w: float, track_width: float = 0.8):
    """Left/right wheel rim speeds of the differential drive."""
    half = 0.5 * track_width
    return v - w * half, v + w * half
