"""Reference code the tests check the engine against, kept out of the package.

ChassisRefSample and ChassisError name the fields of one chassis reference
row and of one tracking error, which the engine keeps as plain floats;
tracking_error is the error's formula by itself, and reference_record reads
one row of the circuit's sampler as a record.
random_joint_angles draws in-range arm states.  kinetic_energy and
potential_energy rebuild an ArmDynamics model's energies body by body from
the geometry and parameters it was built from, a route that shares no code
or constant with the model's kernel, so the energy tests catch a wrong
kernel term.  mass_matrix, mass_matrix_partials and gravity_vector assemble
the kernel's M, dM/dq and G as numpy arrays, and coriolis_matrix forms C
from the Christoffel symbols of those partials, the independent check on
the kernel's expanded bias C qd + G.  torques is the inverse dynamics
M qdd + bias from the kernel's terms, and arm_control_law the arm law as a
per-joint loop over it, the composition arm_control.control_law must equal
bit for bit.  circuit_sample and scalar_inverse_kinematics are the
one-sample-at-a-time `math` versions of the circuit sampler and the IK,
which the engine runs on whole arrays.
stop_plan restates the Stage II stop rule from the scenario's
CircuitConfig and dt alone, sharing no code with mission.Circuit: it lays
out the four straights, their path lengths and lap clocks, and the pose at
any lap clock, then places each fire's stop, its lap step and the pose
parked there.
write_log writes a log alone, as export writes its timeseries.csv.
integrate is the generic one-step midpoint or Euler rule over any rates
function, and closure_plant_step states the mission's two plant steps
joined as one rates function handed to it: the chassis's plant_step and
the arm's dynamics.arm_step, which write each rule out in closed form, must
together equal it bit for bit.  substepped_integrate is a fine-step
stand-in for integrate, the reference the plant integrators' error is
measured against (handed to closure_plant_step); with one substep it is the
classic fourth-order rule.  run_line_scenario runs the mission's chassis
pass along a straight line, the closed loop the chassis tests check.
error_rates, sliding_surface and control_law are the chassis controller
stage by stage, the composition chassis_tick must equal bit for bit; sign
is np.sign of one float, the rule util.switch states for a zero width.
"""
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from mobman.dynamics import accelerations
from mobman.errors import Unreachable
from mobman.kinematics import (INTERIOR_MAX, INTERIOR_MIN, JOINT_LIMITS_HIGH,
                               JOINT_LIMITS_LOW, check_joint_limits)
from mobman.simulate import (CSV_COLUMNS, _CHASSIS_COLUMNS, _chassis_pass,
                             _write_table)
from mobman.util import INTEGRATORS, switch, wrap_angle


class ChassisError(NamedTuple):
    """Tracking error in the vehicle frame: forward, lateral, heading."""

    e1: float
    e2: float
    e3: float


class ChassisRefSample(NamedTuple):
    """Reference pose and body rates at one control instant."""

    x: float
    y: float
    heading: float
    v: float
    w: float


def tracking_error(ref, pose) -> ChassisError:
    """Pose mismatch rotated into the actual vehicle frame; pose is the
    actual (X, Y, heading), heading wrapped to (-pi, pi]."""
    x, y, heading = pose
    dx = ref.x - x
    dy = ref.y - y
    c, s = math.cos(heading), math.sin(heading)
    return ChassisError(c * dx + s * dy, -s * dx + c * dy,
                        wrap_angle(ref.heading - heading))


def reference_record(circuit, t: float) -> ChassisRefSample:
    """The circuit's reference row at lap clock t, from its own sampler,
    as a record of plain floats."""
    return ChassisRefSample._make(circuit.sample_rows([t])[0].tolist())


def random_joint_angles(rng, n: int | None = None):
    """Draw uniform in-range joint vectors (rejection on the elbow angle)."""
    count = 1 if n is None else n
    out = np.empty((count, 4))
    filled = 0
    while filled < count:
        cand = rng.uniform(JOINT_LIMITS_LOW, JOINT_LIMITS_HIGH, size=(count, 4))
        gamma = math.pi - (cand[:, 1] - cand[:, 2])
        ok = (gamma >= INTERIOR_MIN) & (gamma <= INTERIOR_MAX)
        take = min(int(ok.sum()), count - filled)
        out[filled:filled + take] = cand[ok][:take]
        filled += take
    return out[0] if n is None else out


def write_log(log, path) -> None:
    """Write log to path alone, as export writes a run's timeseries.csv."""
    _write_table(log, path, CSV_COLUMNS)


def substepped_integrate(f, y, dt, method=None, substeps: int = 8) -> list:
    """One control step of ydot = f(t, y) by the classic fourth-order rule
    over substeps equal substeps, in integrate's signature (method is
    ignored).  Whatever f holds, such as the torque, is held over the whole
    step; substep k runs on step-local t offset by k dt / substeps."""
    h = dt / substeps
    y = list(y)
    for k in range(substeps):
        t = k * h
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y


def integrate(f, y, dt, method: str) -> list:
    """One fixed step of ydot = f(t, y), with t local to the step: the
    explicit midpoint rule (second order, two stages) for method "midpoint",
    forward Euler for "euler".  Any other method raises ValueError.

    y and f's result are sequences of floats; the result is a list.  Each
    component is summed in the order of the vector form, y + dt k2 with
    k2 = f(dt/2, y + dt/2 k1), so it matches numpy bit for bit.  f is called
    at t = 0 once, at y itself.
    """
    if method == "euler":
        return [a + dt * b for a, b in zip(y, f(0.0, y))]
    if method != "midpoint":
        raise ValueError("unknown integrator %r: expected %s"
                         % (method, " or ".join(INTEGRATORS)))
    h = 0.5 * dt
    k1 = f(0.0, y)
    k2 = f(h, [a + h * b for a, b in zip(y, k1)])
    return [a + dt * b for a, b in zip(y, k2)]


def closure_plant_step(state, ref_now, ref_next, u, f, dt, integrator,
                       arm=None, step=integrate) -> list:
    """chassis_control.plant_step, then dynamics.arm_step when arm =
    (model, q, qd, terms, tau) is given, as one rates function over the 3
    pose and 8 arm floats, handed to step (integrate, or
    substepped_integrate for a finer reference); the arm's accelerations
    use terms at t = 0 and a fresh kernel at later stages."""
    x0, y0, h0, v0, w0 = state
    av = u[0] - f[0]
    aw = u[1] - f[1]
    model, q, qd, terms, tau = arm or (None, (), (), None, None)

    def rates(t, y):
        vt = v0 + av * t
        pose = [vt * math.cos(y[2]), vt * math.sin(y[2]), w0 + aw * t]
        if model is None:
            return pose
        joint_rates = y[7:]
        return pose + joint_rates + accelerations(
            terms if t == 0.0 else model._kernel(y[3:7], joint_rates), tau)

    x1, y1, h1, *rest = step(rates, [x0, y0, h0, *q, *qd], dt, integrator)
    v1 = v0 + av * dt + (ref_next[3] - ref_now[3])
    w1 = w0 + aw * dt + (ref_next[4] - ref_now[4])
    return [x1, y1, wrap_angle(h1), v1, w1, *rest]


def run_line_scenario(gains, duration: float, dt: float,
                      speed: float = 0.88, initial_offset=(0.0, 0.0, 0.0),
                      disturbance: np.ndarray | None = None) -> dict:
    """Chassis-only tracking of a straight constant-speed reference under
    gains, a ChassisControlConfig section, by the mission's chassis pass
    under the midpoint rule.

    The vehicle starts at the reference velocity with the given pose offset
    (dx, dy m; dheading rad).  Returns time histories keyed by name,
    including the switching-function energy 0.5*(s1^2 + s2^2).
    """
    n = int(round(duration / dt))
    t = np.arange(n + 1) * dt
    refs = np.zeros((n + 1, 5))
    refs[:, 0], refs[:, 3] = speed * t, speed
    f_all = np.zeros((n, 2)) if disturbance is None else disturbance[:n]
    out = dict(zip(_CHASSIS_COLUMNS, _chassis_pass(
        refs, f_all, initial_offset, gains, dt, "midpoint").T))
    out["t"], out["V"] = t, 0.5 * (out["s1"] ** 2 + out["s2"] ** 2)
    return out


def sign(x: float) -> float:
    """np.sign of one float: -1.0, 0.0 for either zero, or 1.0; NaN stays NaN."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0 if x == 0.0 else x


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
    """The chassis's reduced-plant acceleration command (u1, u2) for the
    surfaces s.

    Symbol conventions: the coupling block uses the reference linear speed and
    the actual yaw rate; the actual yaw acceleration is estimated from the
    reduced plant with the yaw command computed first (the disturbance is not
    available to the controller).  gains is the scenario's
    ChassisControlConfig section: the surface slopes k1..k3, the reaching
    gains q1, q2, the switching gains p1, p2, the lever offset l, and the
    boundary_layer width, where a zero width selects the pure switching sign.
    The feedforward reads the reference's world-frame velocity (vdx, vdy)
    and its rate, formed here from the record's heading, v and w.
    """
    e1d, e2d, e3d = err_rates
    s1, s2 = s
    k1, k2, k3 = gains.surface_gains
    q1, q2 = gains.reaching_gains
    p1, p2 = gains.switch_gains
    width = gains.boundary_layer
    u2 = (q2 * s2 + p2 * switch(s2, width)
          + (k3 * e3d + e2d + k2 * e2d))

    w_acc = u2  # plant-model estimate of the actual yaw acceleration
    coupling = (e2d * yaw_rate + (err.e2 + gains.offset_l) * w_acc
                - ref.v * e3d * math.sin(err.e3))
    slope = k1 * e1d + sign(err.e1) * abs(e2d + k2 * e2d)
    c, sh = math.cos(heading), math.sin(heading)
    vdx = ref.v * math.cos(ref.heading)
    vdy = ref.v * math.sin(ref.heading)
    vdx_dot = -ref.v * ref.w * math.sin(ref.heading)
    vdy_dot = ref.v * ref.w * math.cos(ref.heading)
    feedforward = (-vdx_dot * c + vdx * yaw_rate * sh
                   - vdy_dot * sh - vdy * yaw_rate * c
                   + ref.w * e2d)
    u1 = (q1 * s1 + p1 * switch(s1, width)
          + coupling + slope + feedforward)
    return u1, u2


def _arm(model) -> SimpleNamespace:
    """The arm of an ArmDynamics model, read from the geometry and the
    parameters it was built from, never from the model's own constants:
    the lengths in m, the masses m1-m4 and mp, the centres of mass c2-c4,
    the column's inertia i1, each planar body's spin inertia about its
    centre of mass ic2-ic4 (parallel axis) and gravity g."""
    geometry, params = model.geometry, model.params
    a1, a2, a3, a4, a5 = (v * 1e-3 for v in geometry.a)
    m1, m2, m3, m4 = params.masses
    _, c2, c3, c4 = params.com_offsets
    i1, i2, i3, i4 = params.inertias
    return SimpleNamespace(
        a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, d1=geometry.d1 * 1e-3,
        y5p=geometry.y5p * 1e-3, m1=m1, m2=m2, m3=m3, m4=m4,
        mp=params.payload_mass, c2=c2, c3=c3, c4=c4, i1=i1,
        ic2=i2 - m2 * c2 ** 2, ic3=i3 - m3 * c3 ** 2, ic4=i4 - m4 * c4 ** 2,
        g=params.gravity)


def _body_states(arm, q, qd):
    """Per planar body of _arm's arm: mass, planar COM velocity, slew
    radius, spin rate, spin inertia about the COM."""
    u2p = np.array([-math.sin(q[1]), math.cos(q[1])])
    u3p = np.array([-math.sin(q[2]), math.cos(q[2])])
    u4 = np.array([math.cos(q[3]), math.sin(q[3])])
    u4p = np.array([-math.sin(q[3]), math.cos(q[3])])

    c2, c3, c4, s4 = math.cos(q[1]), math.cos(q[2]), math.cos(q[3]), math.sin(q[3])
    bodies = []
    # boom
    v = arm.c2 * qd[1] * u2p
    bodies.append((arm.m2, v, arm.a1 + arm.c2 * c2, qd[1], arm.ic2))
    # forearm
    v = arm.a2 * qd[1] * u2p + arm.c3 * qd[2] * u3p
    bodies.append((arm.m3, v, arm.a1 + arm.a2 * c2 + arm.c3 * c3,
                   qd[2], arm.ic3))
    # wrist
    v = arm.a2 * qd[1] * u2p + arm.a3 * qd[2] * u3p + arm.c4 * qd[3] * u4p
    bodies.append((arm.m4, v,
                   arm.a1 + arm.a2 * c2 + arm.a3 * c3 + arm.a4 + arm.c4 * c4,
                   qd[3], arm.ic4))
    # payload (lever combines the wrist link and the perpendicular tool stub)
    lever = arm.a5 * u4p - arm.y5p * u4
    v = arm.a2 * qd[1] * u2p + arm.a3 * qd[2] * u3p + qd[3] * lever
    bodies.append((arm.mp, v,
                   arm.a1 + arm.a2 * c2 + arm.a3 * c3 + arm.a4
                   + arm.a5 * c4 - arm.y5p * s4,
                   0.0, 0.0))
    return bodies


def kinetic_energy(model, q, qd) -> float:
    """Total kinetic energy summed body by body."""
    arm = _arm(model)
    k = 0.5 * arm.i1 * qd[0] ** 2
    for m, v, radius, spin, icom in _body_states(arm, q, qd):
        k += 0.5 * m * (float(v @ v) + (radius * qd[0]) ** 2)
        k += 0.5 * icom * spin ** 2
    return float(k)


def potential_energy(model, q) -> float:
    """Gravitational potential, datum at the chassis deck."""
    arm = _arm(model)
    s2, s3, s4 = math.sin(q[1]), math.sin(q[2]), math.sin(q[3])
    c4 = math.cos(q[3])
    z2 = arm.d1 + arm.c2 * s2
    z3 = arm.d1 + arm.a2 * s2 + arm.c3 * s3
    z4 = arm.d1 + arm.a2 * s2 + arm.a3 * s3 + arm.c4 * s4
    zp = arm.d1 + arm.a2 * s2 + arm.a3 * s3 + arm.a5 * s4 + arm.y5p * c4
    z1 = 0.5 * arm.d1
    return float(arm.g * (arm.m1 * z1 + arm.m2 * z2 + arm.m3 * z3
                          + arm.m4 * z4 + arm.mp * zp))


# Joint rates at rest: the kernel's M, dM/dq and G do not depend on qd.
_AT_REST = (0.0, 0.0, 0.0, 0.0)


def _plain(v) -> list:
    """A joint vector as the plain floats the kernel runs on."""
    return np.asarray(v, dtype=float).tolist()


def mass_matrix(model, q) -> np.ndarray:
    """The model's inertia matrix M(q) (4x4) from its kernel."""
    m11, m22, m33, m44, m23, m24, m34 = model._kernel(_plain(q), _AT_REST)[0]
    return np.array([[m11, 0.0, 0.0, 0.0], [0.0, m22, m23, m24],
                     [0.0, m23, m33, m34], [0.0, m24, m34, m44]])


def mass_matrix_partials(model, q) -> np.ndarray:
    """dM/dq from the model's kernel as a (4, 4, 4) array, [i, j, k] =
    dM_jk/dq_i; the base-yaw slab is identically zero."""
    d11_2, d11_3, d11_4, d23, d24, d34 = model._kernel(_plain(q), _AT_REST)[1]
    out = np.zeros((4, 4, 4))
    out[1:, 0, 0] = d11_2, d11_3, d11_4
    for k, i, j, d in ((1, 1, 2, d23), (2, 1, 2, -d23), (1, 1, 3, d24),
                       (3, 1, 3, -d24), (2, 2, 3, d34), (3, 2, 3, -d34)):
        out[k, i, j] = out[k, j, i] = d
    return out


def coriolis_matrix(model, q, qd) -> np.ndarray:
    """Coriolis/centrifugal matrix C(q, qd) from the Christoffel symbols of
    the kernel's dM/dq (Siciliano et al., Robotics: Modelling, Planning and
    Control, 2009, sec. 7.2)."""
    dm = mass_matrix_partials(model, q)
    qd = np.asarray(qd, dtype=float)
    # c_kj = sum_i 0.5 (dM_kj/dq_i + dM_ki/dq_j - dM_ij/dq_k) qd_i
    term1 = np.einsum("ikj,i->kj", dm, qd)
    term2 = np.einsum("jki,i->kj", dm, qd)
    term3 = np.einsum("kij,i->kj", dm, qd)
    return 0.5 * (term1 + term2 - term3)


def gravity_vector(model, q) -> np.ndarray:
    """The model's gravity torques G(q) from its kernel; the slewing joint
    sees none."""
    return np.array([0.0, *model._kernel(_plain(q), _AT_REST)[2]])


def torques(terms, qdd) -> list:
    """M qdd + bias from the kernel's terms at one state, as 4 floats; qdd
    is 4 plain floats."""
    (m11, m22, m33, m44, m23, m24, m34), _, _, (b1, b2, b3, b4) = terms
    a1, a2, a3, a4 = qdd
    return [m11 * a1 + b1,
            m22 * a2 + m23 * a3 + m24 * a4 + b2,
            m23 * a2 + m33 * a3 + m34 * a4 + b3,
            m24 * a2 + m34 * a3 + m44 * a4 + b4]


def arm_control_law(q, qd, ref, gains, terms) -> list:
    """The arm law as a per-joint loop for the reaching acceleration, then
    torques: the composition arm_control.control_law writes out."""
    rate, width = gains.surface_rate, gains.boundary_layer
    inner = []
    for qi, qdi, rq, rqd, rqdd, k in zip(q, qd, ref[:4], ref[4:8], ref[8:],
                                         gains.switch_gain):
        edot = rqd - qdi
        s = edot + rate * (rq - qi)
        inner.append(rqdd + rate * edot + k * switch(s, width))
    return torques(terms, inner)


def circuit_sample(circuit, t: float) -> ChassisRefSample:
    """Reference state at lap clock t: a linear scan for the segment, then
    scalar math."""
    tm = math.fmod(t, circuit.lap_time)
    if tm < 0.0:
        tm += circuit.lap_time
    for seg in circuit.segments:
        if tm < seg.t0 + seg.duration - 1e-12:
            break
    tau = tm - seg.t0  # past every end: the last segment
    if seg.kind == "straight":
        x0, y0, h = seg.data
        d = seg.speed * tau
        return ChassisRefSample(
            x=x0 + d * math.cos(h), y=y0 + d * math.sin(h), heading=h,
            v=seg.speed, w=0.0)
    ccx, ccy, h0 = seg.data
    h = h0 + seg.yaw_rate * tau
    r = circuit.spec.corner_radius
    return ChassisRefSample(
        x=ccx + r * math.sin(h), y=ccy - r * math.cos(h), heading=h,
        v=seg.speed, w=seg.yaw_rate)


def _quarter_turn(x: float, y: float, q: int) -> tuple:
    """(x, y) turned q quarter turns anti-clockwise, exactly."""
    return ((x, y), (-y, x), (-x, -y), (y, -x))[q]


def _lap_pose(spec, corner_time: float, t: float) -> tuple:
    """The reference (X, Y, heading) at lap clock t (periodic), heading
    unwrapped.  After the opening half edge from K1 the lap is four
    quarters, each a corner then a straight: the first quarter turned q
    quarter turns about the centre."""
    ls, r, v = spec.edge_length, spec.corner_radius, spec.speed
    hs, (cx, cy) = 0.5 * ls, spec.center
    quarter = corner_time + ls / v
    tm = math.fmod(t, 4.0 * quarter)
    if tm < hs / v:
        return cx + v * tm, cy - hs - r, 0.0
    q, tau = divmod(tm - hs / v, quarter)
    if tau < corner_time:           # the corner centred at (hs, -hs)
        h = 0.5 * math.pi * tau / corner_time
        x, y = hs + r * math.sin(h), -hs - r * math.cos(h)
    else:                           # the straight after it
        h = 0.5 * math.pi
        x, y = hs + r, -hs + v * (tau - corner_time)
    x, y = _quarter_turn(x, y, int(q))
    return cx + x, cy + y, h + 0.5 * math.pi * q


def stop_plan(fires, spec, dt: float) -> list:
    """Each fire's stop as (ident, nearest mark 1..8, group 1..4, point,
    path length from K1, lap step, parked pose), in (lap step, ident) order.

    Group g's straight runs from A(2g-1) to A(2g) at heading g quarter
    turns; a fire goes to its nearest mark (the lowest of those within
    1e-9 m of the nearest distance) and stops at its clamped projection
    onto that straight.  Corners are driven on the control grid,
    ceil(pi r / 2 / v / dt) steps; the opening leg is split by K1, which
    starts the lap: a stop past K1 lies that far into the lap, and one on
    K1 or short of it by at most 1e-9 m at its start, lap step 0."""
    ls, r, v = spec.edge_length, spec.corner_radius, spec.speed
    hs, (cx, cy) = 0.5 * ls, spec.center
    arc = 0.5 * math.pi * r
    corner_time = math.ceil(arc / v / dt) * dt
    straights = []   # (entry, heading, path length and clock at entry)
    for g in range(1, 5):
        entry = _quarter_turn(hs + r, -hs, g - 1)
        straights.append(((cx + entry[0], cy + entry[1]), 0.5 * math.pi * g,
                          hs + g * arc + (g - 1) * ls,
                          hs / v + g * corner_time + (g - 1) * ls / v))
    marks = [(x0 + d * math.cos(h), y0 + d * math.sin(h))
             for (x0, y0), h, _, _ in straights for d in (0.0, ls)]
    rows = []
    for fire in fires:
        px, py = fire.position[0], fire.position[1]
        dists = [math.hypot(px - mx, py - my) for mx, my in marks]
        nearest = min(k for k, d in enumerate(dists)
                      if d <= min(dists) + 1e-9)
        group = nearest // 2 + 1
        (x0, y0), h, s0, t0 = straights[group - 1]
        c, s = math.cos(h), math.sin(h)
        along = min(max((px - x0) * c + (py - y0) * s, 0.0), ls)
        dist, clock = s0 + along, t0 + along / v
        if group == 4 and along >= hs - 1e-9:    # on K1 or past it
            dist = max(along - hs, 0.0)
            clock = dist / v
        step = round(clock / dt)
        rows.append((fire.ident, nearest + 1, group,
                     (x0 + along * c, y0 + along * s), dist, step,
                     _lap_pose(spec, corner_time, step * dt)))
    rows.sort(key=lambda row: (row[5], row[0]))
    return rows


def scalar_inverse_kinematics(pose, geometry) -> list:
    """Closed-form joints of one tool pose by scalar math, raising what
    inverse_kinematics raises for it."""
    if not all(map(math.isfinite, pose)):
        raise Unreachable("non-finite target (%g, %g, %g) mm, pitch %g rad"
                          % tuple(pose))
    a1, a2, a3, a4, a5 = geometry.a
    y5p = geometry.y5p
    theta1 = math.atan2(pose.y, pose.x)
    theta4 = -pose.phi
    dr3 = math.hypot(pose.x, pose.y) - a1
    dz3 = pose.z - geometry.d1
    s4, c4 = math.sin(theta4), math.cos(theta4)
    dr2 = dr3 + y5p * s4 - a4 - a5 * c4
    dz2 = dz3 - a5 * s4 - y5p * c4
    rr = dr2 * dr2 + dz2 * dz2
    rho = math.sqrt(rr)
    if rho < 1e-12:
        raise Unreachable("wrist target coincides with the shoulder axis")
    beta = math.atan2(dz2, dr2)
    cos_b2 = (rr + a2 * a2 - a3 * a3) / (2.0 * a2 * rho)
    cos_b3 = (rr + a3 * a3 - a2 * a2) / (2.0 * a3 * rho)
    if abs(cos_b2) > 1.0 + 1e-12 or abs(cos_b3) > 1.0 + 1e-12:
        raise Unreachable(
            "planar target %.1f mm outside the two-link annulus" % rho)
    q = [theta1, math.acos(min(1.0, max(-1.0, cos_b2))) + beta,
         -math.acos(min(1.0, max(-1.0, cos_b3))) + beta, theta4]
    check_joint_limits(q)
    return q
