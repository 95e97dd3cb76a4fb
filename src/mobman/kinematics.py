"""Arm geometry: link constants, joint limits, closed-form FK/IK and workspace.

The arm is a 4-DOF palletizing linkage.  A parallelogram transmission keeps
the short link between the forearm and the wrist horizontal, which decouples
the planar joints: every link angle is measured from the horizontal of the
slewing plane ("absolute" angles) instead of accumulating along the chain.
The structure also fixes the link twists and offsets: only the base link is
twisted (by 90 deg) and offset (by the shoulder height).  So ArmGeometry
holds just the five link lengths, the shoulder height and the nozzle offset,
and every pose formula below uses absolute angles.

Units: millimetres and radians.  Joint vectors are sequences of 4 angles
ordered (base yaw, boom, forearm, wrist pitch); the IK returns numpy arrays,
one row per pose of a batch, and the FK also takes a stack of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, JointLimitViolation, Unreachable
from .util import DEG

# Joint ranges, radians: base yaw, boom, forearm, wrist pitch.
JOINT_LIMITS_LOW = tuple(v * DEG for v in (-180.0, 0.0, -120.0, -90.0))
JOINT_LIMITS_HIGH = tuple(v * DEG for v in (180.0, 135.0, 15.5, 0.0))
JOINT_NAMES = ("theta1", "theta2", "theta3", "theta4")

# Allowed elbow interior angle between boom and forearm.
INTERIOR_MIN = 30.0 * DEG
INTERIOR_MAX = 165.0 * DEG

_LIMIT_TOL = 1e-9

# Nozzle pitches tried at a fire or a probed point: 0 to 90 deg by 5 deg.
PITCH_GRID = tuple(k * 5.0 * DEG for k in range(19))

# Workspace sweep steps: the planar radii and envelope, the cloud's boom and
# forearm grid, and the cloud's slew.
PLANAR_STEP = 0.25 * DEG
CLOUD_STEP = 5.0 * DEG
SLEW_STEP = 30.0 * DEG


@dataclass(frozen=True)
class ArmGeometry:
    """The arm's constants in mm: the five link lengths a1..a5 (base offset,
    boom, forearm, parallelogram link, wrist), the shoulder height d1 and the
    nozzle offset y5p along the wrist frame's y-axis."""

    a: tuple
    d1: float
    y5p: float

    def __post_init__(self):
        if len(self.a) != 5:
            raise GeometryError("the arm has exactly 5 link lengths")
        if not all(0 <= v < math.inf for v in (*self.a, self.d1, self.y5p)):
            raise GeometryError("link lengths, shoulder height and tool "
                                "offset must be finite and non-negative")


class EndEffectorPose(NamedTuple):
    """Tool point position (mm) and nozzle pitch above horizontal (rad).

    A typing.NamedTuple: read its fields by name, and derive a changed copy
    with _replace (pose._replace(phi=0.0)), not dataclasses.replace.
    """

    x: float
    y: float
    z: float
    phi: float


def interior_angle(q):
    """Elbow interior angle between boom and forearm over q's leading axes."""
    q = np.asarray(q, dtype=float)
    return math.pi - (q[..., 1] - q[..., 2])


def _limit_mask(q) -> np.ndarray:
    """The joint-range rule as a mask over q's leading axes and its five
    bounds in order: joints 1-4 (q's last axis), then the elbow angle; True
    within range to _LIMIT_TOL, a NaN failing."""
    values = np.concatenate([q, interior_angle(q)[..., None]], -1)
    low = np.array(JOINT_LIMITS_LOW + (INTERIOR_MIN,)) - _LIMIT_TOL
    high = np.array(JOINT_LIMITS_HIGH + (INTERIOR_MAX,)) + _LIMIT_TOL
    return (low <= values) & (values <= high)


def check_joint_limits(q) -> None:
    """Raise JointLimitViolation naming the first bound of _limit_mask that
    the joint vector q fails."""
    ok = _limit_mask(q)
    k = int(ok.argmin())  # the first unmet bound, if any
    if ok[k]:
        return
    if k < len(JOINT_NAMES):
        raise JointLimitViolation(
            "%s = %.6f deg outside [%.2f, %.2f] deg"
            % (JOINT_NAMES[k], q[k] / DEG, JOINT_LIMITS_LOW[k] / DEG,
               JOINT_LIMITS_HIGH[k] / DEG))
    raise JointLimitViolation(
        "interior angle = %.6f deg outside [%g, %g] deg"
        % (interior_angle(q) / DEG, INTERIOR_MIN / DEG, INTERIOR_MAX / DEG))


def _joint_samples(k: int, step: float) -> np.ndarray:
    """Joint k's range sampled every step (rad) from its lower stop."""
    return np.arange(JOINT_LIMITS_LOW[k], JOINT_LIMITS_HIGH[k] + 0.5 * step,
                     step)


def _chain(geometry: ArmGeometry, q: np.ndarray, r0=0.0, z0=0.0):
    """Radial/vertical position (mm) in the slewing plane of the tip of the
    boom and forearm, at q's joints 2 and 3, the boom rooted at (r0, z0)."""
    _, a2, a3, _, _ = geometry.a
    t2, t3 = q[..., 1], q[..., 2]
    return (r0 + a2 * np.cos(t2) + a3 * np.cos(t3),
            z0 + a2 * np.sin(t2) + a3 * np.sin(t3))


def forward_kinematics(q, geometry: ArmGeometry) -> EndEffectorPose:
    """Tool pose from joint angles (absolute-angle convention); q's last axis
    holds the four joints, and the pose's fields have q's other axes.

    The pure geometric map: it checks no joint range, which is
    check_joint_limits' job.  The nozzle pitch comes straight from the wrist
    joint: phi = -theta4.  For one joint vector the fields are numpy float64
    scalars.  numpy's cos and sin match math.cos and math.sin bit for bit
    on the machines tested (tests/test_simulate.py checks it).
    """
    a1, _, _, a4, a5 = geometry.a
    q = np.asarray(q, dtype=float)
    r, z = _chain(geometry, q, a1, geometry.d1)
    c4, s4 = np.cos(q[..., 3]), np.sin(q[..., 3])
    r = r + a4 + a5 * c4 - geometry.y5p * s4
    return EndEffectorPose(r * np.cos(q[..., 0]), r * np.sin(q[..., 0]),
                           z + a5 * s4 + geometry.y5p * c4, -q[..., 3])


def _math_map(f, *columns) -> np.ndarray:
    """f of math applied across equal-length 1-D columns."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), float,
                       len(columns[0]))


def _solve(pose: EndEffectorPose, geometry: ArmGeometry):
    """IK of every sample of pose: (q, bad, error), q the (n, 4) solutions,
    bad the failing samples' mask, error(i) sample i's error.  atan2, hypot
    and acos run through math, whose last bits numpy's miss on some inputs;
    the rest, which match it, run on whole arrays."""
    a1, a2, a3, a4, a5 = geometry.a
    y5p = geometry.y5p
    fields = [np.asarray(v, dtype=float) for v in pose]
    x, y, z, phi = (f.reshape(-1) for f in np.broadcast_arrays(*fields))

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        theta1 = _math_map(math.atan2, y, x)
        theta4 = -phi
        dr3 = _math_map(math.hypot, x, y) - a1
        dz3 = z - geometry.d1
        s4, c4 = np.sin(theta4), np.cos(theta4)
        dr2 = dr3 + y5p * s4 - a4 - a5 * c4
        dz2 = dz3 - a5 * s4 - y5p * c4

        rr = dr2 * dr2 + dz2 * dz2
        rho = np.sqrt(rr)
        beta = _math_map(math.atan2, dz2, dr2)
        cos_b2 = (rr + a2 * a2 - a3 * a3) / (2.0 * a2 * rho)
        cos_b3 = (rr + a3 * a3 - a2 * a2) / (2.0 * a3 * rho)
        # acos of min(1, max(-1, c)): fmax takes NaN to -1 as max does.
        acos2, acos3 = (_math_map(math.acos, np.fmin(np.fmax(c, -1.0), 1.0))
                        for c in (cos_b2, cos_b3))
        q = np.column_stack([theta1, acos2 + beta, -acos3 + beta, theta4])
        finite = np.isfinite([x, y, z, phi]).all(axis=0)
        open_ = (np.abs(cos_b2) > 1.0 + 1e-12) | (np.abs(cos_b3) > 1.0 + 1e-12)
        bad = ~finite | (rho < 1e-12) | open_ | ~_limit_mask(q).all(-1)

    def error(i: int) -> Exception:
        if not finite[i]:
            exc = Unreachable("non-finite target (%g, %g, %g) mm, pitch %g "
                              "rad" % (x[i], y[i], z[i], phi[i]))
        elif rho[i] < 1e-12:
            exc = Unreachable("wrist target coincides with the shoulder axis")
        elif open_[i]:
            exc = Unreachable("planar target %.1f mm outside the two-link "
                              "annulus" % rho[i])
        else:
            try:
                check_joint_limits(q[i])
            except JointLimitViolation as limit:
                exc = limit
        exc.sample = i
        return exc

    return q, bad, error


def inverse_kinematics(pose: EndEffectorPose,
                       geometry: ArmGeometry) -> np.ndarray:
    """Closed-form joints, shape (4,), for a pose of floats, or (n, 4) for a
    pose of equal-length 1-D arrays (a float field serves every sample).

    The planar sub-problem reduces to a two-link triangle once the wrist and
    tool contributions are peeled off the radial/vertical target.  The boom
    takes the +acos branch and the forearm the -acos branch, which is the only
    branch compatible with the joint ranges (the boom always sits above the
    forearm).  Raises Unreachable when a coordinate or the pitch is not
    finite or the triangle cannot close, and JointLimitViolation when it
    closes outside the joint ranges: a batch raises what its first failing
    sample alone would, the sample's index as the error's sample.
    """
    q, bad, error = _solve(pose, geometry)
    if bad.any():
        raise error(int(bad.argmax()))
    return q if any(np.ndim(v) for v in pose) else q[0]


@dataclass(frozen=True)
class KeyPointCheck:
    """Reachability verdict for a named scenario point (position in mm)."""

    name: str
    position: tuple
    reachable: bool


@dataclass(frozen=True)
class WorkspaceSummary:
    """Grid-sweep summary of the reachable envelope.

    r_min/r_max are the radial extremes of the boom+forearm pair about the
    shoulder; full_reach_min/max add the base offset, the parallelogram link
    and the wrist.  boundary holds (r, z) samples of the planar envelope about
    the shoulder, cloud holds coarse 3-D tool positions.
    """

    r_min: float
    r_max: float
    full_reach_min: float
    full_reach_max: float
    boundary: np.ndarray
    cloud: np.ndarray
    key_points: tuple


def scan_pitch(pose: EndEffectorPose, geometry: ArmGeometry):
    """Try the candidate pitches pose.phi (rad, 1-D) in order at the tool
    point pose.x, .y, .z; returns (pitch, joints) for the first with an
    in-range solution, joints its 4 angles as a tuple, else (None, the last
    failure's reason)."""
    q, bad, error = _solve(pose, geometry)
    if bad.all():
        return None, str(error(len(bad) - 1))
    i = int(bad.argmin())
    return float(pose.phi[i]), tuple(q[i].tolist())


def point_reachable(position, geometry: ArmGeometry) -> bool:
    """True if some pitch of PITCH_GRID admits an in-range solution."""
    x, y, z = (float(v) for v in position)
    return scan_pitch(EndEffectorPose(x, y, z, PITCH_GRID),
                      geometry)[0] is not None


def _in_range_rows(t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """The in-range joint vectors (0, theta2, theta3, 0) of equal-length
    theta2 and theta3 arrays, one row each."""
    q = np.stack(np.broadcast_arrays(0.0, t2, t3, 0.0), -1)
    return q[_limit_mask(q).all(-1)]


def _planar_grid(step: float) -> np.ndarray:
    """The in-range rows of the step grid over theta2 and theta3,
    theta2-major."""
    t2, t3 = _joint_samples(1, step), _joint_samples(2, step)
    return _in_range_rows(np.repeat(t2, len(t3)), np.tile(t3, len(t2)))


def workspace_analysis(geometry: ArmGeometry,
                       key_points=()) -> WorkspaceSummary:
    """Sweep the boom and forearm over their ranges under the elbow-angle
    limits, the wrist flat (theta4 = 0): the radii on the PLANAR_STEP grid;
    boundary along the boom's upper and lower stops and the 30 and 165 deg
    elbow arcs, every PLANAR_STEP; cloud on the CLOUD_STEP grid, slewed every
    SLEW_STEP.  key_points is an iterable of (name, (x, y, z)) entries in mm,
    each checked for reachability with the closed-form solver.
    """
    a1, _, _, a4, a5 = geometry.a

    rr, zz = _chain(geometry, _planar_grid(PLANAR_STEP))
    radius = np.hypot(rr, zz)
    full = a1 + rr + a4 + a5  # the tool point's radial extent

    t2, t3 = _joint_samples(1, PLANAR_STEP), _joint_samples(2, PLANAR_STEP)
    curves = [(np.full_like(t3, stop), t3)
              for stop in (JOINT_LIMITS_HIGH[1], JOINT_LIMITS_LOW[1])]
    curves += [(t2, t2 - (math.pi - gamma))
               for gamma in (INTERIOR_MIN, INTERIOR_MAX)]
    boundary = np.vstack([
        np.column_stack(_chain(geometry, _in_range_rows(*curve)))
        for curve in curves])

    t1 = _joint_samples(0, SLEW_STEP)
    q = np.repeat(_planar_grid(CLOUD_STEP)[None], len(t1), axis=0)
    q[..., 0] = t1[:, None]
    cloud = np.stack(forward_kinematics(q, geometry)[:3], -1).reshape(-1, 3)

    checks = tuple(KeyPointCheck(name=str(name),
                                 position=tuple(float(v) for v in position),
                                 reachable=point_reachable(position, geometry))
                   for name, position in key_points)
    return WorkspaceSummary(r_min=float(radius.min()),
                            r_max=float(radius.max()),
                            full_reach_min=float(full.min()),
                            full_reach_max=float(full.max()),
                            boundary=boundary, cloud=cloud, key_points=checks)
