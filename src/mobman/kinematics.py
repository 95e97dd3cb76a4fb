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


@dataclass(frozen=True)
class ArmGeometry:
    """The arm's constants in mm: the five link lengths a1..a5 (base offset,
    boom, forearm, parallelogram link, wrist), the shoulder height d1 and the
    nozzle offset y5p along the wrist frame's y-axis.  Defaults are the stock
    arm."""

    a: tuple = (100.0, 1000.0, 1700.0, 100.0, 80.0)
    d1: float = 185.0
    y5p: float = 0.0

    def __post_init__(self):
        if len(self.a) != 5:
            raise GeometryError("the arm has exactly 5 link lengths")
        if min(self.a) < 0.0 or self.d1 < 0.0 or self.y5p < 0.0:
            raise GeometryError("link lengths, shoulder height and tool "
                                "offset must be non-negative")


STOCK_ARM = ArmGeometry()


class EndEffectorPose(NamedTuple):
    """Tool point position (mm) and nozzle pitch above horizontal (rad)."""

    x: float
    y: float
    z: float
    phi: float


def interior_angle(q) -> float:
    """Elbow interior angle between boom and forearm links."""
    return math.pi - (q[1] - q[2])


def check_joint_limits(q, tol: float = _LIMIT_TOL) -> None:
    """Raise JointLimitViolation if any joint or the elbow angle is out of range."""
    for name, low, high, qi in zip(JOINT_NAMES, JOINT_LIMITS_LOW,
                                   JOINT_LIMITS_HIGH, q):
        if not low - tol <= qi <= high + tol:  # a NaN fails too
            raise JointLimitViolation(
                "%s = %.6f deg outside [%.2f, %.2f] deg"
                % (name, qi / DEG, low / DEG, high / DEG))
    gamma = interior_angle(q)
    if not INTERIOR_MIN - tol <= gamma <= INTERIOR_MAX + tol:
        raise JointLimitViolation(
            "interior angle = %.6f deg outside [30, 165] deg" % (gamma / DEG))


def _planar_coords(q: np.ndarray, geometry: ArmGeometry):
    """Radial/vertical tool coordinates in the slewing plane (mm)."""
    a1, a2, a3, a4, a5 = geometry.a
    y5p = geometry.y5p
    c2, s2 = np.cos(q[..., 1]), np.sin(q[..., 1])
    c3, s3 = np.cos(q[..., 2]), np.sin(q[..., 2])
    c4, s4 = np.cos(q[..., 3]), np.sin(q[..., 3])
    r = a1 + a2 * c2 + a3 * c3 + a4 + a5 * c4 - y5p * s4
    z = geometry.d1 + a2 * s2 + a3 * s3 + a5 * s4 + y5p * c4
    return r, z


def forward_kinematics(q, geometry: ArmGeometry = STOCK_ARM) -> EndEffectorPose:
    """Tool pose from joint angles (absolute-angle convention); q's last axis
    holds the four joints, and the pose's fields have q's other axes.

    The pure geometric map: it checks no joint range, which is
    check_joint_limits' job.  The nozzle pitch comes straight from the wrist
    joint: phi = -theta4.
    """
    q = np.asarray(q, dtype=float)
    r, z = _planar_coords(q, geometry)
    return EndEffectorPose(r * np.cos(q[..., 0]), r * np.sin(q[..., 0]), z,
                           -q[..., 3])


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
        gamma = math.pi - (q[:, 1] - q[:, 2])
        in_range = ((np.array(JOINT_LIMITS_LOW) - _LIMIT_TOL <= q).all(1)
                    & (q <= np.array(JOINT_LIMITS_HIGH) + _LIMIT_TOL).all(1)
                    & (INTERIOR_MIN - _LIMIT_TOL <= gamma)
                    & (gamma <= INTERIOR_MAX + _LIMIT_TOL))
        bad = ~finite | (rho < 1e-12) | open_ | ~in_range

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
            try:  # in_range failed it: the same tests in the same order
                check_joint_limits(q[i].tolist())
            except JointLimitViolation as limit:
                exc = limit
        exc.sample = i
        return exc

    return q, bad, error


def inverse_kinematics(pose: EndEffectorPose,
                       geometry: ArmGeometry = STOCK_ARM) -> np.ndarray:
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


def scan_pitch(pose_at, pitches, geometry: ArmGeometry = STOCK_ARM):
    """Try each nozzle pitch (rad) in order, pose_at(pitches) giving the
    tool poses; returns (pitch, "") for the first with an in-range solution,
    else (None, the last failure's reason)."""
    _, bad, error = _solve(pose_at(np.asarray(pitches)), geometry)
    if bad.all():
        return None, str(error(len(pitches) - 1))
    return pitches[int(bad.argmin())], ""


def point_reachable(position, geometry: ArmGeometry = STOCK_ARM) -> bool:
    """True if some pitch of PITCH_GRID admits an in-range solution."""
    x, y, z = (float(v) for v in position)
    return scan_pitch(lambda phi: EndEffectorPose(x, y, z, phi), PITCH_GRID,
                      geometry)[0] is not None


def workspace_analysis(resolution: float = 0.25 * DEG,
                       geometry: ArmGeometry = STOCK_ARM,
                       key_points=(),
                       cloud_resolution: float = 5.0 * DEG,
                       azimuth_resolution: float = 30.0 * DEG) -> WorkspaceSummary:
    """Sweep the planar joints under the interior-angle constraint.

    key_points is an iterable of (name, (x, y, z)) entries in mm; each is
    checked for reachability with the closed-form solver.
    """
    a1, a2, a3, a4, a5 = geometry.a
    d1 = geometry.d1

    t2 = np.arange(JOINT_LIMITS_LOW[1], JOINT_LIMITS_HIGH[1] + 0.5 * resolution,
                   resolution)
    t3 = np.arange(JOINT_LIMITS_LOW[2], JOINT_LIMITS_HIGH[2] + 0.5 * resolution,
                   resolution)
    g2, g3 = np.meshgrid(t2, t3, indexing="ij")
    gamma = np.pi - (g2 - g3)
    mask = (gamma >= INTERIOR_MIN - 1e-12) & (gamma <= INTERIOR_MAX + 1e-12)

    rr = a2 * np.cos(g2) + a3 * np.cos(g3)
    zz = a2 * np.sin(g2) + a3 * np.sin(g3)
    radius = np.hypot(rr, zz)[mask]
    r_min = float(radius.min())
    r_max = float(radius.max())

    # Tool-point radial extent with the wrist stretched flat (theta4 = 0).
    full = a1 + rr[mask] + a4 + a5
    full_reach_min = float(full.min())
    full_reach_max = float(full.max())

    boundary = _boundary_samples(geometry, resolution)
    cloud = _cloud_samples(geometry, cloud_resolution, azimuth_resolution)

    checks = []
    for name, position in key_points:
        checks.append(KeyPointCheck(name=str(name),
                                    position=tuple(float(v) for v in position),
                                    reachable=point_reachable(position, geometry)))
    return WorkspaceSummary(r_min=r_min, r_max=r_max,
                            full_reach_min=full_reach_min,
                            full_reach_max=full_reach_max,
                            boundary=boundary, cloud=cloud,
                            key_points=tuple(checks))


def _boundary_samples(geometry: ArmGeometry, resolution: float) -> np.ndarray:
    """(r, z) envelope about the shoulder: two joint-stop curves and two
    interior-angle arcs."""
    _, a2, a3, _, _ = geometry.a
    pieces = []

    def chain(th2, th3):
        return np.column_stack([a2 * np.cos(th2) + a3 * np.cos(th3),
                                a2 * np.sin(th2) + a3 * np.sin(th3)])

    for t2_fixed in (JOINT_LIMITS_HIGH[1], JOINT_LIMITS_LOW[1]):
        t3 = np.arange(JOINT_LIMITS_LOW[2], JOINT_LIMITS_HIGH[2] + 0.5 * resolution,
                       resolution)
        gamma = np.pi - (t2_fixed - t3)
        t3 = t3[(gamma >= INTERIOR_MIN - 1e-12) & (gamma <= INTERIOR_MAX + 1e-12)]
        pieces.append(chain(np.full_like(t3, t2_fixed), t3))
    for gamma_fixed in (INTERIOR_MIN, INTERIOR_MAX):
        delta = math.pi - gamma_fixed  # theta2 - theta3 along the arc
        t2 = np.arange(JOINT_LIMITS_LOW[1], JOINT_LIMITS_HIGH[1] + 0.5 * resolution,
                       resolution)
        t3 = t2 - delta
        ok = (t3 >= JOINT_LIMITS_LOW[2] - 1e-12) & (t3 <= JOINT_LIMITS_HIGH[2] + 1e-12)
        pieces.append(chain(t2[ok], t3[ok]))
    return np.vstack(pieces)


def _cloud_samples(geometry: ArmGeometry, planar_res: float,
                   azimuth_res: float) -> np.ndarray:
    """Coarse 3-D tool positions over the in-range joint grid (theta4 = 0)."""
    a1, a2, a3, a4, a5 = geometry.a
    t2 = np.arange(JOINT_LIMITS_LOW[1], JOINT_LIMITS_HIGH[1] + 0.5 * planar_res,
                   planar_res)
    t3 = np.arange(JOINT_LIMITS_LOW[2], JOINT_LIMITS_HIGH[2] + 0.5 * planar_res,
                   planar_res)
    g2, g3 = np.meshgrid(t2, t3, indexing="ij")
    gamma = np.pi - (g2 - g3)
    ok = (gamma >= INTERIOR_MIN - 1e-12) & (gamma <= INTERIOR_MAX + 1e-12)
    r = (a1 + a2 * np.cos(g2) + a3 * np.cos(g3) + a4 + a5)[ok]
    z = (geometry.d1 + a2 * np.sin(g2) + a3 * np.sin(g3) + geometry.y5p)[ok]
    t1 = np.arange(JOINT_LIMITS_LOW[0], JOINT_LIMITS_HIGH[0] + 0.5 * azimuth_res,
                   azimuth_res)
    pts = []
    for th1 in t1:
        pts.append(np.column_stack([r * math.cos(th1), r * math.sin(th1), z]))
    return np.vstack(pts)
