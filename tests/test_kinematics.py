"""Kinematics: transforms, closed-form FK/IK, limits and workspace."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mobman.errors import GeometryError, JointLimitViolation, Unreachable
from mobman.kinematics import (_LIMIT_TOL, ArmGeometry, EndEffectorPose,
                               _limit_mask, check_joint_limits,
                               forward_kinematics, interior_angle,
                               inverse_kinematics, point_reachable,
                               workspace_analysis)
from oracles import random_joint_angles, scalar_inverse_kinematics

DEG = math.pi / 180.0


def _rot_z(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def _rot_x(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _trans(x, y, z):
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def _chain_pose(q, geometry):
    """Tool position via the frame-by-frame chain.

    Each link is Rz(theta) Tz(d) Tx(a) Rx(alpha) with the arm's fixed twists
    (90 deg, 0, 0, 0, 0) and offsets (d1, 0, 0, 0, 0).  The links carry
    relative rotations, so the absolute link angles are differenced along
    the chain; the fixed fourth link unwinds the forearm angle, which is
    exactly what the parallelogram linkage does.
    """
    thetas = (q[0], q[1], q[2] - q[1], -q[2], q[3])
    offsets = (geometry.d1, 0.0, 0.0, 0.0, 0.0)
    twists = (90.0 * DEG, 0.0, 0.0, 0.0, 0.0)
    m = np.eye(4)
    for a, d, alpha, th in zip(geometry.a, offsets, twists, thetas):
        m = m @ _rot_z(th) @ _trans(0, 0, d) @ _trans(a, 0, 0) @ _rot_x(alpha)
    return (m @ np.array([0.0, geometry.y5p, 0.0, 1.0]))[:3]


def test_forward_kinematics_reference_pose(stock_arm):
    pose = forward_kinematics(np.array([0.0, 90.0 * DEG, 0.0, 0.0]), stock_arm)
    np.testing.assert_allclose([pose.x, pose.y, pose.z], [1980.0, 0.0, 1185.0],
                               atol=1e-9)
    assert pose.phi == 0.0


def test_forward_kinematics_matches_frame_chain(rng, stock_arm, offset_arm):
    """For one joint vector, and for a stack of them with two leading axes,
    which gives pose fields of that (5, 10) shape."""
    geometries = (stock_arm, replace(stock_arm, y5p=120.0), offset_arm)
    qs = random_joint_angles(rng, 50)
    for geometry in geometries:
        chain = np.array([_chain_pose(q, geometry) for q in qs])
        for q, want in zip(qs, chain):
            pose = forward_kinematics(q, geometry)
            np.testing.assert_allclose([pose.x, pose.y, pose.z], want,
                                       atol=1e-8)
        stacked = forward_kinematics(qs.reshape(5, 10, 4), geometry)
        assert all(np.shape(v) == (5, 10) for v in stacked)
        np.testing.assert_allclose(
            np.stack(stacked[:3], axis=-1).reshape(50, 3), chain, atol=1e-8)
        assert np.array_equal(stacked.phi.ravel(), -qs[:, 3])


def test_forward_kinematics_planar_and_equivariant(rng, stock_arm):
    for q in random_joint_angles(rng, 20):
        pose = forward_kinematics(q, stock_arm)
        # The tool stays in the vertical plane selected by the base yaw.
        assert abs(-math.sin(q[0]) * pose.x + math.cos(q[0]) * pose.y) < 1e-9
        assert pose.phi == -q[3]
        # Extra base yaw rotates the tool point rigidly about z.
        d = 0.3
        q2 = q.copy()
        q2[0] = ((q2[0] + d + math.pi) % (2 * math.pi)) - math.pi
        p2 = forward_kinematics(q2, stock_arm)
        c, s = math.cos(d), math.sin(d)
        np.testing.assert_allclose(
            [p2.x, p2.y, p2.z],
            [c * pose.x - s * pose.y, s * pose.x + c * pose.y, pose.z],
            atol=1e-8)


def test_inverse_kinematics_round_trip(rng, stock_arm, offset_arm):
    worst = 0.0
    for q in random_joint_angles(rng, 300):
        for geometry in (replace(stock_arm, y5p=150.0), offset_arm):
            sol = inverse_kinematics(forward_kinematics(q, geometry), geometry)
            worst = max(worst, float(np.abs(sol - q).max()))
    assert worst < 1e-9


def test_inverse_kinematics_branch_keeps_boom_above_forearm(rng, stock_arm):
    for q in random_joint_angles(rng, 100):
        sol = inverse_kinematics(forward_kinematics(q, stock_arm), stock_arm)
        assert sol[1] > sol[2]


def _solve_or_fail(solve, *args):
    """solve's joints as bit patterns, or the class and text it raises."""
    try:
        return np.asarray(solve(*args), dtype=float).view(np.int64).tolist()
    except (Unreachable, JointLimitViolation) as exc:
        return type(exc), str(exc)


def test_batch_inverse_kinematics_matches_scalar_oracle(rng, stock_arm,
                                                       offset_arm):
    """On random reachable poses with failures mixed in (beyond reach, in
    the inner hole, out of range, non-finite, and so large that the
    triangle's terms overflow), a batch and scalar calls agree bit for bit
    with the scalar math IK of tests/oracles.py: the batch returns the
    oracle's rows, or raises the oracle's error for its first failing pose
    and names that pose.  Thousands of poses, since numpy's hypot and atan2
    miss math's last bit on well under 1% of inputs."""
    n = 3000
    for geometry in (stock_arm, offset_arm):
        poses = np.column_stack(forward_kinematics(
            random_joint_angles(rng, n), geometry))
        wild = rng.choice(n, 300, replace=False)
        poses[wild] = np.column_stack([rng.uniform(-4000.0, 4000.0, (300, 3)),
                                       rng.uniform(-1.0, 2.5, 300)])
        poses[wild[:6], rng.integers(0, 4, 6)] = [math.inf, -math.inf,
                                                  math.nan] * 2
        poses[wild[6:10], rng.integers(0, 3, 4)] = [1e200, -1e200] * 2
        rows = [EndEffectorPose(*pose) for pose in poses.tolist()]
        want = [_solve_or_fail(scalar_inverse_kinematics, pose, geometry)
                for pose in rows]
        some = list(range(0, n, 10)) + list(wild[:10])
        assert [_solve_or_fail(inverse_kinematics, rows[i], geometry)
                for i in some] == [want[i] for i in some]
        failing = [i for i, w in enumerate(want) if isinstance(w, tuple)]
        assert {want[i][0] for i in failing} == {Unreachable,
                                                 JointLimitViolation}
        assert {i for i in failing if "non-finite" in want[i][1]} == set(
            wild[:6])
        for j, i in enumerate(failing):
            if j >= 20 and i not in wild[:10]:
                continue
            start = failing[j - 1] + 1 if j else 0  # i fails first from here
            with pytest.raises((Unreachable, JointLimitViolation)) as err:
                inverse_kinematics(EndEffectorPose(*poses[start:].T), geometry)
            assert (type(err.value), str(err.value)) == want[i]
            assert err.value.sample == i - start
        ok = [i for i in range(n) if i not in set(failing)]
        got = inverse_kinematics(EndEffectorPose(*poses[ok].T), geometry)
        assert got.shape == (len(ok), 4)
        assert got.view(np.int64).tolist() == [want[i] for i in ok]


def test_non_finite_target_is_unreachable(stock_arm):
    """A non-finite coordinate or pitch is reported as such, alone or as
    sample 2 of a batch, not as a joint out of range."""
    good = list(forward_kinematics([0.1, 1.0, -0.3, -0.2], stock_arm))
    for bad, shown in (((math.inf, 0.0, 0.0, 0.0), "(inf, 0, 0) mm, pitch 0"),
                       ((0.0, 0.0, math.nan, 0.0), "(0, 0, nan) mm, pitch 0"),
                       ((1e3, 0.0, 500.0, -math.inf),
                        "(1000, 0, 500) mm, pitch -inf")):
        message = "non-finite target %s rad" % shown
        with pytest.raises(Unreachable) as err:
            inverse_kinematics(EndEffectorPose(*bad), stock_arm)
        assert str(err.value) == message and err.value.sample == 0
        batch = np.array([good, good, bad, (math.nan,) * 4])
        with pytest.raises(Unreachable) as err:
            inverse_kinematics(EndEffectorPose(*batch.T), stock_arm)
        assert str(err.value) == message and err.value.sample == 2


def test_inverse_kinematics_unreachable_far(stock_arm):
    with pytest.raises(Unreachable):
        inverse_kinematics(EndEffectorPose(5000.0, 0.0, 1000.0, 0.0),
                           stock_arm)


def test_inverse_kinematics_unreachable_inner_hole(stock_arm):
    # Wrist target well inside the two-link annulus: the triangle cannot close.
    with pytest.raises(Unreachable):
        inverse_kinematics(EndEffectorPose(300.0, 0.0, 185.0, 0.0), stock_arm)


def test_inverse_kinematics_limit_violation_names_joint(stock_arm):
    with pytest.raises(JointLimitViolation) as err:
        inverse_kinematics(EndEffectorPose(1000.0, 0.0, -1500.0, 0.0),
                           stock_arm)
    assert "theta" in str(err.value)


def test_check_joint_limits_interior_angle():
    with pytest.raises(JointLimitViolation) as err:
        check_joint_limits(np.array([0.0, 100.0 * DEG, -60.0 * DEG, 0.0]))
    assert "interior angle" in str(err.value)
    check_joint_limits(np.array([0.0, 90.0 * DEG, 0.0, 0.0]))
    with pytest.raises(JointLimitViolation, match=re.escape(
            "theta2 = 140.000000 deg outside [0.00, 135.00] deg")):
        check_joint_limits(np.array([0.0, 140.0 * DEG, 0.0, 0.0]))
    with pytest.raises(JointLimitViolation, match=re.escape(
            "theta4 = -90.500000 deg outside [-90.00, 0.00] deg")):
        check_joint_limits([0.0, 90.0 * DEG, 0.0, -90.5 * DEG])
    with pytest.raises(JointLimitViolation, match=re.escape(
            "interior angle = 20.000000 deg outside [30, 165] deg")):
        check_joint_limits((0.0, 130.0 * DEG, -30.0 * DEG, 0.0))


def test_limit_rule_edges_agree_with_the_batch_mask():
    """check_joint_limits raises exactly where the batch mask rejects, and
    its message names the first unmet bound: joints 1-4, then the elbow."""
    names = ("theta1", "theta2", "theta3", "theta4", "interior angle")
    # (bound, side, a joint vector in deg on that bound and well inside the
    # others, the joint that moves the bound's value outward with side).
    edges = [(0, -1, (-180, 90, 0, -45), 0), (0, 1, (180, 90, 0, -45), 0),
             (1, -1, (0, 0, -60, -45), 1), (1, 1, (0, 135, 0, -45), 1),
             (2, -1, (0, 10, -120, -45), 2), (2, 1, (0, 90, 15.5, -45), 2),
             (3, -1, (0, 90, 0, -90), 3), (3, 1, (0, 90, 0, 0), 3),
             (4, -1, (0, 130, -20, -45), 2), (4, 1, (0, 20, 5, -45), 2)]
    rows, first = [], []
    for bound, side, at, joint in edges:
        for past in (0.0, 0.5 * _LIMIT_TOL, -0.5 * _LIMIT_TOL,
                     2.0 * _LIMIT_TOL, -2.0 * _LIMIT_TOL):
            q = [v * DEG for v in at]
            q[joint] += side * past
            rows.append(q)
            first.append(bound if past > _LIMIT_TOL else None)
    for k in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            q = [0.0, 90.0 * DEG, 0.0, -45.0 * DEG]
            q[k] = bad
            rows.append(q)
            first.append(k)

    mask = _limit_mask(np.array(rows))
    assert mask.shape == (len(rows), 5)
    assert sum(b is None for b in first) == 40
    for q, ok, bound in zip(rows, mask, first):
        assert (None if ok.all() else int(ok.argmin())) == bound
        if bound is None:
            check_joint_limits(q)
            continue
        with pytest.raises(JointLimitViolation,
                           match="^%s = " % re.escape(names[bound])):
            check_joint_limits(q)


def test_interior_angle_formula():
    q = np.array([0.0, 90.0 * DEG, -30.0 * DEG, 0.0])
    assert math.isclose(interior_angle(q), math.pi - 120.0 * DEG)


def test_random_joint_angles_respect_all_limits(rng):
    qs = random_joint_angles(rng, 500)
    for q in qs:
        check_joint_limits(q)
    single = random_joint_angles(rng)
    assert single.shape == (4,)


def test_arm_geometry_validation(stock_arm):
    with pytest.raises(GeometryError):
        replace(stock_arm, a=(-1.0, 1000.0, 1700.0, 100.0, 80.0))
    with pytest.raises(GeometryError):
        replace(stock_arm, a=stock_arm.a[:4])  # wrong length count
    with pytest.raises(GeometryError):
        replace(stock_arm, y5p=-5.0)
    for bad in (math.nan, math.inf):
        for field in ({"a": (bad, 1000.0, 1700.0, 100.0, 80.0)},
                      {"a": (0.0, 1000.0, 1700.0, 100.0, bad)},
                      {"d1": bad}, {"y5p": bad}):
            with pytest.raises(GeometryError):
                replace(stock_arm, **field)


def test_workspace_radii_match_triangle_extremes(stock_arm):
    summary = workspace_analysis(stock_arm)
    a2, a3 = 1000.0, 1700.0
    r_lo = math.sqrt(a2 ** 2 + a3 ** 2 + 2 * a2 * a3 * math.cos(150.0 * DEG))
    r_hi = math.sqrt(a2 ** 2 + a3 ** 2 + 2 * a2 * a3 * math.cos(15.0 * DEG))
    assert abs(summary.r_min - r_lo) < 1.0
    assert abs(summary.r_max - r_hi) < 1.0
    assert summary.full_reach_max == pytest.approx(summary.r_max + 280.0, abs=1.0)
    assert len(summary.boundary) > 0 and summary.cloud.shape[1] == 3


def test_workspace_stock_sweep_is_pinned(stock_arm):
    # The stock grids: 0.25 deg planar curves, a 5 deg cloud at 30 deg slew.
    summary = workspace_analysis(stock_arm)
    assert summary.boundary.shape == (1088, 2)
    assert summary.cloud.shape == (6916, 3)
    assert summary.r_min == pytest.approx(972.3752501647, abs=1e-6)
    assert summary.r_max == pytest.approx(2678.4599697182, abs=1e-6)
    assert summary.full_reach_min == pytest.approx(296.0254037844, abs=1e-6)
    assert summary.full_reach_max == pytest.approx(2958.4591387614, abs=1e-6)


def test_workspace_key_points(stock_arm):
    summary = workspace_analysis(
        stock_arm, key_points=[("tool-flat", (1980.0, 0.0, 1185.0)),
                    ("too-far", (5000.0, 0.0, 0.0))])
    verdicts = {k.name: k.reachable for k in summary.key_points}
    assert verdicts == {"tool-flat": True, "too-far": False}


def test_point_reachable_scans_pitch(stock_arm):
    # Low target near the inner annulus: a flat nozzle folds the elbow below
    # its interior-angle floor, a steep pitch solves cleanly.
    target = (1200.0, 0.0, 100.0)
    with pytest.raises(JointLimitViolation):
        inverse_kinematics(EndEffectorPose(*target, phi=0.0), stock_arm)
    inverse_kinematics(EndEffectorPose(*target, phi=90.0 * DEG), stock_arm)
    assert point_reachable(target, stock_arm)
    assert not point_reachable((8000.0, 0.0, 0.0), stock_arm)
