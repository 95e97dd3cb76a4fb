"""Joint-space sliding-mode tracking for the arm.

The surface is the error rate plus a proportional term per joint; the control
writes out the rigid-body model's inverse dynamics, from the kernel terms the
plant step shares, at a reaching acceleration whose switched term dominates
model mismatch.  Spray targets are expressed in the moving chassis base
frame so the closed-form IK can turn them into joint references.

Joint vectors are radians; reference targets arrive in metres (world frame)
and are converted to the arm's millimetre convention internally.
"""
from __future__ import annotations

import numpy as np

from .kinematics import EndEffectorPose
from .util import switch

_M_TO_MM = 1e3


def control_law(q, qd, ref, gains, terms) -> list:
    """Model-inverting sliding-mode torque command M a + bias, written out
    from the model's kernel terms at (q, qd), at the reaching acceleration
    a = qdd_r + rate * edot + K sw(s), with s = edot + rate * e formed joint
    by joint on named floats.

    ref is one reference row of 12 floats: q_r, qd_r and qdd_r of joints
    1-4.  gains is the scenario's ArmControlConfig section: the surface
    slope surface_rate (1/s), the per-joint switch_gain K and the
    boundary_layer width, where a zero width selects the pure switching
    sign.  Each torque sums its row of M a left to right, then adds the
    bias.

    q and qd must be finite: nothing here tests them, and a NaN angle gives
    NaN torques.  run_mission checks every state before the law sees it."""
    q1, q2, q3, q4 = q
    w1, w2, w3, w4 = qd
    r1, r2, r3, r4, v1, v2, v3, v4, f1, f2, f3, f4 = ref
    k1, k2, k3, k4 = gains.switch_gain
    rate, width = gains.surface_rate, gains.boundary_layer
    ed1, ed2, ed3, ed4 = v1 - w1, v2 - w2, v3 - w3, v4 - w4  # edot
    a1 = f1 + rate * ed1 + k1 * switch(ed1 + rate * (r1 - q1), width)
    a2 = f2 + rate * ed2 + k2 * switch(ed2 + rate * (r2 - q2), width)
    a3 = f3 + rate * ed3 + k3 * switch(ed3 + rate * (r3 - q3), width)
    a4 = f4 + rate * ed4 + k4 * switch(ed4 + rate * (r4 - q4), width)
    (m11, m22, m33, m44, m23, m24, m34), _, _, (b1, b2, b3, b4) = terms
    return [m11 * a1 + b1,
            m22 * a2 + m23 * a3 + m24 * a4 + b2,
            m23 * a2 + m33 * a3 + m34 * a4 + b3,
            m24 * a2 + m34 * a3 + m44 * a4 + b4]


def target_in_base_frame(chassis_pose, target_xyz_m, pitch: float) -> EndEffectorPose:
    """Express a world-frame spray target in the chassis-mounted arm frame.

    chassis_pose is (X, Y, heading) in metres/radians, the result in mm; any
    coordinate may be a 1-D array of samples.  The nozzle pitch is measured
    from horizontal and is invariant to the chassis yaw.
    """
    cx, cy, heading = chassis_pose
    tx, ty, tz = target_xyz_m
    dx, dy = tx - cx, ty - cy
    c, s = np.cos(heading), np.sin(heading)
    return EndEffectorPose(x=(c * dx + s * dy) * _M_TO_MM,
                           y=(-s * dx + c * dy) * _M_TO_MM,
                           z=tz * _M_TO_MM, phi=pitch)
