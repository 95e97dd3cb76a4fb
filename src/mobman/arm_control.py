"""Joint-space sliding-mode tracking for the arm.

The surface is the error rate plus a proportional term per joint; the control
inverts the rigid-body model and adds a switched term that dominates model
mismatch.  Spray targets are expressed in the moving chassis base frame so
the closed-form IK can turn them into joint references.

Joint vectors are radians; reference targets arrive in metres (world frame)
and are converted to the arm's millimetre convention internally.
"""
from __future__ import annotations

import numpy as np

from .dynamics import torques
from .kinematics import EndEffectorPose
from .util import switch

_M_TO_MM = 1e3


def control_law(q, qd, ref_q, ref_qd, ref_qdd, gains, terms) -> list:
    """Model-inverting sliding-mode torque command: the inverse dynamics, from
    the model's kernel terms at (q, qd), at the reaching acceleration
    qdd_r + rate * edot + K sw(s), with s = edot + rate * e formed joint by
    joint in floats.

    gains is the scenario's ArmControlConfig section: the surface slope
    surface_rate (1/s), the per-joint switch_gain K and the boundary_layer
    width, where a zero width selects the pure switching sign.

    q and qd must be finite: nothing here tests them, and a NaN angle gives
    NaN torques.  run_mission checks every state before the law sees it."""
    rate, width = gains.surface_rate, gains.boundary_layer
    inner = []
    for qi, qdi, rq, rqd, rqdd, k in zip(q, qd, ref_q, ref_qd, ref_qdd,
                                         gains.switch_gain):
        edot = rqd - qdi
        s = edot + rate * (rq - qi)
        inner.append(rqdd + rate * edot + k * switch(s, width))
    return torques(terms, inner)


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
