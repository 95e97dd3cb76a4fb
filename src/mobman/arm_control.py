"""Joint-space sliding-mode tracking for the arm.

The surface is the error rate plus a proportional term per joint; the control
inverts the rigid-body model and adds a switched term that dominates model
mismatch.  Spray targets are expressed in the moving chassis base frame so
the closed-form IK can turn them into joint references.

Joint vectors are radians; reference targets arrive in metres (world frame)
and are converted to the arm's millimetre convention internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ArmDynamics
from .kinematics import EndEffectorPose

_M_TO_MM = 1e3


@dataclass(frozen=True)
class ArmGains:
    """Surface slope (1/s), per-joint switching gains and the boundary-layer
    width; a zero width selects the pure switching sign."""

    surface_rate: float = 20.0
    switch_gain: tuple = (5.0, 5.0, 5.0, 5.0)
    boundary_layer: float = 0.01


def sliding_surface(e, edot, gains: ArmGains) -> np.ndarray:
    return np.asarray(edot, dtype=float) + gains.surface_rate * np.asarray(e, dtype=float)


def switch_term(s, gains: ArmGains) -> np.ndarray:
    """Componentwise sign, or saturation inside the boundary layer."""
    s = np.asarray(s, dtype=float)
    if gains.boundary_layer > 0.0:
        return np.clip(s / gains.boundary_layer, -1.0, 1.0)
    return np.sign(s)


def control_law(q, qd, ref_q, ref_qd, ref_qdd, gains: ArmGains,
                model: ArmDynamics) -> np.ndarray:
    """Model-inverting sliding-mode torque command: the model's inverse
    dynamics at the reaching acceleration."""
    e = np.asarray(ref_q, dtype=float) - q
    edot = np.asarray(ref_qd, dtype=float) - qd
    s = sliding_surface(e, edot, gains)
    k = np.asarray(gains.switch_gain, dtype=float)
    inner = np.asarray(ref_qdd, dtype=float) + gains.surface_rate * edot + k * switch_term(s, gains)
    return model.inverse_dynamics(q, qd, inner)


def target_in_base_frame(chassis_pose, target_xyz_m, pitch: float) -> EndEffectorPose:
    """Express a world-frame spray target in the chassis-mounted arm frame.

    chassis_pose is (X, Y, heading) in metres/radians; the result is in mm.
    The nozzle pitch is measured from horizontal and is invariant to the
    chassis yaw.
    """
    cx, cy, heading = (float(v) for v in chassis_pose)
    dx = float(target_xyz_m[0]) - cx
    dy = float(target_xyz_m[1]) - cy
    c, s = math.cos(heading), math.sin(heading)
    return EndEffectorPose(x=(c * dx + s * dy) * _M_TO_MM,
                           y=(-s * dx + c * dy) * _M_TO_MM,
                           z=float(target_xyz_m[2]) * _M_TO_MM,
                           phi=pitch)

