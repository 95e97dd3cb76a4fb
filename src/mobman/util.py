"""Small numeric helpers used across modules.

The per-step helpers wrap_angle and switch take one plain Python float
and call no other helper: at that size a numpy array, or a further call,
costs more than the arithmetic.
"""
from __future__ import annotations

import math

DEG = math.pi / 180.0


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]; NaN for an infinite or NaN angle."""
    try:
        w = math.fmod(a + math.pi, 2.0 * math.pi)
    except ValueError:  # math.fmod rejects an infinite dividend
        return math.nan
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def switch(x: float, width: float) -> float:
    """Sliding-mode switching function: x / width saturated to [-1, 1]
    (np.clip, NaN passing through) when the boundary layer is set, else
    np.sign(x): -1.0, 0.0 for either zero, or 1.0, NaN staying NaN."""
    if width > 0.0:
        x = x / width
        return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else (0.0 if x == 0.0 else x))


# The plant integrators a scenario may name, each written out in
# chassis_control.plant_step and dynamics.arm_step; ScenarioConfig sets the
# stock one.
INTEGRATORS = ("midpoint", "euler")
