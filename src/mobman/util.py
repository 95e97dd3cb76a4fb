"""Small numeric helpers used across modules.

The per-step helpers wrap_angle, sign and switch take one plain Python
float: at that size a numpy array costs more than the arithmetic.
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


def sign(x: float) -> float:
    """np.sign of one float: -1.0, 0.0 for either zero, or 1.0; NaN stays NaN."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0 if x == 0.0 else x


def switch(x: float, width: float) -> float:
    """Sliding-mode switching function: sign(x), or x / width saturated to
    [-1, 1] (np.clip, NaN passing through) when the boundary layer is set."""
    if width > 0.0:
        x = x / width
        return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)
    return sign(x)


# The plant integrators a scenario may name, each written out in
# chassis_control.plant_step; ScenarioConfig sets the stock one.
INTEGRATORS = ("midpoint", "euler")
