"""Small numeric helpers used across modules.

The per-step helpers work on plain Python floats: at the sizes of one control
step (3 to 8 numbers) building numpy arrays costs more than the arithmetic.
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


# The plant integrators a scenario may name; ScenarioConfig sets the stock
# one.
INTEGRATORS = ("midpoint", "euler")


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
