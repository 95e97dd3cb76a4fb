"""Small numeric helpers used across modules."""
from __future__ import annotations

import math


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def integrate(f, y, dt, method: str = "rk4"):
    """One fixed step of ydot = f(t, y), with t local to the step: forward
    Euler for method "euler", the classic fourth-order rule otherwise."""
    if method == "euler":
        return y + dt * f(0.0, y)
    k1 = f(0.0, y)
    k2 = f(0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
