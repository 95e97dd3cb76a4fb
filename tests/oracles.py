"""Reference code the tests check the engine against, kept out of the package.

random_joint_angles draws in-range arm states.  kinetic_energy and
potential_energy rebuild an ArmDynamics model's energies body by body from
its constants, a route that shares no code with the model's kernel, so the
energy tests catch a wrong kernel term.
"""
import math

import numpy as np

from mobman.kinematics import (INTERIOR_MAX, INTERIOR_MIN, JOINT_LIMITS_HIGH,
                               JOINT_LIMITS_LOW)


def random_joint_angles(rng, n: int | None = None):
    """Draw uniform in-range joint vectors (rejection on the elbow angle)."""
    count = 1 if n is None else n
    out = np.empty((count, 4))
    filled = 0
    while filled < count:
        cand = rng.uniform(JOINT_LIMITS_LOW, JOINT_LIMITS_HIGH, size=(count, 4))
        gamma = math.pi - (cand[:, 1] - cand[:, 2])
        ok = (gamma >= INTERIOR_MIN) & (gamma <= INTERIOR_MAX)
        take = min(int(ok.sum()), count - filled)
        out[filled:filled + take] = cand[ok][:take]
        filled += take
    return out[0] if n is None else out


def _body_states(model, q, qd):
    """Per planar body: mass, planar COM velocity, slew radius, spin rate,
    spin inertia about the COM."""
    u2p = np.array([-math.sin(q[1]), math.cos(q[1])])
    u3p = np.array([-math.sin(q[2]), math.cos(q[2])])
    u4 = np.array([math.cos(q[3]), math.sin(q[3])])
    u4p = np.array([-math.sin(q[3]), math.cos(q[3])])

    c2, c3, c4, s4 = math.cos(q[1]), math.cos(q[2]), math.cos(q[3]), math.sin(q[3])
    bodies = []
    # boom
    v = model.c2 * qd[1] * u2p
    bodies.append((model.m2, v, model.a1 + model.c2 * c2, qd[1], model.ic2))
    # forearm
    v = model.a2 * qd[1] * u2p + model.c3 * qd[2] * u3p
    bodies.append((model.m3, v, model.a1 + model.a2 * c2 + model.c3 * c3,
                   qd[2], model.ic3))
    # wrist
    v = model.a2 * qd[1] * u2p + model.a3 * qd[2] * u3p + model.c4 * qd[3] * u4p
    bodies.append((model.m4, v,
                   model.a1 + model.a2 * c2 + model.a3 * c3 + model.a4 + model.c4 * c4,
                   qd[3], model.ic4))
    # payload (lever combines the wrist link and the perpendicular tool stub)
    lever = model.a5 * u4p - model.y5p * u4
    v = model.a2 * qd[1] * u2p + model.a3 * qd[2] * u3p + qd[3] * lever
    bodies.append((model.mp, v,
                   model.a1 + model.a2 * c2 + model.a3 * c3 + model.a4
                   + model.a5 * c4 - model.y5p * s4,
                   0.0, 0.0))
    return bodies


def kinetic_energy(model, q, qd) -> float:
    """Total kinetic energy summed body by body."""
    k = 0.5 * model.i1 * qd[0] ** 2
    for m, v, radius, spin, icom in _body_states(model, q, qd):
        k += 0.5 * m * (float(v @ v) + (radius * qd[0]) ** 2)
        k += 0.5 * icom * spin ** 2
    return float(k)


def potential_energy(model, q) -> float:
    """Gravitational potential, datum at the chassis deck."""
    s2, s3, s4 = math.sin(q[1]), math.sin(q[2]), math.sin(q[3])
    c4 = math.cos(q[3])
    z2 = model.d1 + model.c2 * s2
    z3 = model.d1 + model.a2 * s2 + model.c3 * s3
    z4 = model.d1 + model.a2 * s2 + model.a3 * s3 + model.c4 * s4
    zp = model.d1 + model.a2 * s2 + model.a3 * s3 + model.a5 * s4 + model.y5p * c4
    z1 = 0.5 * model.d1
    return float(model.g * (model.m1 * z1 + model.m2 * z2 + model.m3 * z3
                            + model.m4 * z4 + model.mp * zp))
