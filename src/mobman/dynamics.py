"""Rigid-body model of the arm: one shared-trig kernel that gives M(q), its
partials, G(q) and the bias C(q, qd) qd + G(q) at a state, the forward
dynamics (accelerations), and the arm's plant step, arm_step, which
evaluates accelerations at each stage of its rule.  The sliding-mode law,
arm_control.control_law, writes the inverse dynamics M qdd + bias out from
the same kernel terms.  Within a control step the law and arm_step's rates
at the step's start state share one kernel evaluation, and the midpoint
rule's half step makes one more: a run of n steps evaluates the kernel
2n + 1 times under the midpoint rule and n + 1 times under Euler.  An
infinite angle in joints 2-4 is a SolveFailure about the mass matrix at the
kernel's trig, a NaN one at a pivot of M's factorization in accelerations.

The model follows the energy route.  Each joint drives one body: the slewing
column, the boom, the forearm and the wrist (the short parallelogram link is
treated as part of the wrist's mass budget).  Bodies are modelled as a point
mass at the centre of mass plus a scalar spin inertia about the joint axis;
the slewing term uses the point-mass radius, so the mass matrix splits into
the column inertia and a 3x3 planar block.  A payload point mass rides at the
tool point.  inertial_params resolves the scenario's inertial section into
these parameters, each vector it leaves unset from the stock split of the
mass budget over the arm, and ArmDynamics checks them once, as it is built.

Everything here is SI (kg, m, s, rad); the arm geometry arrives in mm from
the kinematics module and is scaled once at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn

from .errors import SolveFailure, ValidationError
from .kinematics import ArmGeometry
from .util import INTEGRATORS

_MM = 1e-3
_INF = math.inf
# The bodies joints 1-4 drive, in joint order.
BODIES = ("column", "boom", "forearm", "wrist")


@dataclass(frozen=True)
class LinkInertialParams:
    """Per-body mass properties.

    masses, com_offsets and inertias are 4-tuples for the column, boom,
    forearm and wrist bodies.  com_offsets are measured along each link from
    its joint (for the column: radially from the slew axis), inertias are
    about the respective joint axis.  payload_mass sits at the tool point.
    """

    masses: tuple
    com_offsets: tuple
    inertias: tuple
    payload_mass: float
    gravity: float

    def validate(self) -> list:
        """Problems named by their scenario key under inertial."""
        problems = []
        for name, vals in (("masses", self.masses), ("com_offsets", self.com_offsets),
                           ("inertias", self.inertias)):
            if len(vals) != 4:
                problems.append("inertial.%s: expected 4 entries" % name)
        for i, m in enumerate(self.masses):
            if m <= 0.0:
                problems.append("inertial.masses[%d]: must be > 0" % i)
        for i, c in enumerate(self.com_offsets):
            if c < 0.0:
                problems.append("inertial.com_offsets[%d]: must be >= 0" % i)
        for i, val in enumerate(self.inertias):
            if val <= 0.0:
                problems.append("inertial.inertias[%d]: must be > 0" % i)
        # A planar body's spin inertia about its joint is at least m c^2;
        # "not >=" also fails a bound that overflows to inf, the difference
        # then being -inf, or NaN for an infinite inertia.
        for i, name, m, c, val in zip((1, 2, 3), BODIES[1:],
                                      self.masses[1:], self.com_offsets[1:],
                                      self.inertias[1:]):
            if not val - m * (c * c) >= 0.0:
                problems.append("inertial.inertias[%d]: below the point-mass "
                                "bound of the %s body" % (i, name))
        if self.payload_mass < 0.0:
            problems.append("inertial.payload_mass: must be >= 0")
        if self.gravity < 0.0:
            problems.append("inertial.gravity: must be >= 0")
        return problems


def inertial_params(section, geometry: ArmGeometry) -> LinkInertialParams:
    """A scenario's InertialConfig section as the model's parameters, not
    yet validated: ArmDynamics checks them.  A vector the section leaves
    unset comes from the stock split of total_mass over the arm as uniform
    slender rods: masses in proportion to the structural lengths (column
    incl. its lateral offset, boom, forearm, wrist incl. the parallelogram
    stub), centres of mass mid-rod and inertias about the joint end,
    m L^2 / 3 with the masses in use.
    """
    a1, a2, a3, a4, a5 = (v * _MM for v in geometry.a)
    lengths = (geometry.d1 * _MM + a1, a2, a3, a4 + a5)
    total_len = sum(lengths)
    # The column spins about its own axis; use the lateral offset as its
    # effective rod length.  Planar bodies use their link lengths.
    rods = (a1, a2, a3, a5)

    def pick(given, stock):
        return tuple(float(v) for v in (stock if given is None else given))

    masses = pick(section.masses,
                  (section.total_mass * L / total_len for L in lengths))
    return LinkInertialParams(
        masses=masses,
        com_offsets=pick(section.com_offsets, (L / 2.0 for L in rods)),
        inertias=pick(section.inertias, (m * L * L / 3.0
                                         for m, L in zip(masses, rods))),
        payload_mass=float(section.payload_mass),
        gravity=float(section.gravity))


class ArmDynamics:
    """Equation-of-motion evaluator bound to one geometry + parameter set."""

    def __init__(self, params: LinkInertialParams, geometry: ArmGeometry):
        self.geometry = geometry
        self.params = params
        problems = params.validate()
        if problems:
            raise ValidationError(problems)
        a1, a2, a3, a4, a5 = (v * _MM for v in geometry.a)
        y5p = geometry.y5p * _MM
        _, m2, m3, m4 = params.masses
        _, cm2, cm3, cm4 = params.com_offsets
        mp, g = params.payload_mass, params.gravity
        i1, i2, i3, i4 = params.inertias
        # Spin inertias about each body's own centre of mass (parallel axis).
        ic2 = i2 - m2 * cm2 ** 2
        ic3 = i3 - m3 * cm3 ** 2
        ic4 = i4 - m4 * cm4 ** 2
        # What _kernel reads, as one tuple it unpacks per call: the constants
        # above, then the planar diagonal of M and the first mass moments.
        self._consts = (
            a1, a2, a3, a4, a5, y5p, cm2, cm3, cm4, m2, m3, m4, mp, i1, g,
            m2 * cm2 ** 2 + (m3 + m4 + mp) * a2 ** 2 + ic2,
            m3 * cm3 ** 2 + (m4 + mp) * a3 ** 2 + ic3,
            m4 * cm4 ** 2 + mp * (a5 ** 2 + y5p ** 2) + ic4,
            m2 * cm2 + (m3 + m4 + mp) * a2, m3 * cm3 + (m4 + mp) * a3,
            m4 * cm4 + mp * a5, mp * y5p)

    # -- shared-trig kernel -------------------------------------------------

    def _kernel(self, q, qd):
        """Every term of the model at the state (q, qd) from one pass of trig,
        as tuples of plain floats with joints numbered 1-4: M's entries (m11,
        m22, m33, m44, m23, m24, m34); its non-zero partials (dm11/dq2,
        dm11/dq3, dm11/dq4, dm23/dq2, dm24/dq2, dm34/dq3), the other three
        being their negatives dm23/dq3, dm24/dq4, dm34/dq4; the gravity
        torques (g2, g3, g4); and the bias C qd + G, where
        (C qd)_k = sum_ij (dM_kj/dq_i - dM_ij/dq_k / 2) qd_i qd_j is expanded
        over the partials, so no C or dM/dq is formed.  q and qd are
        sequences of plain floats, lists on the step loop."""
        _, q2, q3, q4 = q
        try:
            c2, s2 = math.cos(q2), math.sin(q2)
            c3, s3 = math.cos(q3), math.sin(q3)
            c4, s4 = math.cos(q4), math.sin(q4)
            c23, s23 = math.cos(q2 - q3), math.sin(q2 - q3)
            c24, s24 = math.cos(q2 - q4), math.sin(q2 - q4)
            c34, s34 = math.cos(q3 - q4), math.sin(q3 - q4)
        except ValueError as exc:  # math.cos and math.sin reject inf
            raise SolveFailure("mass matrix is non-finite: infinite joint angle") from exc
        (a1, a2, a3, a4, a5, y5p, cm2, cm3, cm4, m2, m3, m4, mp, i1, g, m22,
         m33, m44, h2, h3, h4, v4) = self._consts
        # Slewing radii of the body mass points.
        r2 = a1 + cm2 * c2
        r3 = a1 + a2 * c2 + cm3 * c3
        wrist = a1 + a2 * c2 + a3 * c3 + a4
        r4 = wrist + cm4 * c4
        rp = wrist + a5 * c4 - y5p * s4
        m11 = i1 + m2 * r2 * r2 + m3 * r3 * r3 + m4 * r4 * r4 + mp * rp * rp
        # Radius-weighted mass outboard of joints 4 and 3.
        out4 = m4 * r4 + mp * rp
        out3 = m3 * r3 + out4
        mass = (m11, m22, m33, m44, a2 * h3 * c23,
                a2 * (h4 * c24 + v4 * s24), a3 * (h4 * c34 + v4 * s34))
        d11_2 = -2.0 * s2 * (m2 * r2 * cm2 + a2 * out3)
        d11_3 = -2.0 * s3 * (m3 * r3 * cm3 + a3 * out4)
        d11_4 = -2.0 * (m4 * r4 * cm4 * s4 + mp * rp * (a5 * s4 + y5p * c4))
        d23 = -a2 * h3 * s23
        d24 = a2 * (v4 * c24 - h4 * s24)
        d34 = a3 * (v4 * c34 - h4 * s34)
        g2, g3, g4 = g * c2 * h2, g * c3 * h3, g * (c4 * h4 - s4 * v4)
        w1, w2, w3, w4 = qd
        h = 0.5 * w1 * w1
        bias = [w1 * (d11_2 * w2 + d11_3 * w3 + d11_4 * w4),
                g2 - h * d11_2 - d23 * w3 * w3 - d24 * w4 * w4,
                g3 - h * d11_3 + d23 * w2 * w2 - d34 * w4 * w4,
                g4 - h * d11_4 + d24 * w2 * w2 + d34 * w3 * w3]
        return mass, (d11_2, d11_3, d11_4, d23, d24, d34), (g2, g3, g4), bias


def accelerations(terms, tau) -> list:
    """M^-1 (tau - bias) from the kernel's terms at one state, as 4 floats:
    one divide for the decoupled slew row, a Cholesky solve L L^T for the
    planar block.  tau is 4 plain floats.  Each pivot is tested inline: it
    must be finite and positive, which also keeps NaN out."""
    (m11, m22, m33, m44, m23, m24, m34), _, _, (b1, b2, b3, b4) = terms
    t1, t2, t3, t4 = tau
    l22 = math.sqrt(m22) if 0.0 < m22 < _INF else _pivot(m22)
    l32, l42 = m23 / l22, m24 / l22
    p33 = m33 - l32 * l32
    l33 = math.sqrt(p33) if 0.0 < p33 < _INF else _pivot(p33)
    l43 = (m34 - l32 * l42) / l33
    p44 = m44 - l42 * l42 - l43 * l43
    l44 = math.sqrt(p44) if 0.0 < p44 < _INF else _pivot(p44)
    y2 = (t2 - b2) / l22
    y3 = (t3 - b3 - l32 * y2) / l33
    y4 = (t4 - b4 - l42 * y2 - l43 * y3) / l44
    x4 = y4 / l44
    x3 = (y3 - l43 * x4) / l33
    x2 = (y2 - l32 * x3 - l42 * x4) / l22
    return [(t1 - b1) / (m11 if 0.0 < m11 < _INF else _pivot(m11)),
            x2, x3, x4]


def arm_step(model, q, qd, terms, tau, dt: float, integrator: str) -> list:
    """Advance the arm's q and qd (4-float lists) one step under the torque
    tau by the rule integrator names, as plant_step does the chassis, from
    the kernel terms at (q, qd); returns the new q and qd as one list."""
    midpoint = integrator == "midpoint"
    if not midpoint and integrator != "euler":
        raise ValueError("unknown integrator %r: expected %s"
                         % (integrator, " or ".join(INTEGRATORS)))
    p1, p2, p3, p4 = q
    m1, m2, m3, m4 = r1, r2, r3, r4 = qd  # m and a: the rates at stage t
    a1, a2, a3, a4 = accelerations(terms, tau)
    if midpoint:
        t = 0.5 * dt
        m1, m2, m3, m4 = mid = [r1 + t * a1, r2 + t * a2, r3 + t * a3,
                                r4 + t * a4]
        a1, a2, a3, a4 = accelerations(model._kernel(
            [p1 + t * r1, p2 + t * r2, p3 + t * r3, p4 + t * r4], mid), tau)
    return [p1 + dt * m1, p2 + dt * m2, p3 + dt * m3, p4 + dt * m4,
            r1 + dt * a1, r2 + dt * a2, r3 + dt * a3, r4 + dt * a4]


def _pivot(p: float) -> NoReturn:
    """Raise for a pivot p of M's factorization that is not finite and
    positive."""
    raise SolveFailure("mass matrix is singular or non-finite (pivot %r)" % p)

