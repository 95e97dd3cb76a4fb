"""Rigid-body terms: mass matrix, velocity coupling, gravity, energy.

The load-bearing oracle is the energy route: kinetic and potential energy are
computed body by body through a separate code path, so the kernel's M and G
(assembled as arrays in oracles.py) can be checked against exact
quadratic-form and gradient identities, and its fused bias against the
Christoffel C of its partials.
"""
import math

import numpy as np
import pytest

from mobman import dynamics
from mobman.arm_control import control_law
from mobman.chassis_control import plant_step
from mobman.config import ArmControlConfig, ScenarioConfig
from mobman.dynamics import (ArmDynamics, LinkInertialParams, accelerations,
                             arm_step)
from mobman.errors import SolveFailure, ValidationError
from mobman.util import INTEGRATORS
from oracles import (ChassisRefSample, coriolis_matrix, gravity_vector,
                     kinetic_energy, mass_matrix, mass_matrix_partials,
                     potential_energy, random_joint_angles,
                     substepped_integrate, torques)

DEG = math.pi / 180.0


def _unit(i):
    e = np.zeros(4)
    e[i] = 1.0
    return e


def _rod_split(geometry, total_mass=None, masses=None):
    """The stock split as its rule states it, per body (column, boom,
    forearm, wrist): mass in proportion to d1 + a1, a2, a3 and a4 + a5;
    centre of mass at half the rod a1, a2, a3 or a5; inertia m L^2 / 3 of
    that rod with the masses in use."""
    a1, a2, a3, a4, a5 = (v / 1000.0 for v in geometry.a)
    spans = [geometry.d1 / 1000.0 + a1, a2, a3, a4 + a5]
    rods = [a1, a2, a3, a5]
    if masses is None:
        masses = [total_mass * L / sum(spans) for L in spans]
    return (masses, [L / 2.0 for L in rods],
            [m * L ** 2 / 3.0 for m, L in zip(masses, rods)])


def test_default_params_mass_budget(stock_params, stock_arm, offset_arm):
    budget = ScenarioConfig().inertial
    assert sum(stock_params.masses) == pytest.approx(budget.total_mass)
    assert stock_params.payload_mass == budget.payload_mass
    assert stock_params.gravity == budget.gravity
    assert not stock_params.validate()
    # The stock figures: a 3.165 m structural length carries the 400 kg.
    assert stock_params.masses == pytest.approx(
        (36.0190, 126.3823, 214.8499, 22.7488), abs=1e-4)
    assert stock_params.com_offsets == pytest.approx((0.05, 0.5, 0.85, 0.04),
                                                     rel=1e-12)
    # Every body against the rule on both arms, and with masses set, whose
    # inertias follow them while the centres stay mid-rod.
    given = ScenarioConfig().inertial
    given.masses = [10.0, 300.0, 400.0, 50.0]
    for section, arm, expected in (
            (budget, stock_arm, _rod_split(stock_arm, budget.total_mass)),
            (budget, offset_arm, _rod_split(offset_arm, budget.total_mass)),
            (given, offset_arm, _rod_split(offset_arm, masses=given.masses))):
        params = dynamics.inertial_params(section, arm)
        for got, want in zip((params.masses, params.com_offsets,
                              params.inertias), expected):
            assert got == pytest.approx(want, rel=1e-12)


def test_mass_matrix_symmetric_positive_definite(model, rng):
    for q in random_joint_angles(rng, 200):
        m = mass_matrix(model, q)
        assert np.array_equal(m, m.T)
        np.linalg.cholesky(m)  # raises if not positive definite


def test_mass_matrix_matches_kinetic_energy_hessian(model, offset_model, rng):
    """KE is exactly quadratic in qd, so M_ij recovers from three KE calls
    with unit rates: M_ij = K(e_i + e_j) - K(e_i) - K(e_j)."""
    for arm in (model, offset_model):
        for q in random_joint_angles(rng, 50):
            m = mass_matrix(arm, q)
            k = [kinetic_energy(arm, q, _unit(i)) for i in range(4)]
            for i in range(4):
                assert m[i, i] == pytest.approx(2.0 * k[i], rel=1e-12)
                for j in range(i + 1, 4):
                    kij = kinetic_energy(arm, q, _unit(i) + _unit(j))
                    assert m[i, j] == pytest.approx(kij - k[i] - k[j],
                                                    rel=1e-9, abs=1e-9)


def test_slewing_row_is_decoupled(model, rng):
    for q in random_joint_angles(rng, 20):
        m = mass_matrix(model, q)
        np.testing.assert_array_equal(m[0, 1:], 0.0)
        np.testing.assert_array_equal(m[1:, 0], 0.0)


def test_mass_matrix_point_mass_hand_case(stock_arm):
    """Single point mass on the boom, everything else negligible."""
    tiny = 1e-9
    params = LinkInertialParams(masses=(tiny, 10.0, tiny, tiny),
                                com_offsets=(0.0, 0.8, 0.0, 0.0),
                                inertias=(tiny, 10.0 * 0.8 ** 2, tiny, tiny),
                                payload_mass=0.0, gravity=9.81)
    model = ArmDynamics(params, stock_arm)
    q = np.array([0.0, 40.0 * DEG, -20.0 * DEG, -10.0 * DEG])
    m = mass_matrix(model, q)
    r = stock_arm.a[0] * 1e-3 + 0.8 * math.cos(q[1])
    assert m[0, 0] == pytest.approx(tiny + 10.0 * r * r, abs=1e-6)
    assert m[1, 1] == pytest.approx(10.0 * 0.8 ** 2, rel=1e-6)
    assert abs(m[2, 2]) < 1e-6 and abs(m[1, 2]) < 1e-6


def test_gravity_matches_potential_gradient(model, offset_model, rng):
    h = 1e-5
    for arm in (model, offset_model):
        for q in random_joint_angles(rng, 50):
            g = gravity_vector(arm, q)
            fd = np.zeros(4)
            for i in range(4):
                e = _unit(i) * h
                fd[i] = (potential_energy(arm, q + e)
                         - potential_energy(arm, q - e)) / (2.0 * h)
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0) < 1e-8
            assert g[0] == 0.0


def test_gravity_flat_arm_hand_formula(model):
    q = np.zeros(4)
    g = gravity_vector(model, q)
    p = model.params
    _, m2, m3, m4 = p.masses
    _, c2, c3, _ = p.com_offsets
    _, a2, a3, _, _ = (v * 1e-3 for v in model.geometry.a)
    expect2 = p.gravity * (m2 * c2 + (m3 + m4 + p.payload_mass) * a2)
    expect3 = p.gravity * (m3 * c3 + (m4 + p.payload_mass) * a3)
    assert g[1] == pytest.approx(expect2, rel=1e-12)
    assert g[2] == pytest.approx(expect3, rel=1e-12)


def test_coriolis_skew_symmetry(model, rng):
    """x'(dM/dt - 2C)x vanishes along any state."""
    worst = 0.0
    for _ in range(200):
        q = random_joint_angles(rng)
        qd = rng.uniform(-2.0, 2.0, 4)
        x = rng.uniform(-1.0, 1.0, 4)
        dm = np.einsum("ijk,i->jk", mass_matrix_partials(model, q), qd)
        c = coriolis_matrix(model, q, qd)
        worst = max(worst, abs(x @ (dm - 2.0 * c) @ x))
    assert worst < 1e-10


def _mass_partials_fd(model, q, step=1e-3):
    """Fourth-order central differences of M: dM/dq as (4, 4, 4)."""
    out = np.zeros((4, 4, 4))
    for i in range(4):
        e = _unit(i) * step
        out[i] = (-mass_matrix(model, q + 2 * e)
                  + 8.0 * mass_matrix(model, q + e)
                  - 8.0 * mass_matrix(model, q - e)
                  + mass_matrix(model, q - 2 * e)) / (12.0 * step)
    return out


def test_mass_partials_analytic_vs_finite_difference(model, offset_model, rng):
    for arm in (model, offset_model):
        for q in random_joint_angles(rng, 25):
            ana = mass_matrix_partials(arm, q)
            assert np.abs(ana - _mass_partials_fd(arm, q)).max() < 1e-6


def test_coriolis_fd_route_agrees(model, rng):
    """C from the Christoffel sum over finite-difference partials:
    c_kj = sum_i 0.5 (dM_kj/dq_i + dM_ki/dq_j - dM_ij/dq_k) qd_i."""
    q = random_joint_angles(rng)
    qd = rng.uniform(-1.5, 1.5, 4)
    dm = _mass_partials_fd(model, q)
    fd = np.zeros((4, 4))
    for k in range(4):
        for j in range(4):
            fd[k, j] = sum(0.5 * (dm[i, k, j] + dm[j, k, i] - dm[k, i, j]) * qd[i]
                           for i in range(4))
    assert np.abs(coriolis_matrix(model, q, qd) - fd).max() < 1e-6


def test_inverse_forward_dynamics_round_trip(model, rng):
    for _ in range(20):
        q = random_joint_angles(rng)
        qd = rng.uniform(-1.0, 1.0, 4)
        qdd = rng.uniform(-2.0, 2.0, 4)
        tau = torques(model._kernel(q, qd), qdd)
        back = accelerations(model._kernel(q, qd), tau)
        np.testing.assert_allclose(back, qdd, atol=1e-9)


def test_power_balance_pointwise(model, rng):
    """qd'(M qdd) + 0.5 qd'(dM/dt qd) + qd'G equals the injected power."""
    for _ in range(20):
        q = random_joint_angles(rng)
        qd = rng.uniform(-1.0, 1.0, 4)
        tau = rng.uniform(-200.0, 200.0, 4)
        qdd = accelerations(model._kernel(q, qd), tau)
        dm = np.einsum("ijk,i->jk", mass_matrix_partials(model, q), qd)
        power = qd @ mass_matrix(model, q) @ qdd + 0.5 * qd @ dm @ qd \
            + qd @ gravity_vector(model, q)
        assert power == pytest.approx(float(qd @ tau), rel=1e-9, abs=1e-6)


def test_free_swing_conserves_energy(model):
    q = np.array([0.3, 70.0 * DEG, -40.0 * DEG, -30.0 * DEG])
    qd = np.array([0.4, -0.2, 0.3, -0.1])
    dt = 1e-4
    e0 = kinetic_energy(model, q, qd) + potential_energy(model, q)
    y = np.concatenate([q, qd])

    def f(t, y):
        return np.concatenate([y[4:], accelerations(
            model._kernel(y[:4], y[4:]), [0.0] * 4)])

    for _ in range(2000):  # 0.2 s of free swing, by the classic RK4 rule
        y = substepped_integrate(f, y, dt, substeps=1)
    e1 = kinetic_energy(model, y[:4], y[4:]) + potential_energy(model, y[:4])
    assert abs(e1 - e0) / abs(e0) < 1e-9


def test_fused_dynamics_match_christoffel_route(model, offset_model, rng):
    """accelerations and the oracle torques, the inverse dynamics the arm
    law writes out (shared-trig kernel, expanded bias, block Cholesky),
    against M, the Christoffel C, G and a generic dense solve, on 1,000
    random in-range states of each arm."""
    for arm in (model, offset_model):
        worst_fd = worst_id = 0.0
        for q in random_joint_angles(rng, 1000):
            qd = rng.uniform(-2.0, 2.0, 4)
            tau = rng.uniform(-1e3, 1e3, 4)
            qdd = rng.uniform(-2.0, 2.0, 4)
            m = mass_matrix(arm, q)
            bias = coriolis_matrix(arm, q, qd) @ qd + gravity_vector(arm, q)
            want = np.linalg.solve(m, tau - bias)
            got = accelerations(arm._kernel(q, qd), tau)
            worst_fd = max(worst_fd, np.abs(got - want).max() / np.abs(want).max())
            want = m @ qdd + bias
            got = torques(arm._kernel(q, qd), qdd)
            worst_id = max(worst_id, np.abs(got - want).max() / np.abs(want).max())
        assert worst_fd < 1e-9 and worst_id < 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("joint", [1, 2, 3])
def test_forward_dynamics_non_finite_angle_raises(model, joint, bad):
    """M depends on joints 2-4 only; a NaN or infinite angle there is a
    SolveFailure about the mass matrix, never a raw math error or a NaN
    state, on both routes into the model: the arm's rates in its plant
    step, arm_step, with the angle at the step's start (the kernel terms the
    first stage reuses) or at a later midpoint stage, and the arm
    control_law on the kernel terms at (q, qd), which raise for an infinite
    angle and whose torque for a NaN one the plant then meets at M's
    factorization."""
    good = [0.1, 60.0 * DEG, -30.0 * DEG, -10.0 * DEG]
    q = list(good)
    q[joint] = bad
    qd = [0.2, -0.1, 0.3, 0.1]
    zero = [0.0] * 4

    def step(method, terms, tau):
        return arm_step(model, q, qd, terms, tau, 1e-3, method)

    for method in INTEGRATORS:
        with pytest.raises(SolveFailure, match="mass matrix"):
            step(method, model._kernel(q, qd), zero)
    with pytest.raises(SolveFailure, match="mass matrix"):
        step("midpoint", model._kernel(good, qd), zero)
    with pytest.raises(SolveFailure, match="mass matrix"):
        terms = model._kernel(q, qd)
        tau = control_law(q, qd, good + qd + zero, ArmControlConfig(),
                          terms)
        step("euler", terms, tau)


def test_hot_path_avoids_tensor_route_and_dense_solve(model, monkeypatch):
    """One control step, the arm law and the chassis and arm plant steps
    under the stock midpoint rule, uses the scalar kernel only: no einsum
    (the Christoffel route) and no generic linear solve; dynamics.py does
    not import numpy."""
    def slow_route(*args, **kwargs):
        raise AssertionError("slow dynamics route on the hot path")

    assert not hasattr(dynamics, "np")
    monkeypatch.setattr(np.linalg, "solve", slow_route)
    monkeypatch.setattr(np, "einsum", slow_route)
    q = [0.1, 60.0 * DEG, -30.0 * DEG, -10.0 * DEG]
    qd = [0.2, -0.1, 0.3, 0.1]
    terms = model._kernel(q, qd)
    tau = control_law(q, qd, [v + 0.01 for v in q] + qd + [0.0] * 4,
                      ArmControlConfig(), terms)
    ref = ChassisRefSample(0.0, 0.0, 0.0, v=0.88, w=0.0)
    state = (plant_step([0.0, 0.0, 0.0, 0.88, 0.0], ref, ref, [0.0, 0.0],
                        [0.0, 0.0], 1e-3, "midpoint")
             + arm_step(model, q, qd, terms, tau, 1e-3, "midpoint"))
    assert len(state) == 13 and all(map(math.isfinite, state))


def test_parameter_validation(stock_arm):
    bad = LinkInertialParams(masses=(1.0, -2.0, 3.0, 4.0),
                             com_offsets=(0.1, 0.2, 0.3, 0.4),
                             inertias=(1.0, 1.0, 1.0, 1.0),
                             payload_mass=-1.0, gravity=9.81)
    problems = bad.validate()
    assert any("masses[1]" in p for p in problems)
    assert any("payload_mass" in p for p in problems)
    # Spin inertia below the point-mass bound is physically impossible.
    with pytest.raises(ValidationError):
        ArmDynamics(LinkInertialParams(
            masses=(10.0, 10.0, 10.0, 10.0),
            com_offsets=(0.5, 1.0, 1.0, 0.5),
            inertias=(1.0, 0.1, 0.1, 0.1),
            payload_mass=0.0, gravity=9.81), stock_arm)
