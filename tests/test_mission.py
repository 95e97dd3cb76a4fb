"""Mission planning: circuit, face sweeps, stop assignment."""
import math
import time

import numpy as np
import pytest

from mobman.arm_control import target_in_base_frame
from mobman.config import (CircuitConfig, FireConfig, FireTestConfig,
                           SweepConfig, TopSprayConfig, parse_config)
from mobman.errors import GeometryError, InfeasibleSweep, ValidationError
from mobman.kinematics import forward_kinematics
from mobman.mission import Circuit, assign_fires, build_sweep, dispatch
from mobman.planning import plan_mission
from mobman.util import wrap_angle
from oracles import (ChassisRefSample, circuit_sample, reference_record,
                     stop_plan)

DEG = math.pi / 180.0
DT = 1e-3
PITCH = SweepConfig().pitch_deg * DEG


@pytest.fixture(scope="module")
def circuit():
    return Circuit(CircuitConfig(), dt=DT)


def test_edge_and_corner_times(circuit):
    spec = circuit.spec
    assert circuit.edge_time == pytest.approx(spec.edge_length / spec.speed,
                                              abs=1e-15)
    raw = 0.5 * math.pi * spec.corner_radius / spec.speed
    assert circuit.corner_time == pytest.approx(
        math.ceil(raw / DT - 1e-9) * DT, abs=1e-15)
    assert circuit.corner_time >= raw - 1e-12
    assert circuit.arc_speed <= spec.speed
    assert circuit.arc_speed * circuit.corner_time == pytest.approx(
        0.5 * math.pi * spec.corner_radius)
    assert circuit.lap_time == pytest.approx(
        4.0 * (circuit.edge_time + circuit.corner_time))


def test_k_points_are_edge_midpoints(circuit):
    hw = circuit.half_width
    expect = np.array([(0.0, -hw), (hw, 0.0), (0.0, hw), (-hw, 0.0),
                       (0.0, -hw)])
    np.testing.assert_allclose(circuit.k_points, expect, atol=1e-12)
    np.testing.assert_allclose(circuit.k_times[0], 0.0)
    np.testing.assert_allclose(circuit.k_times[4], circuit.lap_time)
    # Equal leg spacing.
    legs = np.diff(circuit.k_times)
    np.testing.assert_allclose(legs, legs[0], atol=1e-12)


def test_a_points_flank_the_straights(circuit):
    hs = 0.5 * circuit.spec.edge_length
    hw = circuit.half_width
    expect = np.array([
        (hw, -hs), (hw, hs),     # group 1 straight, +y travel
        (hs, hw), (-hs, hw),     # group 2 straight, -x travel
        (-hw, hs), (-hw, -hs),   # group 3 straight, -y travel
        (-hs, -hw), (hs, -hw),   # group 4: opening leg, +x travel
    ])
    np.testing.assert_allclose(circuit.a_points, expect, atol=1e-12)


def test_a_times_bracket_corners(circuit):
    he, e, c = circuit.half_edge_time, circuit.edge_time, circuit.corner_time
    # A8 closes the opening half straight; each corner runs A(2k) .. A(2k+1).
    assert circuit.a_times[7] == pytest.approx(he)
    assert circuit.a_times[0] == pytest.approx(he + c)
    assert circuit.a_times[1] == pytest.approx(he + c + e)
    assert circuit.a_times[2] == pytest.approx(he + 2 * c + e)
    assert circuit.a_times[6] == pytest.approx(circuit.lap_time - he)
    # Sample positions at the mark times agree with the stored points.
    for k in range(8):
        ref = reference_record(circuit, circuit.a_times[k])
        np.testing.assert_allclose((ref.x, ref.y), circuit.a_points[k],
                                   atol=1e-9)


def test_sample_is_continuous_and_periodic(circuit):
    for boundary in np.cumsum([s.duration for s in circuit.segments])[:-1]:
        before = reference_record(circuit, boundary - 1e-9)
        after = reference_record(circuit, boundary + 1e-9)
        assert math.hypot(after.x - before.x, after.y - before.y) < 1e-6
        dh = (after.heading - before.heading + math.pi) % (2 * math.pi) - math.pi
        assert abs(dh) < 1e-6
    a = reference_record(circuit, 1.234)
    b = reference_record(circuit, 1.234 + circuit.lap_time)
    assert (a.x, a.y, a.heading) == pytest.approx((b.x, b.y, b.heading))


@pytest.mark.parametrize("dt", [DT, 0.05])
def test_sample_rows_match_scalar_oracle(dt):
    """The vectorised sampler equals the scalar scan-and-math sampler of
    tests/oracles.py bit for bit, on a dense grid over five laps from -2
    laps, at every segment end +-1e-12 s (also a lap before and after), and
    at the float neighbours of each end less 1e-12 s, the segment-choice
    cut.  reference_record reads the same row as plain floats."""
    circuit = Circuit(CircuitConfig(), dt=dt)
    lap = circuit.lap_time
    ends = np.array([s.t0 + s.duration for s in circuit.segments])
    cuts = ends - 1e-12
    t = np.concatenate([
        np.arange(-2.0 * lap, 3.0 * lap, 3.1e-3),
        (ends[:, None] + np.array([-1e-12, 0.0, 1e-12])).ravel(),
        (ends[:, None] + np.array([-lap, lap])
         + np.array([-1e-12, 1e-12])[:, None, None]).ravel(),
        (cuts[:, None] + np.spacing(cuts)[:, None] * np.arange(-2, 3)).ravel(),
        [0.0, -0.0, -1e-15, lap, -lap, 7.0 * lap + 1.234]])
    want = np.array([circuit_sample(circuit, x) for x in t.tolist()])
    got = circuit.sample_rows(t)
    assert got.shape == (len(t), 5)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x, row in zip(t[::997].tolist(), want[::997].tolist()):
        sample = reference_record(circuit, x)
        assert list(sample) == row
        assert all(type(v) is float for v in sample)


def test_reference_columns_are_the_record_fields():
    """The record the tests name a reference row's fields with reads the
    columns in the order the sampler gives them and the step loop reads
    them."""
    assert ChassisRefSample._fields == Circuit.REFERENCE_COLUMNS


def test_sample_speed_profile(circuit):
    mid_straight = reference_record(circuit, circuit.k_times[1])
    assert mid_straight.v == circuit.spec.speed and mid_straight.w == 0.0
    mid_corner = reference_record(
        circuit, circuit.half_edge_time + 0.5 * circuit.corner_time)
    assert mid_corner.v == pytest.approx(circuit.arc_speed)
    assert mid_corner.w == pytest.approx(circuit.arc_rate)


def test_on_straight_steps_at_marks(circuit):
    """A point at a straight's entry is parked at its A mark's step, one at
    its middle at its K mark's step (group 4's is K1, which starts the lap),
    each at the reference the circuit holds there."""
    hs = 0.5 * circuit.spec.edge_length
    for g in range(1, 5):
        _, step, pose = circuit.on_straight(g, 0.0)
        assert step == round(circuit.a_times[2 * g - 2] / DT)
        np.testing.assert_allclose(pose[:2], circuit.a_points[2 * g - 2],
                                   atol=1e-9)
        assert pose == reference_record(circuit, step * DT)[:3]
        _, step, pose = circuit.on_straight(g, hs)
        assert step == round(circuit.k_times[g % 4] / DT)
        np.testing.assert_allclose(pose[:2], circuit.k_points[g], atol=1e-9)
        assert pose == reference_record(circuit, step * DT)[:3]


def test_circuit_validation():
    with pytest.raises(GeometryError):
        Circuit(CircuitConfig(edge_length=0.0), DT)
    with pytest.raises(GeometryError):
        Circuit(CircuitConfig(speed=0.0), DT)
    with pytest.raises(GeometryError):
        Circuit(CircuitConfig(corner_radius=0.1), DT)    # below the minimum
    with pytest.raises(GeometryError):
        Circuit(CircuitConfig(corner_radius=1.5), DT)    # over half the edge


def test_on_straight_path_lengths(circuit):
    hs = 0.5 * circuit.spec.edge_length
    # Start of the closing half straight (just past K1) counts from zero.
    assert circuit.on_straight(4, hs + 0.1)[0] == pytest.approx(0.1)
    # K1 itself, and a point short of it by up to 1e-9 m, starts the lap,
    # so it is serviced first; 2e-9 m short of it is the lap's end.
    for short in (0.0, 1e-12, 1e-9):
        assert circuit.on_straight(4, hs - short)[:2] == (0.0, 0)
    s, step, _ = circuit.on_straight(4, hs - 2e-9)
    assert s == pytest.approx(circuit.lap_length)
    assert step == round(circuit.lap_time / DT)
    # Entry half of the opening leg sits at the end of the lap.
    assert circuit.on_straight(4, hs - 0.1)[0] \
        == pytest.approx(circuit.segments[-1].s0 + hs - 0.1)
    # Group 1 distances follow the first straight segment.
    assert circuit.on_straight(1, 0.0)[0] == pytest.approx(circuit.segments[2].s0)


# -- sweeps ----------------------------------------------------------------


def test_sweep_geometry_and_duration(circuit):
    spec = SweepConfig()
    fire = FireTestConfig()
    path = build_sweep(1, spec, fire, circuit)
    assert path.vertices.shape == (2 * spec.passes, 3)
    np.testing.assert_allclose(path.vertices[0],
                               [-0.45, -0.5, spec.base_height], atol=1e-12)
    # 4 passes of 0.9 m plus 3 vertical hops totalling the 0.45 m span.
    assert path.length == pytest.approx(
        spec.passes * spec.horizontal_span + spec.vertical_span)
    assert path.duration == pytest.approx(path.length / spec.speed)
    assert path.duration <= circuit.edge_time + 1e-9


def test_sweep_faces_follow_travel_direction(circuit):
    spec, fire = SweepConfig(), FireTestConfig()
    half = 0.5 * fire.crib_side
    for edge, (axis, sign, fixed, fval) in {
            1: (0, +1.0, 1, -half), 2: (1, +1.0, 0, half),
            3: (0, -1.0, 1, half), 4: (1, -1.0, 0, -half)}.items():
        path = build_sweep(edge, spec, fire, circuit)
        first, second = path.vertices[0], path.vertices[1]
        assert (second[axis] - first[axis]) * sign > 0
        np.testing.assert_allclose(path.vertices[:, fixed], fval, atol=1e-12)


def test_sweep_serpentine_alternates(circuit):
    path = build_sweep(1, SweepConfig(), FireTestConfig(), circuit)
    xs = path.vertices[:, 0]
    assert xs[0] == xs[3] == xs[4] == xs[7] == pytest.approx(-0.45)
    assert xs[1] == xs[2] == xs[5] == xs[6] == pytest.approx(0.45)
    zs = path.vertices[:, 2]
    np.testing.assert_allclose(np.diff(zs)[::2], 0.0, atol=1e-12)


def test_sweep_positions_clamp(circuit):
    path = build_sweep(2, SweepConfig(), FireTestConfig(), circuit)
    before = path.positions_at(np.array([-1.0]))[0]
    after = path.positions_at(np.array([100.0]))[0]
    np.testing.assert_allclose(before, path.vertices[0], atol=1e-12)
    np.testing.assert_allclose(after, path.vertices[-1], atol=1e-12)


def test_sweep_infeasible_cases(circuit):
    with pytest.raises(InfeasibleSweep):
        build_sweep(1, SweepConfig(speed=0.5), FireTestConfig(), circuit)
    with pytest.raises(InfeasibleSweep):
        build_sweep(5, SweepConfig(), FireTestConfig(), circuit)
    with pytest.raises(InfeasibleSweep):
        build_sweep(1, SweepConfig(passes=0), FireTestConfig(), circuit)


@pytest.mark.parametrize("passes", [10 ** 400, 1_000_000])
def test_sweep_with_too_many_passes_fails_fast(circuit, passes):
    """A pass count that cannot fit the edge is refused before any vertex is
    built, even one too large for a float; so is the plan of a config that
    names it within sweep.passes' range, and a count past it is named when
    the config is parsed."""
    start = time.perf_counter()
    with pytest.raises(InfeasibleSweep, match="too many passes"):
        build_sweep(1, SweepConfig(passes=passes), FireTestConfig(), circuit)
    if passes > 10 ** 6:
        with pytest.raises(ValidationError, match=r"^sweep\.passes: must be in"):
            parse_config({"sweep": {"passes": passes}})
    else:
        with pytest.raises(InfeasibleSweep, match="too many passes"):
            plan_mission(parse_config({"sweep": {"passes": passes}}))
    assert time.perf_counter() - start < 0.1


# -- stage II assignment ---------------------------------------------------


def test_assign_fires_worked_case(circuit):
    fires = [FireConfig(ident="F1", position=(0.30, 0.20, 0.30)),
             FireConfig(ident="F2", position=(0.20, 0.30, 0.30))]
    first, second = assign_fires(fires, circuit)
    assert first.fire.ident == "F1" and first.nearest_a == 2 and first.group == 1
    np.testing.assert_allclose(first.point, (circuit.half_width, 0.20),
                               atol=1e-12)
    assert first.heading == pytest.approx(0.5 * math.pi)
    assert second.fire.ident == "F2" and second.nearest_a == 3 and second.group == 2
    np.testing.assert_allclose(second.point, (0.20, circuit.half_width),
                               atol=1e-12)
    assert first.path_distance < second.path_distance


def test_assign_fires_matches_brute_force(circuit, rng):
    """Random fire sets, and two fires that project onto one point of the
    circuit, which share a lap step and keep their ident order however the
    projection rounds their path distances."""
    y = -0.9420389341250399
    fire_sets = [[FireConfig(ident="F0", position=(2.0, y, 0.5)),
                  FireConfig(ident="F1", position=(1.0, y, 0.5))]]
    for trial in range(20):
        n = int(rng.integers(1, 11))
        fire_sets.append([
            FireConfig(ident="F%d" % (i + 1),
                       position=tuple(rng.uniform(-0.5, 0.5, 2)) + (0.3,))
            for i in range(n)])
    for fires in fire_sets:
        stops = assign_fires(fires, circuit)
        oracle = stop_plan(fires, circuit.spec, DT)
        assert len(stops) == len(oracle)
        for stop, (ident, a, group, point, dist, step, pose) in zip(stops,
                                                                   oracle):
            assert stop.fire.ident == ident
            assert stop.nearest_a == a and stop.group == group
            np.testing.assert_allclose(stop.point, point, atol=1e-12)
            assert stop.path_distance == pytest.approx(dist, abs=1e-12)
            assert stop.step == step
            np.testing.assert_allclose(stop.pose[:2], pose[:2], atol=1e-12)
            assert wrap_angle(stop.pose[2] - pose[2]) == pytest.approx(
                0.0, abs=1e-12)
        keys = [(s.step, s.fire.ident) for s in stops]
        assert keys == sorted(keys)


def test_assign_fires_tie_takes_lower_mark(circuit):
    """Ties go to the lowest-numbered mark: a fire midway between A1 and A2,
    and a fire at the crib centre, equally far from all eight marks up to
    the round-off of the centre's last bits, which goes to A1 wherever the
    crib is."""
    [stop] = assign_fires(
        [FireConfig(ident="F1", position=(circuit.half_width, 0.0, 0.3))],
        circuit)
    assert (stop.nearest_a, stop.group) == (1, 1)
    for center in [(0.0, 0.0), (10.0, -7.0), (3.3, 1.7), (-123.4, 56.7)]:
        moved = Circuit(CircuitConfig(center=center), dt=0.01)
        fires = [FireConfig(ident="F1", position=center + (0.5,))]
        [stop] = assign_fires(fires, moved)
        assert (stop.nearest_a, stop.group) == (1, 1), center
        assert stop_plan(fires, moved.spec, moved.dt)[0][1:3] == (1, 1)


def test_assign_fires_clamps_to_straight(circuit):
    # Nearest mark is A2, but the projection lands past the straight's end,
    # so the stop clamps to the A2 corner point itself.
    [stop] = assign_fires([FireConfig(ident="F1", position=(2.5, 2.2, 0.3))],
                          circuit)
    assert stop.nearest_a == 2 and stop.group == 1
    np.testing.assert_allclose(
        stop.point, tuple(circuit.a_points[1]), atol=1e-12)


def test_dispatch_splits_budget(circuit, stock_arm):
    fires = [FireConfig(ident="F1", position=(0.30, 0.20, 0.30)),
             FireConfig(ident="F2", position=(0.20, 0.30, 0.30))]
    stops = assign_fires(fires, circuit)
    slots, flagged = dispatch(stops, budget=3.0, pitch=PITCH,
                              geometry=stock_arm)
    assert not flagged
    assert [slot.stop for slot in slots] == stops
    for slot in slots:
        assert slot.dwell == pytest.approx(1.5)
        assert slot.pitch >= 0.0
        # The scan's joints aim the nozzle at the fire from the parking
        # pose, at the pitch the slot reports.
        target = target_in_base_frame(slot.stop.pose,
                                      slot.stop.fire.position, slot.pitch)
        tool = forward_kinematics(slot.joints, stock_arm)
        np.testing.assert_allclose(tool[:3], target[:3], rtol=0, atol=1e-9)
        assert -slot.joints[3] == slot.pitch


def test_dispatch_flags_unreachable(circuit, stock_arm):
    fires = [FireConfig(ident="F1", position=(0.30, 0.20, 0.30)),
             FireConfig(ident="FX", position=(0.0, 0.0, 5.0))]  # beyond reach
    slots, flagged = dispatch(assign_fires(fires, circuit), budget=3.0,
                              pitch=PITCH, geometry=stock_arm)
    assert len(flagged) == 1
    fire, reason = flagged[0]
    assert fire.ident == "FX" and "unreachable" in reason
    [slot] = slots
    assert slot.stop.fire.ident == "F1" and slot.dwell == pytest.approx(3.0)
    target = target_in_base_frame(slot.stop.pose, slot.stop.fire.position,
                                  slot.pitch)
    tool = forward_kinematics(slot.joints, stock_arm)
    np.testing.assert_allclose(tool[:3], target[:3], rtol=0, atol=1e-9)
    assert -slot.joints[3] == slot.pitch


def test_dispatch_empty_plan(stock_arm):
    slots, flagged = dispatch([], budget=3.0, pitch=PITCH,
                              geometry=stock_arm)
    assert slots == [] and flagged == []


def test_top_spray_spec_defaults():
    spec = TopSprayConfig()
    assert spec.duration == 0.0
    assert len(spec.joints_deg) == 4
