"""Mission simulation harness: planning grid, logging, metrics, export."""
import ast
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mobman import config as config_mod, mission, simulate
from mobman.arm_control import (control_law as arm_control_law,
                                target_in_base_frame)
from mobman.chassis_control import chassis_tick, plant_step, wheel_speeds
from mobman.config import ChassisControlConfig, ScenarioConfig, parse_config
from mobman.dynamics import ArmDynamics, arm_step
from mobman.errors import (DisturbanceBoundViolation, EmptyLog,
                           JointLimitViolation, MobmanError, ParseError,
                           SolveFailure, Unreachable, ValidationError)
from mobman.kinematics import forward_kinematics, inverse_kinematics
from mobman.metrics import _event_steps, compute_metrics, stage_timing
from mobman.mission import Circuit, Stage2Slot, SweepPath
from mobman.planning import (_arm_reference, _chassis_reference,
                             _labels_and_events, plan_mission)
from mobman.simulate import (_ARM_COLUMNS, CSV_COLUMNS, CSV_NUMERIC, SimLog,
                             export, run_mission)
from oracles import (ChassisRefSample, kinetic_energy, potential_energy,
                     reference_record, run_line_scenario, write_log)

DEG = math.pi / 180.0


def test_csv_schema_is_fixed():
    assert CSV_COLUMNS == [
        "time", "state",
        "X", "Y", "phi", "v", "w",
        "e1", "e2", "e3", "s1", "s2", "u1", "u2", "vL", "vR",
        "q1", "q2", "q3", "q4", "qd1", "qd2", "qd3", "qd4",
        "tau1", "tau2", "tau3", "tau4",
        "eeX", "eeY", "eeZ", "tgtX", "tgtY", "tgtZ",
        "event"]


def test_plan_lands_events_on_grid():
    config = ScenarioConfig()
    plan = plan_mission(config)
    dt = plan.dt
    marks = {event: step for p in plan.phases for step, event in p.marks}
    k_steps = [marks["K%d" % k] for k in range(1, 6)]
    # Every K and A mark sits exactly on a sample.
    for step, t in zip(k_steps, plan.circuit.k_times):
        assert step * dt == pytest.approx(t, abs=1e-9)
    for a, t in enumerate(plan.circuit.a_times, start=1):
        assert marks["A%d" % a] * dt == pytest.approx(t, abs=1e-9)
    # Sweep windows start at the leg marks and fit inside the legs.
    sweeps = [p for p in plan.phases if isinstance(p.spray, SweepPath)]
    assert [p.spray for p in sweeps] == plan.sweeps  # the same objects
    for k, p in enumerate(sweeps):
        a, b = p.start, p.end
        assert a == k_steps[k]
        assert (b - a) * dt == pytest.approx(plan.sweeps[k].duration, abs=dt)
        assert b <= k_steps[k + 1]
    # Stage II slots spread the budget and stay ordered.
    assert len(plan.stage2) == 2
    dwell = sum(s.dwell for s in plan.stage2)
    assert dwell == pytest.approx(config.fire_test.stage2_budget)
    dwells = [p for p in plan.phases if isinstance(p.spray, Stage2Slot)]
    assert [p.spray for p in dwells] == plan.stage2  # the same objects
    steps = [p.lap_step for p in dwells]
    assert steps == sorted(steps)
    for p in dwells:
        assert p.held and p.lap_step == p.spray.stop.step
        assert p.end - p.start == int(round(p.spray.dwell / dt))


STAGE_I = ["Home", "StageI.1.sweep", "StageI.1.transit", "StageI.2.sweep",
           "StageI.2.transit", "StageI.3.sweep", "StageI.3.transit",
           "StageI.4.sweep", "StageI.4.transit"]
TWO_STOPS = ["StageII.1.drive", "StageII.1.spray",
             "StageII.2.drive", "StageII.2.spray"]
# Each case's scenario and the phase labels after Stage I, End excluded.
SCHEDULE_CASES = {
    "stock": ({}, TWO_STOPS),
    "top_spray": ({"top_spray": {"duration": 1.0}}, ["TopSpray"] + TWO_STOPS),
    "no_fires": ({"fires": []}, []),
    "no_stage2_budget": ({"fire_test": {"stage2_budget": 0.0}}, TWO_STOPS),
    "unreachable_fire": ({"fires": [{"position": [0.30, 0.20, 0.30]},
                                    {"position": [0.0, 0.0, 5.0]}]},
                         TWO_STOPS[:2]),
}


@pytest.mark.parametrize("spec, tail", SCHEDULE_CASES.values(),
                         ids=SCHEDULE_CASES)
def test_phase_timeline(spec, tail):
    """Without running the loop: the phases run in the mission order and
    tile the steps, each top spray, dwell and End parks the chassis on a
    lap step and holds the joints, and the markers compute_metrics reads
    fire in order, also when a dwell has no steps."""
    config = parse_config(spec)
    plan = plan_mission(config)
    dt, n, phases = plan.dt, plan.n_steps, plan.phases
    assert [p.label for p in phases] == STAGE_I + tail + ["End"]
    assert phases[0].start == 0 and phases[-2].end == n
    assert all(p.end == q.start for p, q in zip(phases, phases[1:]))
    assert all(p.start <= p.end for p in phases)
    assert (phases[-1].start, phases[-1].end, phases[-1].label) == (
        n, n + 1, "End")

    refs = _chassis_reference(plan)
    qr, _, _ = _arm_reference(plan, refs)
    assert len(refs) == len(qr) == n + 1
    held = [p for p in phases if p.held]
    assert held == [p for p in phases if p.label in ("TopSpray", "End")
                    or isinstance(p.spray, Stage2Slot)]
    assert len(held) == bool(config.top_spray.duration) + len(plan.stage2) + 1
    # The top spray holds at K5's lap step, which dt 1 ms puts on the lap's
    # close (test_hold_after_stage_one_stays_on_the_grid takes the dt that
    # do not); End at the last stop's step, or at K5's when there is none.
    [k5] = [step for p in phases for step, event in p.marks if event == "K5"]
    if config.top_spray.duration:
        assert held[0].label == "TopSpray" and held[0].lap_step == k5
    assert held[-1].lap_step == (plan.stage2[-1].stop.step if plan.stage2
                                 else k5)
    for p in held:
        pose = reference_record(plan.circuit, p.lap_step * dt)
        still = pose._replace(v=0.0, w=0.0)
        assert (refs[p.start:p.end] == still).all()
        assert (qr[p.start:p.end + 1] == qr[p.start]).all()
        if isinstance(p.spray, Stage2Slot):  # aimed at its fire, steps or not
            local = target_in_base_frame((pose.x, pose.y, pose.heading),
                                         p.spray.stop.fire.position,
                                         p.spray.pitch)
            tool = forward_kinematics(qr[p.start], plan.geometry)
            np.testing.assert_allclose([tool.x, tool.y, tool.z],
                                       [local.x, local.y, local.z], atol=1e-9)
            # The dwell holds at its stop's lap step, so its rows are the
            # sampler at the stop's own step * dt: the stop's pose bit for
            # bit.  Its joint rows are the joints dispatch's pitch scan
            # found from that pose, which the one-pitch IK gives again.
            stop = p.spray.stop
            assert p.lap_step == stop.step
            assert (refs[p.start:p.end, :3] == stop.pose).all()
            assert (qr[p.start:p.end + 1] == p.spray.joints).all()
            target = target_in_base_frame(stop.pose, stop.fire.position,
                                          p.spray.pitch)
            assert (qr[p.start]
                    == inverse_kinematics(target, plan.geometry)).all()

    labels, events = _labels_and_events(plan)
    assert len(labels) == n + 1 and labels[-1] == "End"
    fired = [event for cell in events if cell for event in cell.split(";")]
    order = ["start", "K1", "A8", "A1", "K2", "A2", "A3", "K3", "A4", "A5",
             "K4", "A6", "A7", "K5"]
    if config.top_spray.duration:
        order += ["top_spray_start", "top_spray_end"]
    for j in range(1, len(plan.stage2) + 1):
        order += ["stop%d_arrive" % j, "spray%d_start" % j, "spray%d_end" % j]
    order.append("end")
    sweep_marks = ["sweep%d_%s" % (k, e) for k in range(1, 5)
                   for e in ("start", "end")]
    assert sorted(fired) == sorted(order + sweep_marks)
    assert [e for e in fired if e in order] == order
    for k in range(1, 5):
        leg = ["K%d" % k, "sweep%d_start" % k, "sweep%d_end" % k,
               "K%d" % (k + 1)]
        assert [e for e in fired if e in leg] == leg

    # The markers give the scheduled times back.
    values = {key: np.zeros(n + 1) for key in CSV_NUMERIC}
    report = compute_metrics(SimLog(
        _metrics_meta(config, n_stops=len(plan.stage2)),
        np.arange(n + 1) * dt, labels, values, events))
    assert report.stage1_wall_time == pytest.approx(plan.circuit.lap_time)
    assert report.top_spray_time == pytest.approx(config.top_spray.duration)
    assert report.stage2_time == pytest.approx(
        sum(slot.dwell for slot in plan.stage2), abs=dt)


@pytest.mark.parametrize("dt, first_move", [(0.007, 6.16e-3), (0.011, 0.0)],
                         ids=["rounds_down", "rounds_up"])
@pytest.mark.parametrize("spec", [{"top_spray": {"duration": 1.0}},
                                  {"fires": []}], ids=["top_spray", "no_fires"])
def test_hold_after_stage_one_stays_on_the_grid(spec, dt, first_move):
    """At a dt that does not divide the lap, the pose held after Stage I's
    last row (the top spray's, or End's with no stop) is the row of the last
    lap step not past K5: one driven step on from the last row when the lap
    rounds down to K5's step (6.16 mm at dt 7 ms, not a jump to the lap's
    end), none when it rounds up.  Stage II's first row then moves on from
    the hold by the rest of the lap, less than one step and never back."""
    plan = plan_mission(parse_config(dict(spec, dt=dt)))
    refs = _chassis_reference(plan)
    hold = plan.phases[len(STAGE_I)]
    lap = plan.circuit.lap_time
    assert hold.held and hold.lap_step * dt <= lap < (hold.lap_step + 1) * dt
    # Two driven rows, the first held one and, after the top spray, the
    # first row of Stage II.
    rows = refs[[hold.start - 2, hold.start - 1, hold.start]
                + ([hold.end] if "top_spray" in spec else [])]
    speed = rows[0, 3]
    along = [np.dot(b[:2] - a[:2], [np.cos(a[2]), np.sin(a[2])])
             for a, b in zip(rows[:-1], rows[1:])]
    assert along[0] == pytest.approx(speed * dt, rel=1e-9)
    assert along[1] == pytest.approx(first_move, rel=1e-3, abs=1e-12)
    if "top_spray" in spec:
        assert along[2] == pytest.approx(speed * (lap - hold.lap_step * dt),
                                         rel=1e-9)
        assert 0.0 < along[2] < speed * dt


@pytest.mark.parametrize("x", [2e-12, 5e-10, 8e-10])
def test_stop_just_past_k1_is_served_first(x):
    """A fire whose stop lies a hair past K1 on the opening leg sorts first
    and is parked at the lap's first step, not its last: its drive has no
    steps, every phase runs forward and the run passes."""
    result = run_mission(parse_config({"dt": 0.01, "fires": [
        {"ident": "F0", "position": [x, -0.30064, 0.3]},
        {"ident": "F1", "position": [0.3, 0.2, 0.3]}]}))
    phases = result.plan.phases
    assert all(p.start <= p.end for p in phases)
    assert [s.stop.fire.ident for s in result.plan.stage2] == ["F0", "F1"]
    [first] = [p for p in phases if p.label == "StageII.1.drive"]
    assert first.start == first.end
    assert all(np.isfinite(col).all() for col in result.log.values.values())
    assert result.report.verdict == "PASS"


@pytest.mark.parametrize("fy", [-0.6, 0.15, 0.9])
def test_reach_is_checked_where_the_arm_aims(fy):
    """Bisecting a fire's distance outside group 1's straight across the
    arm's outer reach, every plan either flags the fire or serves it with a
    joint reference that solves: reach is judged from the parking pose the
    arm then aims from."""
    near, far = 2.5, 3.0
    while far - near > 1e-12:
        d = 0.5 * (near + far)
        plan = plan_mission(parse_config({"dt": 0.01, "fires": [
            {"ident": "F1", "position": [1.80064 + d, fy, 0.3]}]}))
        if plan.flagged:
            far = d
        else:
            _arm_reference(plan, _chassis_reference(plan))
            near = d
    assert near > 2.5 and far < 3.0


# Fires anywhere, the half line x = 0, y < 0 through K1 included.
_FIRE_SETS = st.lists(
    st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
              st.floats(0.1, 0.6)),
    min_size=1, max_size=5).map(lambda xyz: [
        {"ident": "F%d" % k, "position": list(p)} for k, p in enumerate(xyz)])


def _moved_scene(spec, fires, shift):
    """spec with the circuit's centre, and so the crib, at shift and fires
    moved by it."""
    return dict(spec, circuit={"center": list(shift)}, fires=[
        dict(f, position=[f["position"][0] + shift[0],
                          f["position"][1] + shift[1], f["position"][2]])
        for f in fires])


def _plan_rows(plan, shift=(0.0, 0.0)):
    """A plan's phases, and its stops with the shift taken off their points
    and poses."""
    stops = [(s.fire.ident, s.nearest_a, s.group, s.step,
              s.point[0] - shift[0], s.point[1] - shift[1],
              s.pose[0] - shift[0], s.pose[1] - shift[1], s.pose[2])
             for s in plan.stops]
    return ([(p.start, p.end, p.label, p.lap_step, p.held, p.marks)
             for p in plan.phases], stops,
            [(f.ident, reason) for f, reason in plan.flagged])


@settings(max_examples=10, deadline=None)
@given(fires=_FIRE_SETS, data=st.data())
def test_fire_order_leaves_plan_and_log_unchanged(fires, data):
    """The stops are ordered by the lap, not by the list: permuting the
    fires gives the same plan and a byte-identical log."""
    permuted = data.draw(st.permutations(fires))
    runs = [run_mission(parse_config({"dt": 0.01, "fires": f}))
            for f in (fires, permuted)]
    assert _plan_rows(runs[0].plan) == _plan_rows(runs[1].plan)
    assert _log_digest(runs[0].log) == _log_digest(runs[1].log)


@settings(max_examples=100, deadline=None)
@given(fires=_FIRE_SETS)
@example(fires=[{"ident": "F0", "position": [0.0, 0.0, 0.5]}])
@example(fires=[{"ident": "F0", "position": [2.0, -0.9420389341250399, 0.5]},
                {"ident": "F1", "position": [1.0, -0.9420389341250399, 0.5]}])
@example(fires=[{"ident": "F0", "position": [0.0, -3.0, 0.5]}])
@example(fires=[{"ident": "F0", "position": [5e-16, -3.0, 0.5]}])
def test_moving_the_scene_moves_only_the_stops(fires):
    """Moving the circuit's centre and every fire by (10, -7) m keeps each
    phase's steps, labels and markers; the stops and their parking poses
    move by the shift.  A fire at the crib centre ties all eight marks
    within round-off and goes to A1 in both scenes; two fires that project
    onto one point keep their ident order; a fire on K1's line, whose stop
    lands on K1 give or take the shift's round-off, parks at lap step 0 in
    both scenes."""
    shift = (10.0, -7.0)
    base = _plan_rows(plan_mission(parse_config({"dt": 0.01,
                                                 "fires": fires})))
    other = _plan_rows(plan_mission(parse_config(_moved_scene(
        {"dt": 0.01}, fires, shift))), shift)
    assert other[0] == base[0]
    assert [f for f, _ in other[2]] == [f for f, _ in base[2]]
    assert [s[:4] for s in other[1]] == [s[:4] for s in base[1]]
    assert sorted(base[1], key=lambda s: (s[3], s[0])) == base[1]
    np.testing.assert_allclose([s[4:] for s in other[1]],
                               [s[4:] for s in base[1]], atol=1e-9)


@pytest.mark.parametrize("shift", [(10.0, -7.0), (-3.5, 2.25)])
def test_moving_the_scene_moves_the_log_by_the_shift(shift):
    """Moving the circuit's centre, and so the crib, and the stock fires by
    shift leaves the state labels, the event cells and both stage times
    identical, keeps q within 1e-12 rad (measured 4.7e-15) and moves tgtX
    and tgtY by the shift within 1e-9 m (measured 3.6e-15).  The chassis
    columns are left out: X moves by up to 1.7e-5 m, chassis chatter that
    only a switch kept inside its sampled band would bound.

    The run is at dt 2 ms, not 10 ms.  At 10 ms the shift's round-off in
    q_r, about 4e-15 rad, passes 1e-12 rad in q from row 82 of
    StageI.1.sweep and grows to 2.0e-3 rad (6.1e-4 rad at 5 ms): there the
    arm's switch gain times the step, K T = 0.05, exceeds its boundary
    layer phi = 0.01, so the sampled switch is unstable inside the layer."""
    fires = [{"ident": f.ident, "position": f.position}
             for f in ScenarioConfig().fires]
    base = run_mission(parse_config({"dt": 0.002}))
    other = run_mission(parse_config(_moved_scene({"dt": 0.002}, fires,
                                                  shift)))
    assert other.log.state == base.log.state
    assert other.log.event == base.log.event
    assert other.report.stage1_time == base.report.stage1_time
    assert other.report.stage2_time == base.report.stage2_time
    for k in ("q1", "q2", "q3", "q4"):
        np.testing.assert_allclose(other.log.values[k], base.log.values[k],
                                   rtol=0, atol=1e-12, err_msg=k)
    for k, d in zip(("tgtX", "tgtY"), shift):
        np.testing.assert_allclose(other.log.values[k] - d,
                                   base.log.values[k], rtol=0, atol=1e-9,
                                   err_msg=k)


def test_raising_the_discharge_time_never_fails_a_pass():
    """The discharge time is the verdict's budget and nothing else: raising
    fire_test.discharge_time from the stock 15 s, a PASS, to 40 s keeps the
    PASS and leaves the log's columns, labels and events identical, with
    only the discharge_time metadata line changed, and every metric but
    the budget itself."""
    low, high = (run_mission(parse_config(
        {"dt": 0.01, "fire_test": {"discharge_time": seconds}}))
        for seconds in (15.0, 40.0))
    assert (low.report.verdict, high.report.verdict) == ("PASS", "PASS")
    assert _log_digest(high.log) == _log_digest(low.log)
    lines = [set(run.log._meta_lines().splitlines()) for run in (low, high)]
    assert lines[0] ^ lines[1] == {"#discharge_time=15.0",
                                   "#discharge_time=40.0"}
    assert dataclasses.replace(low.report, discharge_time=40.0) == high.report


STOCK_LOG_DIGEST = ("e8581ab69a2f3324dd49a3e7a3ab292ea7949bf4f80b90d34bc38f52"
                    "a5ec8a6f")
EULER_NOISE_LOG_DIGEST = ("5bb82ba4869daf4f968d68633e26b046587bc42240829c86a8d"
                          "f82b694c53b69")


def _log_digest(log) -> str:
    """sha256 of a log, hashed as perfbench/run.py's log_digest does."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(log.time, dtype="<f8").tobytes())
    for name in sorted(log.values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(log.values[name], dtype="<f8").tobytes())
    h.update("\n".join(log.state).encode())
    h.update(b"\0")
    h.update("\n".join(log.event).encode())
    return h.hexdigest()


def test_stock_log_digest(default_mission):
    """The stock run's log digest.  A change that moves what the simulated
    robot does updates this value."""
    assert _log_digest(default_mission[0].log) == STOCK_LOG_DIGEST


def test_euler_noise_log_digest():
    """The log digest of perfbench's euler_noise_mission at seed 1: Euler
    steps under seeded noise at the bound, the disturbance path the stock
    run leaves idle."""
    log = run_mission(parse_config({
        "integrator": "euler",
        "disturbance": {"kind": "noise", "amplitude": [0.1, 0.1],
                        "seed": 1}})).log
    assert _log_digest(log) == EULER_NOISE_LOG_DIGEST


def test_log_shape_and_grid(default_mission):
    result, _ = default_mission
    log = result.log
    plan = result.plan
    assert log.n_rows == plan.n_steps + 1
    np.testing.assert_allclose(log.time,
                               np.arange(log.n_rows) * plan.dt, atol=1e-12)
    assert set(log.values) == set(CSV_NUMERIC)
    assert len(log.state) == log.n_rows == len(log.event)
    # The log's state column holds the phase labels.
    assert log.state[0].startswith("StageI.1")
    assert log.state[-1] == "End"
    assert "start" in log.event[0] and "end" in log.event[-1]


def test_csv_round_trip_bit_exact(default_mission, tmp_path):
    result, _ = default_mission
    path = tmp_path / "run.csv"
    write_log(result.log, path)
    again = SimLog.from_csv(path)
    np.testing.assert_array_equal(again.time, result.log.time)
    for key in CSV_NUMERIC:
        np.testing.assert_array_equal(again.values[key],
                                      result.log.values[key])
    assert again.state == result.log.state
    assert again.event == result.log.event
    assert again.meta == result.log.meta
    assert again.meta["integrator"] == "midpoint"


def test_metrics_recompute_from_csv_equal(default_mission, tmp_path):
    result, _ = default_mission
    path = tmp_path / "run.csv"
    write_log(result.log, path)
    again = compute_metrics(SimLog.from_csv(path))
    import dataclasses
    a = dataclasses.asdict(result.report)
    b = dataclasses.asdict(again)
    assert a == b


def test_from_csv_error_handling(tmp_path):
    def message(path, exc_type):
        with pytest.raises(exc_type) as info:
            SimLog.from_csv(path)
        return str(info.value)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("#dt=0.001\nnot,the,header\n")
    assert message(bad_header, ParseError) == "line 2: unexpected header"

    empty = tmp_path / "e.csv"
    empty.write_text(",".join(CSV_COLUMNS) + "\n")
    assert message(empty, EmptyLog) == "log file has no data rows"

    bad_meta = tmp_path / "m.csv"
    bad_meta.write_text("#oops\n" + ",".join(CSV_COLUMNS) + "\n")
    assert message(bad_meta, ParseError) == "line 1: bad metadata line"

    short_row = tmp_path / "s.csv"
    short_row.write_text(",".join(CSV_COLUMNS) + "\n0.0,Home,1.0\n")
    assert (message(short_row, ParseError)
            == "line 2: expected 35 cells, got 3")

    alpha = tmp_path / "a.csv"
    row = ["0.0", "Home"] + ["x"] * len(CSV_NUMERIC) + [""]
    alpha.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
    assert (message(alpha, ParseError)
            == "line 2: could not convert string to float: 'x'")

    nothing = tmp_path / "n.csv"
    nothing.write_text("")
    assert message(nothing, ParseError) == "no header line found"


def _reference_csv(log, path, cell=repr):
    """A cell-by-cell writer of log, each float cell spelled by cell (float
    metadata as repr(float(value))).  With repr it writes the spelling of
    logs from before the writer took orjson's, kept to show those still
    read."""
    with open(path, "w") as fh:
        for key, value in log.meta.items():
            fh.write("#%s=%s\n" % (key, repr(float(value)) if isinstance(
                value, float) else value))
        fh.write(",".join(CSV_COLUMNS) + "\n")
        cols = [log.values[k] for k in CSV_NUMERIC]
        for i in range(log.n_rows):
            cells = [cell(float(log.time[i])), log.state[i]]
            cells += [cell(float(c[i])) for c in cols]
            cells.append(log.event[i])
            fh.write(",".join(cells) + "\n")


def _orjson_cell(x):
    """orjson's text for one Python float, repr's for a non-finite one."""
    return orjson.dumps(x).decode() if math.isfinite(x) else repr(x)


def _odd_log(n_rows):
    """A log whose first rows hold the float values hardest to round-trip,
    with a # in some state and event cells."""
    odd = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, math.inf, -math.inf,
           math.nan, 1.0, -2.5e-300]
    rng = np.random.default_rng(7)
    values = {}
    for j, key in enumerate(CSV_NUMERIC):
        col = rng.normal(scale=10.0 ** (j % 7 - 3), size=n_rows)
        col[:len(odd)] = np.roll(odd, j)[:n_rows]
        values[key] = col
    return SimLog({"dt": 0.001, "n_stops": 2, "flagged": "F1;F2"},
                  np.arange(n_rows) * 0.001, ["S%d" % (i % 3) if i % 4 else
                                              "S#%d" % i for i in
                                              range(n_rows)],
                  values, ["" if i % 5 else "ev#%d" % i for i in range(n_rows)])


# One short block, and the edge after four full blocks, so the writer's and
# the reader's block offsets must carry across several blocks.
BLOCK_EDGES = [1, 4 * simulate._BLOCK_ROWS - 1, 4 * simulate._BLOCK_ROWS,
               4 * simulate._BLOCK_ROWS + 1]


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
def test_to_csv_matches_cell_by_cell_writer(tmp_path, n_rows):
    """The block writer behind export's timeseries.csv writes the same
    bytes as a cell-by-cell writer of orjson's text for each float (repr's
    for a non-finite one), across the block edges."""
    log = _odd_log(n_rows)
    write_log(log, tmp_path / "block.csv")
    _reference_csv(log, tmp_path / "cell.csv", _orjson_cell)
    assert ((tmp_path / "block.csv").read_bytes()
            == (tmp_path / "cell.csv").read_bytes())


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
def test_from_csv_reads_repr_spelled_logs_bit_equal(tmp_path, n_rows):
    """Logs written in repr's spelling (1e+16, 1e-05, -2.5e-300) still read
    back bit for bit."""
    log = _odd_log(n_rows)
    _reference_csv(log, tmp_path / "repr.csv")
    _assert_same_log(SimLog.from_csv(tmp_path / "repr.csv"), log)


# The committed text of each edge float, one file cell each.  An orjson
# upgrade that spells any of them otherwise changes every artifact.
SPELLING = [
    (1e16, "1e16"), (1.2e-05, "0.000012"), (1e-07, "1e-7"), (-0.0, "-0.0"),
    (0.0, "0.0"), (1.0, "1.0"), (5e-324, "5e-324"), (1e-05, "0.00001"),
    (np.nextafter(1e-05, 0.0), "9.999999999999999e-6"),
    (np.nextafter(1e-05, 1.0), "0.000010000000000000003"),
    (1e-04, "0.0001"), (np.nextafter(1e-04, 0.0), "0.00009999999999999999"),
    (np.nextafter(1e-04, 1.0), "0.00010000000000000002"),
    (0.1 + 0.2, "0.30000000000000004"), (1e15, "1000000000000000.0"),
    (1.2345678901234568e+17, "1.2345678901234568e17"),
    (-2.5e-300, "-2.5e-300"),
    (np.finfo(float).max, "1.7976931348623157e308"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")]


def test_writer_spells_edge_floats_as_committed(tmp_path):
    values, text = zip(*SPELLING)
    n = len(values)
    log = SimLog({}, np.zeros(n), ["S"] * n,
                 {k: np.array(values) for k in CSV_NUMERIC}, [""] * n)
    simulate._write_table(log, tmp_path / "x.csv", ["X"])
    assert (tmp_path / "x.csv").read_text().split("\n") == ["X", *text, ""]


def _assert_same_floats(got, want):
    """got and want hold the same floats bit for bit, NaN matching any
    NaN (a NaN's sign and payload are not written)."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _assert_written_cells_round_trip(path, values, n_rows=None):
    """Lay values, cycled, over the time and CSV_NUMERIC cells of a log of
    n_rows rows (by default just enough for them all), whose columns are
    strided views of one row-major table as a run's are; write it as
    export writes timeseries.csv, and check that every numeric cell parses
    back to its float through float() and through SimLog.from_csv."""
    a = np.asarray(values, dtype=float)
    width = len(CSV_COLUMNS) - 2
    n_rows = n_rows or -(-a.size // width)
    table = np.resize(a, (n_rows, width))
    log = SimLog({}, table[:, 0], ["S"] * n_rows,
                 dict(zip(CSV_NUMERIC, table[:, 1:].T)), [""] * n_rows)
    write_log(log, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    _assert_same_floats(np.array([[float(c) for c in [r[0], *r[2:-1]]]
                                  for r in rows]), table)
    again = SimLog.from_csv(path)
    _assert_same_floats(np.column_stack(
        [again.time, *(again.values[k] for k in CSV_NUMERIC)]), table)


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(), min_size=1, max_size=300))
def test_written_cells_round_trip_any_float(tmp_path, values):
    _assert_written_cells_round_trip(tmp_path / "run.csv", values)


def test_written_cells_round_trip_random_bits_and_edges(tmp_path):
    path = tmp_path / "run.csv"
    bits = np.random.default_rng(11).integers(0, 2 ** 64, 200_000,
                                              dtype=np.uint64)
    _assert_written_cells_round_trip(path, bits.view(np.float64))
    edges = [0.0, -0.0, 5e-324, np.finfo(float).max, math.inf, math.nan]
    for x in (1e-5, 1e-4, 1e16):
        edges += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    # orjson writes the decade [1e-5, 1e-4) in fixed notation: one digit,
    # 17 digits, and draws across the decade, which random bits reach
    # about once in 500.
    edges += [float("%de-05" % d) for d in range(1, 10)]
    edges += [1.2345678901234567e-05, np.nextafter(2e-05, 1.0)]
    edges += [-x for x in edges]
    for n_rows in BLOCK_EDGES:
        _assert_written_cells_round_trip(path, edges, n_rows)
    draws = np.random.default_rng(12).uniform(1e-5, 1e-4, 200_000)
    _assert_written_cells_round_trip(path, np.concatenate([draws, -draws]))
    # A strided view takes the same text.
    _assert_written_cells_round_trip(path, np.array(edges)[::2])


def _assert_same_log(again, log):
    assert again.time.tobytes() == log.time.tobytes()
    for key in CSV_NUMERIC:
        assert again.values[key].tobytes() == log.values[key].tobytes(), key
    assert again.state == log.state
    assert again.event == log.event
    assert again.meta == log.meta


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
def test_from_csv_reads_odd_values_bit_equal(tmp_path, n_rows):
    log = _odd_log(n_rows)
    path = tmp_path / "run.csv"
    write_log(log, path)
    _assert_same_log(SimLog.from_csv(path), log)

    # Blank lines in the body are skipped, also across block edges.
    lines = path.read_text().split("\n")
    header = lines.index(",".join(CSV_COLUMNS))
    for at in sorted({header + 1, header + 2, len(lines) - 1,
                      header + simulate._BLOCK_ROWS}, reverse=True):
        lines.insert(min(at, len(lines)), "")
    path.write_text("\n".join(lines))
    _assert_same_log(SimLog.from_csv(path), log)


BAD_CELLS = {
    "float": (lambda cells: cells[:5] + ["x"] + cells[6:],
              "could not convert string to float: 'x'"),
    "short": (lambda cells: cells[:3] + cells[4:],
              "expected 35 cells, got 34"),
    "long": (lambda cells: cells[:3] + ["1.0"] + cells[3:],
             "expected 35 cells, got 36"),
}


def _broken_log(path, breaks, blank):
    """Write a valid log of a little over two blocks, then apply breaks,
    a {line number: BAD_CELLS key} map; with blank, an empty line first
    goes in near the top of the body.  Returns the header's line number."""
    write_log(_odd_log(2 * simulate._BLOCK_ROWS + 20), path)
    lines = path.read_text().split("\n")
    header = lines.index(",".join(CSV_COLUMNS)) + 1
    if blank:
        lines.insert(header + 3, "")
    for lineno, bad in breaks(header).items():
        cells = lines[lineno - 1].split(",")
        lines[lineno - 1] = ",".join(BAD_CELLS[bad][0](cells))
    path.write_text("\n".join(lines))
    return header


@pytest.mark.parametrize("blank", [False, True])
@pytest.mark.parametrize("bad", sorted(BAD_CELLS))
def test_from_csv_names_bad_line_past_first_block(tmp_path, bad, blank):
    path = tmp_path / "run.csv"
    target = simulate._BLOCK_ROWS + 5
    header = _broken_log(path, lambda h: {h + target: bad}, blank)
    with pytest.raises(ParseError) as info:
        SimLog.from_csv(path)
    assert str(info.value) == "line %d: %s" % (header + target,
                                               BAD_CELLS[bad][1])


@pytest.mark.parametrize("first, later", [("float", "short"),
                                          ("long", "float")])
def test_from_csv_names_earliest_bad_line_in_block(tmp_path, first, later):
    path = tmp_path / "run.csv"
    target = simulate._BLOCK_ROWS + 5
    header = _broken_log(path, lambda h: {h + target: first,
                                          h + target + 3: later}, False)
    with pytest.raises(ParseError) as info:
        SimLog.from_csv(path)
    assert str(info.value) == "line %d: %s" % (header + target,
                                               BAD_CELLS[first][1])


def test_from_csv_rejects_underscore_digits(tmp_path):
    """float() takes 1_0 but the reader does not, as np.loadtxt did not;
    the line is still named."""
    path = tmp_path / "run.csv"
    write_log(_odd_log(3), path)
    lines = path.read_text().split("\n")
    header = lines.index(",".join(CSV_COLUMNS)) + 1
    row = lines[header + 1]
    lines[header + 1] = "1_0" + row[row.index(","):]
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="^line %d: " % (header + 2)):
        SimLog.from_csv(path)


def test_from_csv_memory_stays_near_its_arrays(tmp_path):
    """Reading holds no per-cell Python floats and no per-row label strings:
    the state list holds one string per distinct label, and the traced peak
    stays under 1.4 times the arrays returned (1.26 measured on CPython
    3.11; 1.48 with a string per row)."""
    n = 10_000
    rng = np.random.default_rng(3)
    log = SimLog({"dt": 0.001}, np.arange(n) * 0.001,
                 ["StageI.%d" % (i % 4) for i in range(n)],
                 {k: rng.normal(size=n) for k in CSV_NUMERIC},
                 ["" if i % 50 else "ev" for i in range(n)])
    path = tmp_path / "run.csv"
    write_log(log, path)
    tracemalloc.start()
    try:
        again = SimLog.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = again.time.nbytes + sum(v.nbytes for v in again.values.values())
    assert len(set(map(id, again.state))) == len(set(again.state)) == 4
    assert peak < 1.4 * arrays


def test_export_memory_stays_flat_in_log_length(default_mission, tmp_path):
    """export writes _BLOCK_ROWS rows at a time: its traced peak on a log of
    16 blocks stays within 10% of its peak on a log of 4."""
    peaks = []
    for blocks in (4, 16):
        log = _plain_log(blocks * simulate._BLOCK_ROWS)
        result = dataclasses.replace(default_mission[0], log=log)
        tracemalloc.start()
        try:
            export(result, tmp_path / str(blocks))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def _plain_log(n_rows):
    """A log of finite random values, every cell of which the JSON parse
    takes."""
    rng = np.random.default_rng(5)
    return SimLog({"dt": 0.001}, np.arange(n_rows) * 0.001,
                  ["S%d" % (i % 3) for i in range(n_rows)],
                  {k: rng.normal(size=n_rows) for k in CSV_NUMERIC},
                  ["" if i % 50 else "ev" for i in range(n_rows)])


def _set_cells(path, row, cells):
    """Rewrite data row row of the log at path with cells, a {column name:
    text} map; returns that row's line number."""
    lines = path.read_text().split("\n")
    lineno = lines.index(",".join(CSV_COLUMNS)) + 2 + row
    old = lines[lineno - 1].split(",")
    for name, text in cells.items():
        old[CSV_COLUMNS.index(name)] = text
    lines[lineno - 1] = ",".join(old)
    path.write_text("\n".join(lines))
    return lineno


def test_from_csv_reads_the_writers_text_without_the_block_parse(
        tmp_path, monkeypatch):
    """Every batch of the writer's text is read by the JSON parse: the
    row-by-row read never parses a cell."""
    log = _plain_log(simulate._BLOCK_ROWS + 20)
    write_log(log, tmp_path / "run.csv")

    def cell_parse(cell):
        raise AssertionError("row-by-row read taken")

    monkeypatch.setattr(simulate, "_float_cell", cell_parse)
    _assert_same_log(SimLog.from_csv(tmp_path / "run.csv"), log)


@pytest.mark.parametrize("row", [5, simulate._JSON_ROWS + 5,
                                 4 * simulate._BLOCK_ROWS + 5])
@pytest.mark.parametrize("cell", ['"1.5"', "true", "null"])
def test_from_csv_names_cells_json_reads_but_float_does_not(tmp_path, cell,
                                                            row):
    """orjson reads these cells (np.fromiter would then take them as 1.5,
    1.0 and nan); the line is named as float() words it."""
    path = tmp_path / "run.csv"
    write_log(_plain_log(4 * simulate._BLOCK_ROWS + 20), path)
    lineno = _set_cells(path, row, {"q2": cell})
    with pytest.raises(ParseError) as info:
        SimLog.from_csv(path)
    assert str(info.value) == ("line %d: could not convert string to float: "
                               "%r" % (lineno, cell))


def test_from_csv_reads_integer_spelled_cells_as_float(tmp_path):
    """orjson reads -0 and 1 as ints, and -0 without its sign; both read
    back as float() reads them."""
    path = tmp_path / "run.csv"
    log = _plain_log(simulate._JSON_ROWS + 20)
    write_log(log, path)
    row = simulate._JSON_ROWS + 3
    _set_cells(path, row, {"time": "1", "X": "-0", "tgtZ": "1"})
    log.time[row], log.values["X"][row], log.values["tgtZ"][row] = (
        1.0, -0.0, 1.0)
    again = SimLog.from_csv(path)
    _assert_same_log(again, log)
    assert np.signbit(again.values["X"][row])


def test_from_csv_rejects_cells_that_nest_the_json_array(tmp_path):
    path = tmp_path / "run.csv"
    write_log(_plain_log(20), path)
    lineno = _set_cells(path, 4, {"e1": "[1.0", "e2": "2.0]"})
    with pytest.raises(ParseError) as info:
        SimLog.from_csv(path)
    assert str(info.value) == ("line %d: could not convert string to float: "
                               "'[1.0'" % lineno)


_REPR_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_CELLS = st.one_of(
    st.sampled_from(["-0", "0", "1", "-0.0", "1E5", "1.e5", "01.5", "-.5",
                     "+1", ".5", "1_0", "nan", "-inf", "inf", "1e400",
                     "-1e400", "1e-400", "-1e-400", "1.0e+05", "1e-07",
                     '"1.5"', "true", "null", "[1.0", "2.0]", "x", ""]),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.text("0123456789", min_size=30, max_size=30).map(
        lambda d: "%s.%s" % (d[:7], d[7:])),
    st.floats().map(repr),
    st.tuples(st.sampled_from(["", " ", "\t", "  "]), _REPR_CELLS,
              st.sampled_from(["", " ", "\t"])).map("".join))


@st.composite
def _numeric_rows(draw):
    """1-3 rows of time and CSV_NUMERIC cell text: up to eight repr floats
    repeated, with up to three cells replaced by other spellings."""
    n_rows = draw(st.integers(1, 3))
    width = len(CSV_NUMERIC) + 1
    pool = draw(st.lists(_REPR_CELLS, min_size=1, max_size=8))
    cells = [pool[i % len(pool)] for i in range(n_rows * width)]
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
        cells[i] = draw(_ODD_CELLS)
    return [cells[a:a + width] for a in range(0, len(cells), width)]


def _read_or_message(path):
    try:
        log = SimLog.from_csv(path)
    except ParseError as exc:
        return str(exc)
    return log.time.tobytes() + b"".join(log.values[k].tobytes()
                                         for k in CSV_NUMERIC)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_numeric_rows())
def test_json_parse_equals_block_parse(tmp_path, monkeypatch, rows):
    """Each drawn block reads to a bit-equal table or fails with the same
    message, with or without the JSON parse (without it, every batch is
    read row by row)."""
    path = tmp_path / "run.csv"
    path.write_text("\n".join(
        [",".join(CSV_COLUMNS)]
        + [",".join([r[0], "S"] + r[1:] + [""]) for r in rows]) + "\n")
    fast = _read_or_message(path)
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_json_cells", lambda text, out: False)
        assert _read_or_message(path) == fast


# Cells np.loadtxt and float() read apart: whitespace float() keeps but
# str.strip takes (non-ASCII spaces, the ASCII separators \x1c-\x1f), digit
# separators and non-ASCII digits.
_UNICODE_CELLS = st.one_of(
    st.tuples(st.sampled_from(["", "\u2003", "\u00a0", "\u3000", "\x1c",
                               "\x1f", " \u2003"]), _REPR_CELLS,
              st.sampled_from(["", "\u2003", "\u00a0", "\x1d", "\t"])).map(
        "".join),
    st.sampled_from(["1_0", "1_000.5", "_1", "1__0", "\u0661", "\u0663.\u0665",
                     "\uff11", "1\u0660", "\u0966.5", "1e\u0665", "\u200b1",
                     "1\ufeff"]))


def _loadtxt_cells(line):
    """The time and CSV_NUMERIC cells of one data row as numpy's C
    tokenizer reads them; ValueError if it rejects one.  No # starts a
    comment: a state or event cell may hold one."""
    return np.loadtxt([line], delimiter=",", comments=None, ndmin=2,
                      usecols=[0, *range(2, len(CSV_COLUMNS) - 1)])[0]


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=st.one_of(_ODD_CELLS, _UNICODE_CELLS),
       column=st.integers(0, len(CSV_NUMERIC)))
def test_row_by_row_read_equals_loadtxt(tmp_path, monkeypatch, cell, column):
    """A cell in any numeric column reads bit-equal by the row-by-row read
    and by np.loadtxt, or both reject it."""
    cells = ["0.5"] * (len(CSV_NUMERIC) + 1)
    cells[column] = cell
    line = ",".join([cells[0], "S", *cells[1:], ""])
    path = tmp_path / "run.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + line + "\n",
                    encoding="utf-8")
    monkeypatch.setattr(simulate, "_json_cells", lambda text, out: False)
    try:
        want = _loadtxt_cells(line)
    except ValueError:
        with pytest.raises(ParseError, match="^line 2: "):
            SimLog.from_csv(path)
        return
    log = SimLog.from_csv(path)
    got = np.array([log.time[0], *(log.values[k][0] for k in CSV_NUMERIC)])
    assert got.tobytes() == want.tobytes()


def test_from_csv_reads_non_finite_cells_in_every_batch(tmp_path):
    """A non-finite cell in the first and the last row of every batch of
    _JSON_ROWS lines, with a blank line in the body, sends every batch to
    the row-by-row read; the log still reads back bit-equal."""
    n_rows = 4 * simulate._BLOCK_ROWS + 30
    blank = 3 * simulate._JSON_ROWS + 50  # body line left blank
    line_rows = [*range(blank), None, *range(blank, n_rows)]
    edges = []
    for a in range(0, len(line_rows), simulate._JSON_ROWS):
        batch = [r for r in line_rows[a:a + simulate._JSON_ROWS]
                 if r is not None]
        edges += [batch[0], batch[-1]]
    log = _plain_log(n_rows)
    odd = [math.nan, math.inf, -math.inf]
    for k, row in enumerate(edges):
        log.values[CSV_NUMERIC[k % len(CSV_NUMERIC)]][row] = odd[k % 3]
    path = tmp_path / "run.csv"
    write_log(log, path)
    lines = path.read_text().split("\n")
    lines.insert(lines.index(",".join(CSV_COLUMNS)) + 1 + blank, "")
    path.write_text("\n".join(lines))
    _assert_same_log(SimLog.from_csv(path), log)


def test_flagged_ident_round_trips_as_text(tmp_path):
    """A fire out of reach is flagged and its ident logged; an ident that
    reads as a number, such as 007, comes back from the exported
    timeseries.csv as the same text."""
    result = run_mission(parse_config({
        "dt": 0.01, "fires": [{"position": [5, 5, 0.3], "ident": "007"}]}))
    assert result.log.meta["flagged"] == "007"
    export(result, tmp_path)
    again = SimLog.from_csv(tmp_path / "timeseries.csv")
    assert again.meta == result.log.meta


def test_files_are_utf8_under_the_c_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, where open() defaults to
    ASCII, a fire ident 火 loads from a scenario file and a log flagging it
    round-trips through the log writer and from_csv as UTF-8."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("fires:\n- {position: [5, 5, 0.3], ident: 火}\n",
                        encoding="utf-8")
    script = (
        "import sys\n"
        "from mobman.config import load_config\n"
        "from mobman.simulate import SimLog\n"
        "from oracles import write_log\n"
        "from test_simulate import _synthetic_log\n"
        "assert load_config(sys.argv[1]).fires[0].ident == '\\u706b'\n"
        "log = _synthetic_log()\n"
        "log.meta['flagged'] = '\\u706b'\n"
        "write_log(log, sys.argv[2])\n"
        "assert SimLog.from_csv(sys.argv[2]).meta == log.meta\n")
    roots = [pathlib.Path(simulate.__file__).parents[1],
             pathlib.Path(__file__).parent]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(map(str, roots)))
    log_path = tmp_path / "run.csv"
    done = subprocess.run(
        [sys.executable, "-c", script, str(scenario), str(log_path)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "#flagged=火\n" in log_path.read_text(encoding="utf-8")


def test_numpy_float_metadata_round_trips(tmp_path):
    log = _synthetic_log()
    log.meta["dt"] = np.float64(0.001)
    write_log(log, tmp_path / "run.csv")
    assert "#dt=0.001\n" in (tmp_path / "run.csv").read_text()
    again = SimLog.from_csv(tmp_path / "run.csv")
    assert type(again.meta["dt"]) is float and again.meta["dt"] == 0.001


def _metrics_meta(config, **meta) -> dict:
    """Every metadata key compute_metrics reads, as run_mission writes it
    for config with no stops, updated by meta."""
    return {"dt": config.dt,
            "discharge_time": config.fire_test.discharge_time,
            "stage2_budget": config.fire_test.stage2_budget,
            "band_e1_mm": config.band.e1_mm, "band_e2_mm": config.band.e2_mm,
            "band_e3_deg": config.band.e3_deg, "n_stops": 0, "n_flagged": 0,
            **meta}


def _synthetic_log(discharge=15.0):
    """Hand-choreographed 13-row log: four 2-s edges, 1-s corners and a
    constant 2 mm tool error on the first sweep window."""
    n = 13
    meta = _metrics_meta(ScenarioConfig(), dt=1.0, discharge_time=discharge)
    values = {k: np.zeros(n) for k in CSV_NUMERIC}
    values["eeX"] += 0.002
    events = [""] * n
    marks = {0: "K1;sweep1_start", 1: "A8", 2: "A1;sweep1_end", 3: "K2",
             4: "A2", 5: "A3", 6: "K3", 7: "A4", 8: "A5", 9: "K4",
             10: "A6", 11: "A7", 12: "K5"}
    for i, name in marks.items():
        events[i] = name
    return SimLog(meta, np.arange(n, dtype=float), ["x"] * n, values, events)


def test_metrics_on_synthetic_log():
    report = compute_metrics(_synthetic_log())
    assert report.edge_times == pytest.approx([2.0] * 4)
    assert report.corner_times == pytest.approx([1.0] * 4)
    assert report.stage1_time == pytest.approx(8.0)
    assert report.stage1_wall_time == pytest.approx(12.0)
    assert report.mission_total_time == pytest.approx(8.0)
    assert report.verdict == "PASS"
    assert report.ee_avg_abs_err_mm[0] == pytest.approx(2.0)
    assert report.ee_avg_abs_err_mm[1] == 0.0
    assert report.ee_window_samples == 3
    assert report.convergence_time == 0.0
    assert report.chatter_index == 0.0

    tight = compute_metrics(_synthetic_log(discharge=5.0))
    assert tight.verdict == "FAIL"


def test_metrics_name_a_missing_spray_start():
    """A spray end with neither its start nor its stop's arrival marker
    leaves the dwell without a start: a ParseError names the start marker.
    With the arrival alone, the dwell starts there."""
    log = _synthetic_log()
    log.event[10] = "A6;spray1_end"
    with pytest.raises(ParseError, match="^marker spray1_start: missing$"):
        compute_metrics(log)
    log.event[8] = "A5;stop1_arrive"
    assert compute_metrics(log).stage2_time == 2.0


def test_metrics_empty_log_raises():
    log = _synthetic_log()
    log.time = np.array([])
    log.state = []
    log.event = []
    log.values = {k: np.array([]) for k in CSV_NUMERIC}
    with pytest.raises(EmptyLog):
        compute_metrics(log)


def test_export_writes_all_artifacts(default_mission, tmp_path):
    result, _ = default_mission
    paths = export(result, tmp_path)
    assert [p.split("/")[-1] for p in map(str, paths)] == [
        "timeseries.csv", "metrics.json", "trajectory.csv",
        "tracking_errors.csv", "joint_torques.csv", "wheel_speeds.csv"]
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["verdict"] == result.report.verdict

    _assert_subsets_cut_from_timeseries(tmp_path, result.log.n_rows)


def test_export_subsets_match_timeseries_on_odd_values(default_mission,
                                                       tmp_path):
    """On a log holding inf, NaN, -0.0, the [1e-5, 1e-4) decade and # in
    its labels, each subset file's cell is still the timeseries.csv cell."""
    log = _odd_log(simulate._BLOCK_ROWS + 1)
    export(dataclasses.replace(default_mission[0], log=log), tmp_path)
    _assert_subsets_cut_from_timeseries(tmp_path, log.n_rows)


def _assert_subsets_cut_from_timeseries(directory, n_rows):
    """Each subset export writes is its columns cut from the same rows of
    timeseries.csv."""
    lines = (directory / "timeseries.csv").read_text().splitlines()
    lines = [line for line in lines if not line.startswith("#")]
    full = [line.split(",") for line in lines[1:]]
    assert len(full) == n_rows
    subsets = {"trajectory.csv": ["X", "Y", "phi"],
               "tracking_errors.csv": ["e1", "e2", "e3", "s1", "s2"],
               "joint_torques.csv": ["tau1", "tau2", "tau3", "tau4"],
               "wheel_speeds.csv": ["vL", "vR"]}
    for name, fields in subsets.items():
        head, *rows = (directory / name).read_text().splitlines()
        assert head == ",".join(["time"] + fields)
        index = [CSV_COLUMNS.index(c) for c in ["time"] + fields]
        assert rows == [",".join(cells[k] for k in index) for cells in full]


def test_run_line_scenario_on_reference_is_quiet():
    """Started on the reference the loop only chatters at the rounding
    floor: the pure switching term reacts to 1-ulp pose mismatch, which
    bounds the forward error at a few microns and leaves the decoupled
    channels exactly quiet."""
    out = run_line_scenario(ChassisControlConfig(), duration=0.5, dt=1e-3)
    assert np.abs(out["e1"]).max() < 1e-5
    assert np.abs(out["e2"]).max() == 0.0
    assert np.abs(out["e3"]).max() == 0.0
    # The forward command is the 0.2 switching floor plus small slope and
    # reaching contributions driven by the micron-scale surface value.
    assert np.abs(out["u1"]).max() < 0.25
    assert np.abs(out["u2"]).max() == 0.0


def test_unreachable_sweep_sample_is_named():
    """A sweep lifted out of reach fails while the joint reference is
    planned, naming the sweep, the sample and its time."""
    with pytest.raises(Unreachable) as err:
        run_mission(parse_config({"sweep": {"base_height": 5.0}}))
    assert str(err.value).startswith("sweep 1 sample 0 (t=0.0000 s): ")


def test_unreachable_mid_sweep_sample_is_named():
    """A raster that leaves the workspace partway through a sweep names the
    first sample out of range, counted from the run's start: in sweep 1 of
    the run, and in sweep 3 once the two sweeps before it are dropped."""
    config = parse_config({"sweep": {"base_height": 1.4}})
    with pytest.raises(JointLimitViolation) as err:
        run_mission(config)
    assert str(err.value) == ("sweep 1 sample 593 (t=0.5930 s): theta3 = "
                              "15.501120 deg outside [-120.00, 15.50] deg")
    plan = plan_mission(config)
    plan.phases = [dataclasses.replace(p, spray=None)
                   if isinstance(p.spray, SweepPath)
                   and p.spray.edge_index < 3 else p for p in plan.phases]
    with pytest.raises(JointLimitViolation) as err:
        _arm_reference(plan, _chassis_reference(plan))
    assert str(err.value) == ("sweep 3 sample 8291 (t=8.2910 s): theta3 = "
                              "15.501120 deg outside [-120.00, 15.50] deg")


def test_arm_reference_solves_sweep_targets():
    """In every sweep window the joint reference puts the tool on the sweep
    point seen from the reference chassis pose, and the reference rates are
    the central differences of the joint samples."""
    plan = plan_mission(ScenarioConfig())
    refs = _chassis_reference(plan)
    qr, qdr, _ = _arm_reference(plan, refs)
    for p in plan.phases:
        if not isinstance(p.spray, SweepPath):
            continue
        a, b, sweep = p.start, p.end, p.spray
        steps = np.arange(a, b + 1, 97)
        points = sweep.positions_at((steps - a) * plan.dt)
        for i, point in zip(steps, points):
            pose = refs[i, :3].tolist()
            local = target_in_base_frame(pose, point, sweep.pitch)
            tool = forward_kinematics(qr[i], plan.geometry)
            np.testing.assert_allclose([tool.x, tool.y, tool.z],
                                       [local.x, local.y, local.z], atol=1e-9)
            assert tool.phi == pytest.approx(local.phi, abs=1e-12)
    np.testing.assert_allclose(qdr[1:-1], (qr[2:] - qr[:-2]) / (2 * plan.dt),
                               rtol=1e-12, atol=1e-12)


def test_halving_the_step_leaves_mission_metrics(default_mission):
    """Halving dt to 0.5 ms keeps the verdict PASS, Stage I's time to 1e-9 s
    and the mission's within 1%, and each axis's average tool error under
    5 mm.  The torque figures are not compared: their peaks grow as dt
    shrinks."""
    result, _ = default_mission
    fine = run_mission(ScenarioConfig(dt=0.0005))
    a, b = result.report, fine.report
    assert b.verdict == a.verdict == "PASS"
    assert abs(b.stage1_time - a.stage1_time) / a.stage1_time < 0.01
    assert abs(b.mission_total_time - a.mission_total_time) \
        / a.mission_total_time < 0.01
    assert b.stage1_time == pytest.approx(a.stage1_time, abs=1e-9)
    for err in b.ee_avg_abs_err_mm:
        assert err < 5.0


def test_step_ladder_keeps_stage_times_and_halves_the_tool_error():
    """The stock scenario at dt 10, 5 and 2.5 ms: each run is PASS, its
    stage times are the plan's (stage_timing over the plan's marker cells
    on its grid), and each axis's average tool error, a figure of the
    sampled sliding band, halves with dt.  Each ratio between adjacent
    steps lies in [1.6, 2.6], the error going as dt^p with p from 0.68 to
    1.38 (measured 2.27, 2.34, 2.35, then 2.12, 1.78, 2.38)."""
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        result = run_mission(parse_config({"dt": dt}))
        plan, report = result.plan, result.report
        planned = stage_timing(_event_steps(_labels_and_events(plan)[1]),
                               np.arange(plan.n_steps + 1) * dt)
        assert report.verdict == "PASS", dt
        assert report.stage1_time == planned.stage1_time, dt
        assert report.mission_total_time == planned.mission_total_time, dt
        errors.append(np.array(report.ee_avg_abs_err_mm))
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert np.all((1.6 <= ratio) & (ratio <= 2.6)), ratio


def test_a_marker_keys_its_first_row():
    """A marker repeated in the event cells keys the first row it fires
    on, for the metrics and for the plan command's discharge clock alike."""
    assert _event_steps(["", "K1;A1", "", "A1", "K2;K1"]) == {
        "K1": 1, "A1": 1, "K2": 4}


def test_euler_integrator_full_mission(default_mission):
    result, _ = default_mission
    rough = run_mission(ScenarioConfig(integrator="euler"))
    assert rough.report.verdict == "PASS"
    assert rough.report.stage1_time == pytest.approx(
        result.report.stage1_time, abs=1e-9)
    assert rough.report.mission_total_time == pytest.approx(
        result.report.mission_total_time, abs=1e-9)
    for err in rough.report.ee_avg_abs_err_mm:
        assert err < 5.0
    # The first-order integrator tracks measurably worse than the default.
    assert rough.report.ee_avg_abs_err_mm[0] > result.report.ee_avg_abs_err_mm[0]


def test_disturbed_mission_stays_in_band():
    config = ScenarioConfig()
    config.disturbance.kind = "noise"
    config.disturbance.amplitude = [0.1, 0.1]
    config.disturbance.seed = 11
    result = run_mission(config)
    r = result.report
    assert r.verdict == "PASS"
    assert r.chassis_max_abs_e1_mm < 20.0
    assert r.chassis_max_abs_e2_mm < 1.0
    assert r.chassis_max_abs_e3_deg < 0.6
    for err in r.ee_avg_abs_err_mm:
        assert err < 5.0


def test_non_finite_state_is_named(monkeypatch):
    """A state that turns NaN stops the run at the step that holds it, named
    by index, time and pass, before it reaches the log.  The chassis pass
    runs over the whole mission before the arm pass starts, so a chassis
    state that turns NaN at step 201 is the one named even when the arm's
    would at step 101; with the chassis finite, the arm's is named."""
    def nan_at_step(real, step, calls):
        def patched(*args):
            state = real(*args)
            calls.append(len(calls))
            if len(calls) == step:
                state[0] = math.nan
            return state
        return patched

    chassis, arm = [], []
    monkeypatch.setattr(simulate, "plant_step",
                        nan_at_step(plant_step, 201, chassis))
    monkeypatch.setattr(simulate, "arm_step", nan_at_step(arm_step, 101, arm))
    with pytest.raises(SolveFailure) as err:
        run_mission(ScenarioConfig())
    assert str(err.value) == "step 201 (t=0.2010 s): non-finite chassis state"
    assert (len(chassis), len(arm)) == (201, 0)
    monkeypatch.setattr(simulate, "plant_step", plant_step)
    with pytest.raises(SolveFailure) as err:
        run_mission(ScenarioConfig())
    assert str(err.value) == "step 101 (t=0.1010 s): non-finite arm state"
    assert len(arm) == 101


def test_finite_state_with_overflowing_sum_is_not_stopped(monkeypatch):
    """The finite check names only a state holding NaN or +-inf: finite
    floats whose sum overflows, X = Y = 1e308, pass it.  (The huge pose
    makes the next step's state infinite, which is then named.)"""
    real = simulate.plant_step
    calls = []

    def huge_at_step_101(*args, **kwargs):
        z = real(*args, **kwargs)
        calls.append(len(calls))
        if len(calls) == 101:
            z[0] = z[1] = 1e308
        return z

    monkeypatch.setattr(simulate, "plant_step", huge_at_step_101)
    with pytest.raises(SolveFailure) as err:
        run_mission(ScenarioConfig())
    assert str(err.value).startswith("step 102 (t=0.1020 s): non-finite")
    assert len(calls) == 102


@pytest.mark.parametrize("spec, error, message", [
    # The stock forearm inertia m L^2 / 3 and its point-mass bound m c^2
    # would both overflow to inf: the mass and the offset are past their
    # ranges.
    ({"inertial": {"total_mass": 1.7e308,
                   "com_offsets": [0.05, 0.5, 1e200, 0.04]}},
     ValidationError, r"inertial\.com_offsets\[2\]: must be in \[0, 100\]"),
    # The chassis diverges, and its heading overflows to +-inf in one step.
    ({"dt": 0.02, "chassis_control": {"offset_l": 7.0}},
     SolveFailure, r"^step 111 \(t=2\.2200 s\): non-finite chassis"),
    ({"dt": 0.05, "initial_pose_offset": [1000, 0, 7]},
     SolveFailure, r"^step 6 \(t=0\.3000 s\): non-finite chassis"),
    # The heading offset's degrees * pi would overflow before the divide.
    ({"dt": 0.05, "initial_pose_offset": [0, 0, 1.7e308]}, ValidationError,
     r"^initial_pose_offset\[2\]: must be in \[-10000, 10000\]$"),
    # The corner's arc would be under 1e-9 of a control step.
    ({"circuit": {"speed": 1e12}}, ValidationError,
     r"^circuit\.speed: must be in \[0\.001, 100\]$"),
    ({"circuit": {"corner_radius": 1e-13, "min_corner_radius": 1e-13}},
     ValidationError, r"^circuit\.corner_radius: must be in \[0\.001, 10000\]"),
    # The arm diverges to joint angles near 1e92, where the trig terms no
    # longer agree and the mass matrix's Cholesky pivot turns negative.
    ({"dt": 0.05, "disturbance": {"kind": "noise", "seed": 3},
      "inertial": {"payload_mass": 3995.83}}, SolveFailure,
     r"^step 12 \(t=0\.6000 s\): mass matrix is singular or non-finite "),
], ids=["inertia_overflow", "offset_l", "pose_offset", "heading_offset",
        "speed", "corner_radius", "indefinite_mass_matrix"])
def test_overflowing_scenario_is_named(spec, error, message):
    """A scenario whose numbers would overflow mid-computation ends in a
    MobmanError naming the key or the step, never a raw OverflowError,
    ValueError or ZeroDivisionError: at parse time for a value past its
    range, else when the run diverges."""
    with pytest.raises(error, match=message):
        run_mission(parse_config(spec))


# Each config leaf's stock value and rule, by name.
_LEAVES = {name: (value, rule) for name, value, rule
           in config_mod._leaves(ScenarioConfig())}
# The keys the range-edge fuzz sets: lengths, masses, gains, offsets and
# the disturbance, none of which moves the plan's step count.
_FUZZ_KEYS = [name for name in _LEAVES
              if name.split(".")[0] in ("geometry", "inertial", "arm_control",
                                        "chassis_control", "initial_pose_offset")
              or name in ("sweep.pitch_deg", "disturbance.amplitude",
                          "disturbance.frequency")]


def _in_range(name):
    """Values of the config leaf name drawn from its declared range, its
    edges (and 0, where the rule takes it) drawn often."""
    value, rule = _LEAVES[name]
    lo, hi = rule.range
    zero_problems = []
    rule(0, name, zero_problems)
    edges = [lo, hi] + ([] if zero_problems else [0])
    number = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
    if value is None or isinstance(value, list):
        size = 4 if value is None else len(value)
        return st.lists(number, min_size=size, max_size=size)
    return number


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.data())
def test_range_edges_end_in_a_log_or_a_named_error(data):
    """A run at dt 0.05 with a few numeric keys set anywhere in their
    declared ranges, edges included, either logs finite columns or ends in
    a MobmanError: never a raw exception."""
    spec = {"dt": 0.05, "disturbance": {"kind": "noise", "seed": 3}}
    for name in data.draw(st.lists(st.sampled_from(_FUZZ_KEYS), min_size=1,
                                   max_size=4, unique=True)):
        section, _, key = name.rpartition(".")
        value = data.draw(_in_range(name), label=name)
        (spec.setdefault(section, {}) if section else spec)[key] = value
    try:
        log = run_mission(parse_config(spec)).log
    except MobmanError:
        return
    assert np.isfinite(log.time).all()
    assert all(np.isfinite(column).all() for column in log.values.values())


def test_mission_checks_disturbance_before_the_loop(monkeypatch):
    """A series past the bound (here its last sample, in channel 1) fails
    the mission before the first step runs, naming the channel."""
    real = simulate.disturbance_series

    def late_spike(config, times):
        out = real(config, times)
        out[-1, 1] = -0.5
        return out

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the disturbance check")

    monkeypatch.setattr(simulate, "disturbance_series", late_spike)
    monkeypatch.setattr(simulate, "chassis_tick", no_step)
    with pytest.raises(DisturbanceBoundViolation, match="channel 1"):
        run_mission(parse_config({"dt": 0.01}))


@pytest.mark.parametrize("integrator, per_step",
                         [("midpoint", 2), ("euler", 1)])
def test_one_kernel_per_state(monkeypatch, integrator, per_step):
    """The arm law and the integrator stage at a step's start share one
    kernel evaluation, and the shared one is the first of each step's
    calls, made at the logged state: every per_step-th call, from the
    first, is at the next logged (q, qd).  A law that stopped sharing
    would shift the stride and fail the match.  The call counts of every
    stage are asserted in test_step_counts.py."""
    real = ArmDynamics._kernel
    calls = []

    def counted(self, q, qd):
        calls.append(list(q) + list(qd))
        return real(self, q, qd)

    monkeypatch.setattr(ArmDynamics, "_kernel", counted)
    log = run_mission(parse_config({"dt": 0.01,
                                    "integrator": integrator})).log
    assert log.n_rows > 2000
    logged = np.column_stack([log.values[k] for k in
                              ("q1", "q2", "q3", "q4",
                               "qd1", "qd2", "qd3", "qd4")])
    assert calls[::per_step] == logged.tolist()


def test_step_loop_builds_no_per_step_record():
    """The loop reads the chassis reference as tuples of floats and keeps
    the tracking error as floats, and the package has no second form of
    either: no record class for a reference sample or an error, no
    tracking_error beside chassis_tick's, and no one-clock Circuit.sample
    beside sample_rows."""
    banned = {"ChassisRefSample", "ChassisError", "tracking_error"}
    found = []
    for path in sorted(pathlib.Path(simulate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            if node.name in banned:
                found.append("%s:%s" % (path.name, node.name))
            if isinstance(node, ast.ClassDef) and node.name == "Circuit":
                found += ["%s:Circuit.sample" % path.name for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "sample"]
    assert found == []


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_one_plant_step_call_per_step(monkeypatch, integrator):
    """The chassis and the arm advance by steps of their own, the chassis
    over the whole run first: a run of n steps makes n plant_step calls,
    each given the 5-float chassis state and the scenario's rule, then n
    arm_step calls, each given q and qd as lists of 4 floats and the rule."""
    calls = []

    def counted_plant(state, ref_now, ref_next, u, f, dt, method):
        calls.append(("plant_step", len(state), method))
        return plant_step(state, ref_now, ref_next, u, f, dt, method)

    def counted_arm(model, q, qd, terms, tau, dt, method):
        calls.append(("arm_step", type(q), len(q), type(qd), len(qd),
                      method))
        return arm_step(model, q, qd, terms, tau, dt, method)

    monkeypatch.setattr(simulate, "plant_step", counted_plant)
    monkeypatch.setattr(simulate, "arm_step", counted_arm)
    log = run_mission(parse_config({"dt": 0.01,
                                    "integrator": integrator})).log
    n = log.n_rows - 1
    assert n > 2000
    assert calls == ([("plant_step", 5, integrator)] * n
                     + [("arm_step", list, 4, list, 4, integrator)] * n)


def test_one_pass_keys_leave_the_other_pass_columns_unchanged():
    """The chassis and the arm share no state: each pass reads nothing of
    the other.  At dt 10 ms, a run with only an arm key changed, the arm
    law's switch gain or the payload, logs the chassis columns (the 12 of
    the chassis pass's table, and the wheel speeds) bit for bit as the
    stock run does, while its torques differ.  A run with only a chassis
    key changed, the initial pose offset, a noise disturbance or the
    chassis law's boundary layer, logs the arm pass's 12 columns bit for
    bit, while its e1 differs."""
    def columns(spec):
        return run_mission(parse_config({"dt": 0.01, **spec})).log.values

    stock = columns({})
    arm_keys = ({"arm_control": {"switch_gain": [8.0, 2.0, 6.0, 4.0]}},
                {"inertial": {"payload_mass": 35.0}})
    chassis_keys = ({"initial_pose_offset": [0.05, 0.05, 3]},
                    {"disturbance": {"kind": "noise", "amplitude": [0.1, 0.1],
                                     "seed": 2}},
                    {"chassis_control": {"boundary_layer": 0.05}})
    for specs, kept, moved in ((arm_keys, CSV_NUMERIC[:14], "tau2"),
                               (chassis_keys, _ARM_COLUMNS, "e1")):
        for spec in specs:
            values = columns(spec)
            assert [k for k in kept
                    if values[k].tobytes() != stock[k].tobytes()] == [], spec
            assert values[moved].tobytes() != stock[moved].tobytes(), spec


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("joint", [1, 2, 3])
def test_non_finite_arm_state_is_a_solve_failure_on_lists(model, joint,
                                                         bad):
    """The arm pass's float-list route (kernel, arm law, arm step, and a
    later stage's rates) meets a NaN or infinite angle in joints 2-4 with a
    SolveFailure about the mass matrix, never a raw ValueError from
    math.sqrt, math.cos or math.sin, nor a NaN state."""
    gains = ScenarioConfig().arm_control
    good = [0.1, 60.0 * DEG, -30.0 * DEG, -10.0 * DEG]
    qd = [0.2, -0.1, 0.3, 0.1]
    q = list(good)
    q[joint] = bad
    for method in ("midpoint", "euler"):
        with pytest.raises(SolveFailure, match="^mass matrix"):
            terms = model._kernel(q, qd)
            tau = arm_control_law(q, qd, good + qd + [0.0] * 4, gains,
                                  terms)
            arm_step(model, q, qd, terms, tau, 1e-3, method)
    # The start stage reuses the finite terms at good; the midpoint stage
    # meets the bad angle.
    with pytest.raises(SolveFailure, match="^mass matrix"):
        arm_step(model, q, qd, model._kernel(good, qd), [0.0] * 4, 1e-3,
                 "midpoint")


@contextlib.contextmanager
def _numpy_calls(reader):
    """Count the numpy calls made inside the block, by sys.setprofile: each
    Python frame under numpy's package directory, and each C call whose
    __module__, or whose bound object's type's, starts with numpy.  Calls
    made under the function reader, or under a comprehension or generator
    expression written in it (which may run after reader has returned), are
    counted as "reader"; the names of the others are listed as "elsewhere"."""
    root = os.path.dirname(np.__file__) + os.sep
    calls = {"reader": 0, "elsewhere": []}
    codes, nested = set(), [reader.__code__]
    while nested:
        codes.add(code := nested.pop())
        nested += [c for c in code.co_consts if isinstance(c, types.CodeType)]

    def numpy_module(x):
        return (getattr(x, "__module__", None) or "").startswith("numpy")

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            name = frame.f_code.co_name
        elif event == "c_call" and (numpy_module(arg) or numpy_module(
                type(getattr(arg, "__self__", None)))):
            name = arg.__name__
        else:
            return
        caller = frame
        while caller is not None and caller.f_code not in codes:
            caller = caller.f_back
        if caller is None:
            calls["elsewhere"].append(name)
        else:
            calls["reader"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def test_control_step_runs_on_plain_floats(model, stock_arm):
    """One chassis tick, arm law, chassis plant step and the two plant
    steps of a mission step (each integrator, on a ChassisRefSample and on
    a row tuple as run_mission reads it) on float inputs, with the gains
    section run_mission reads, build no numpy array and return plain floats,
    so per-stage arrays and numpy scalars cannot creep back into the loop.
    The records the loop reads hold plain floats in every field: the
    tracking error, and the reference rows run_mission's block reader yields
    (across a block edge) with the ChassisRefSamples made from them, and
    the arm's 12-float tuples it sets side by side from the q_r, qd_r and
    qdd_r tables, each the three tables' rows joined.  FK,
    the circuit sampler and the base-frame transform run on whole arrays
    before or after the loop, so they are called outside the no-array block;
    a row of the circuit sampler's table, as a list, holds plain floats, and
    FK and the transform give floats (numpy's float64 for one sample).

    The block counts every numpy call made inside it (see _numpy_calls):
    only the block reader may make any, a fixed few per block of rows."""
    arm_gains = ScenarioConfig().arm_control
    gains = ScenarioConfig().chassis_control
    circuit = Circuit(ScenarioConfig().circuit, dt=1e-3)
    ref = ChassisRefSample(1.0, 2.0, 0.3, v=0.88, w=0.1)
    z = [1.01, 1.98, 0.31, 0.87, 0.12]
    q = [0.1, 60.0 * DEG, -30.0 * DEG, -10.0 * DEG]
    qd = [0.2, -0.1, 0.3, 0.1]

    pose = forward_kinematics(q, stock_arm)
    samples = circuit.sample_rows([0.0, 2.0, 11.0]).tolist()
    target = target_in_base_frame(z[:3], [1.5, 0.2, 0.9], 0.5)
    plan = plan_mission(ScenarioConfig())
    table = _chassis_reference(plan)
    arm_tables = _arm_reference(plan, table)
    assert len(table) > simulate._BLOCK_ROWS
    with _numpy_calls(simulate._float_rows) as calls:
        err, s, u = chassis_tick(ref, z, gains)
        terms = model._kernel(q, qd)
        tau = arm_control_law(q, qd, [v + 0.01 for v in q] + qd + [0.0] * 4,
                              arm_gains, terms)
        z1 = plant_step(z, ref, ref, u, [0.05, -0.05], 1e-3, "midpoint")
        rows = list(simulate._float_rows(table))
        arm_rows = list(simulate._float_rows(*arm_tables))
        steps = [plant_step(z, row, row, u, [0.05, -0.05], 1e-3, method)
                 + arm_step(model, q, qd, terms, tau, 1e-3, method)
                 for method in ("midpoint", "euler")
                 for row in (ref, rows[0])]
        tick = chassis_tick(rows[0], z, gains)
        refs = list(map(ChassisRefSample._make, rows))
    assert calls["elsewhere"] == []
    blocks = 2 * -(-len(table) // simulate._BLOCK_ROWS)
    assert 0 < calls["reader"] <= 32 * blocks
    values = list(s) + list(u) + tau + z1 + list(err)
    for step in steps:
        values += step
    for part in tick:
        values += part
    for sample in samples:
        values += list(sample)
    assert len(values) == 2 + 2 + 4 + 5 + 3 + 4 * 13 + 3 + 2 + 2 + 3 * 5
    assert all(type(v) is float for v in values)
    assert rows == list(map(tuple, table.tolist()))
    assert refs[-1] == tuple(rows[-1])
    assert all(type(v) is float for row in rows for v in row)
    assert all(type(v) is float for ref in refs for v in ref)
    assert arm_rows == [tuple(a + b + c) for a, b, c in zip(
        *(t.tolist() for t in arm_tables))]
    assert len(arm_rows) == len(table) and {len(r) for r in arm_rows} == {12}
    assert all(type(v) is float for row in arm_rows for v in row)
    assert all(isinstance(v, float) for v in list(pose) + list(target))


def test_mission_runs_no_garbage_collection():
    """A run builds no container per row (reference rows arrive as tuples
    zipped over per-block column lists, event cells as strings), so the
    objects it keeps alive never push CPython's cyclic collector past its
    first threshold: no collection of any generation runs during it.  This
    holds for the stock run and for perfbench's euler_noise_mission (Euler
    steps, seeded noise at the bound), both at dt 10 ms; the scenarios run
    in one test, each checked on its own.  numpy.random is warmed first:
    its first use imports modules, and that import alone runs one pass."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    np.random.default_rng(0).uniform()
    for name, spec in [("stock", {}), ("euler_noise_mission", {
            "integrator": "euler",
            "disturbance": {"kind": "noise", "amplitude": [0.1, 0.1],
                            "seed": 1}})]:
        gc.collect()
        gc.callbacks.append(count)
        try:
            run_mission(parse_config({"dt": 0.01, **spec}))
        finally:
            gc.callbacks.remove(count)
        assert passes == [], name


@pytest.fixture(scope="module")
def coarse_run():
    """(config, result) of the stock scenario on a 10 ms step."""
    config = parse_config({"dt": 0.01})
    return config, run_mission(config)


def _same_bits(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    bad = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
    assert bad == 0, "%s: %d of %d samples differ" % (what, bad, got.size)


def test_numpy_trig_matches_math_bitwise(coarse_run):
    """The derived columns take numpy's cos and sin where the step loop once
    took math's, so the logs stay bit-identical only while the two agree bit
    for bit, which numpy's SIMD dispatch does not promise on every machine.
    Checked on a seeded sample, read contiguous and strided as the derived
    pass reads its columns, and on the logged joint and heading columns."""
    rng = np.random.default_rng(20261018)
    sample = np.concatenate([rng.uniform(-math.pi, math.pi, 200_000),
                             rng.uniform(-20.0, 20.0, 40_000)])
    log = coarse_run[1].log
    inputs = [("seeded sample", sample),
              ("strided sample", sample.reshape(-1, 4)[:, 1])]
    inputs += [(k, log.values[k]) for k in ("q1", "q2", "q3", "q4", "phi")]
    for what, x in inputs:
        for np_f, math_f in ((np.cos, math.cos), (np.sin, math.sin)):
            _same_bits(np_f(x), list(map(math_f, x.tolist())),
                       "%s of %s" % (np_f.__name__, what))


def _scalar_tool(q, geometry):
    """Tool position (mm) of one joint vector by scalar math, the FK the
    step loop once ran per row."""
    a1, a2, a3, a4, a5 = geometry.a
    y5p = geometry.y5p
    c2, s2 = math.cos(q[1]), math.sin(q[1])
    c3, s3 = math.cos(q[2]), math.sin(q[2])
    c4, s4 = math.cos(q[3]), math.sin(q[3])
    r = a1 + a2 * c2 + a3 * c3 + a4 + a5 * c4 - y5p * s4
    z = geometry.d1 + a2 * s2 + a3 * s3 + a5 * s4 + y5p * c4
    return r * math.cos(q[0]), r * math.sin(q[0]), z


def _scalar_world(tool, x, y, heading):
    """World position (m) of an arm-frame tool point (mm), row by row."""
    c, sn = math.cos(heading), math.sin(heading)
    return (x + (tool[0] * c - tool[1] * sn) * 1e-3,
            y + (tool[0] * sn + tool[1] * c) * 1e-3, tool[2] * 1e-3)


def test_derived_columns_match_per_row_oracle(coarse_run):
    """eeX..Z, tgtX..Z, vL and vR, derived after the loop in one vectorised
    pass, equal bit for bit the row-by-row formulas the step loop used to
    log: scalar FK at the logged joints and chassis pose, scalar FK at the
    joint reference and the reference pose, and the wheel-speed split of the
    logged (v, w)."""
    config, result = coarse_run
    log, plan = result.log, result.plan
    refs = _chassis_reference(plan)
    qr = _arm_reference(plan, refs)[0].tolist()
    ref_pose = refs[:, :3].tolist()
    track = config.chassis_control.track_width
    col = {k: log.values[k].tolist() for k in CSV_NUMERIC}
    names = ("eeX", "eeY", "eeZ", "tgtX", "tgtY", "tgtZ", "vL", "vR")
    want = {k: [] for k in names}
    for i in range(log.n_rows):
        q = [col[k][i] for k in ("q1", "q2", "q3", "q4")]
        row = _scalar_world(_scalar_tool(q, plan.geometry), col["X"][i],
                            col["Y"][i], col["phi"][i])
        row += _scalar_world(_scalar_tool(qr[i], plan.geometry),
                             *ref_pose[i])
        row += wheel_speeds(col["v"][i], col["w"][i], track)
        for k, value in zip(names, row):
            want[k].append(value)
    for k in names:
        _same_bits(log.values[k], want[k], k)


def test_energy_ledger_closes_over_the_run(coarse_run, model):
    """The torque is held over each step, so the joints do exactly
    tau_i . (q_{i+1} - q_i) of work over step i, and the arm's energy change
    over it, taken body by body from oracles.py and not from the kernel,
    must match that up to the integrator's error and round-off.  On the
    10 ms stock run the residual r_i = dE_i - tau_i . dq_i measures max |r|
    1.494 J, median |r| 1.8e-3 J and sum r -29.9 J, against 21 kJ of joint
    work; a torque logged one row late gives max |r| 576 J and sum r
    -11.4 kJ.  The bounds leave about a third more (the median two thirds
    more) than measured."""
    log = coarse_run[1].log

    def joints(prefix):
        return np.column_stack([log.values["%s%d" % (prefix, k)]
                                for k in (1, 2, 3, 4)])

    q, qd, tau = joints("q"), joints("qd"), joints("tau")
    energy = np.array([kinetic_energy(model, a, b) + potential_energy(model, a)
                       for a, b in zip(q, qd)])
    r = np.diff(energy) - np.sum(tau[:-1] * np.diff(q, axis=0), axis=1)
    assert len(r) == 2590
    worst, median, total = np.abs(r).max(), np.median(np.abs(r)), r.sum()
    assert worst < 2.0, worst
    assert median < 3e-3, median
    assert abs(total) < 40.0, total


@pytest.mark.parametrize("dt", [5e-324, 1e-300, 1e-15])
def test_tiny_step_is_named_before_any_table(monkeypatch, dt):
    """A dt that passes its field rule but would make the run's step count
    overflow a float, pass numpy's largest array dimension or ask for
    exabytes is named, with the step count, before any per-step table is
    built."""
    def no_table(plan):
        raise AssertionError("a per-step table was built")

    monkeypatch.setattr(simulate, "_chassis_reference", no_table)
    config = parse_config({"dt": dt})
    with pytest.raises(ValidationError, match=r"^dt: %r s: the run needs at "
                       r"least \S+ steps, more than 10000000$" % dt):
        run_mission(config)


def test_step_cap_bounds_a_run_by_memory():
    """A run peaks at about 370 B a step.  10 km edges at 1 mm/s and dt 1 s
    pass every field's range but plan 4e7 steps, about 15 GB, so the plan
    names the step count; only the plan is made, never the run."""
    config = parse_config({"dt": 1, "circuit": {"edge_length": 10000,
                                                "speed": 0.001}})
    with pytest.raises(ValidationError, match=r"^dt: 1 s: the run needs at "
                       r"least 4e\+07 steps, more than 10000000$"):
        plan_mission(config)


def test_mission_memory_peaks_in_its_loop(monkeypatch):
    """A run's traced peak is its arm pass's: the tables it holds (the two
    pass tables, refs, q_r, qd_r, qdd_r and time, 42 floats a row) and one
    block of each arm reference table as Python floats, about 1.32 times
    the tables at dt 10 ms.  From the metrics on, the run holds its
    log and the metrics' few columns, about 333 B a row, under 372 B: a
    full-length stack of the tool and target columns, or the chassis
    reference kept alive, tops it."""
    compute = simulate.metrics_mod.compute_metrics
    peaks = []

    def traced_metrics(log):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return compute(log)

    monkeypatch.setattr(simulate.metrics_mod, "compute_metrics",
                        traced_metrics)
    config = parse_config({"dt": 0.01})
    tracemalloc.start()
    try:
        result = run_mission(config)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    before_metrics, from_metrics = peaks
    tables = 42 * 8 * result.log.n_rows
    assert max(before_metrics, from_metrics) < 1.5 * tables
    assert from_metrics < 372 * result.log.n_rows


def test_mission_holds_its_labels_once(monkeypatch):
    """When the metrics start, a run holds its log's 33 float columns (264 B
    a row), one list each of state labels and event cells shared with the
    log (16 B a row) and a few tens of kB besides: under 304 B a row at dt
    10 ms.  A log that copies the two lists holds 16 B a row more."""
    compute = simulate.metrics_mod.compute_metrics
    held = []

    def traced_metrics(log):
        held.append(tracemalloc.get_traced_memory()[0])
        return compute(log)

    monkeypatch.setattr(simulate.metrics_mod, "compute_metrics",
                        traced_metrics)
    tracemalloc.start()
    try:
        result = run_mission(parse_config({"dt": 0.01}))
    finally:
        tracemalloc.stop()
    assert held[0] < 304 * result.log.n_rows


def test_step_count_is_checked_on_the_whole_plan(monkeypatch):
    """The circuit bounds the step count of one corner; the plan checks the
    whole run's, which the corners alone can leave under the limit."""
    monkeypatch.setattr(mission, "MAX_STEPS", 2000)
    with pytest.raises(ValidationError,
                       match=r"^dt: 0.01 s: the run needs at least 2590 "
                       r"steps, more than 2000$"):
        plan_mission(parse_config({"dt": 0.01}))
    assert plan_mission(parse_config({"dt": 0.02})).n_steps < 2000
