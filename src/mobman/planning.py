"""Mission schedule: one phase timeline on the control grid.

Stage I sweeps the four crib faces while the chassis circles the crib, an
optional top spray holds the arm at the lap's close, and Stage II parks at
each residual flame and sprays it, all on one discharge clock.  plan_mission
lays this out once, in that order, as phases that tile the log's rows:
Home, which has no steps and only fires start; the sweep and the transit of
each Stage I leg; the top spray when it has steps; each Stage II drive and
dwell; and End, the last row.  A dwell with no steps still fires its
markers and aims the arm.  Each Stage II stop comes with its lap step and
parking pose (mission.Circuit.on_straight): the drive ends at that step, and
the dwell holds and aims from that pose.

The chassis reference, the state labels and markers and the arm's joint
reference are each one loop over the phases, and no other code steps
through the schedule.  None builds a per-row list: the chassis reference is
one table filled a phase at a time, each sweep's joint reference one
base-frame transform and one batch IK, and each gap between spray phases
one broadcast smoothstep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arm_control import target_in_base_frame
from .config import ScenarioConfig, build_geometry
from .errors import JointLimitViolation, Unreachable
from .kinematics import inverse_kinematics
from .mission import (Circuit, SweepPath, assign_fires, build_sweep,
                      check_step_count, dispatch)
from .util import DEG


@dataclass
class Stage2Slot:
    """One serviced stop."""

    stop: object
    pitch: float
    dwell: float


@dataclass(frozen=True)
class Phase:
    """One mission phase, over the steps [start, end).

    The chassis reference at step i is the circuit's row at the lap clock
    clock + (i - origin) * dt, or the pose at clock held still when origin
    is None; a Stage II dwell's clock is its stop's lap step times dt.
    marks are the (step, event) markers the phase fires.  spray is what the arm does: track a
    SweepPath, aim at a Stage2Slot's fire, hold the top-spray joint vector
    (rad), or, when None, blend between its neighbours in joint space.
    """

    start: int
    end: int
    label: str
    clock: float
    origin: int | None
    marks: tuple = ()
    spray: object = None


@dataclass
class MissionPlan:
    """Everything laid out before the loop runs."""

    geometry: object      # ArmGeometry
    circuit: object
    sweeps: list
    stops: list           # Stop per fire, in path order
    flagged: list
    dt: float
    n_steps: int
    stage2: list          # Stage2Slot per serviced stop
    phases: list          # Phase in mission order, tiling rows 0..n_steps


def plan_mission(config: ScenarioConfig) -> MissionPlan:
    """Lay a validated scenario's mission out on its control grid: the
    circuit, the four sweeps, the Stage II stops and the phase timeline.
    Raises GeometryError or InfeasibleSweep for a circuit or a sweep that
    cannot be flown, and ValidationError naming dt when the run would take
    more than mission.MAX_STEPS steps.  A fire the arm cannot reach from
    its stop's parking pose is flagged in the plan, not raised; Stage II
    halts at each served stop's lap step, in path order."""
    dt = config.dt
    geometry = build_geometry(config)
    circuit = Circuit(config.circuit, dt=dt)
    sweeps = [build_sweep(k, config.sweep, config.fire_test, circuit)
              for k in range(1, 5)]

    stops = assign_fires(config.fires, circuit)
    sprays, flagged = dispatch(stops, config.fire_test.stage2_budget,
                               sweeps[0].pitch, geometry)

    k_steps = [int(round(t / dt)) for t in circuit.k_times]
    a_steps = [int(round(t / dt)) for t in circuit.a_times]
    phases = []

    def visit(label, start, end, clock, origin, marks=(), spray=None):
        phases.append(Phase(start, end, label, clock, origin, tuple(marks),
                            spray))

    # Stage I runs on one clock, so step i samples the lap at exactly i*dt.
    visit("Home", 0, 0, 0.0, 0, [(0, "start")])
    for k, sweep in enumerate(sweeps, start=1):
        start = k_steps[k - 1]
        end = start + int(math.ceil(sweep.duration / dt - 1e-9))
        visit("StageI.%d.sweep" % k, start, end, 0.0, 0,
              [(start, "K%d" % k), (start, "sweep%d_start" % k),
               (end, "sweep%d_end" % k)], sweep)
        # The lap marks follow every sweep marker, also on a shared step.
        visit("StageI.%d.transit" % k, end, k_steps[k], 0.0, 0,
              [(k_steps[4], "K5")] + [(step, "A%d" % a) for a, step
                                      in enumerate(a_steps, start=1)]
              if k == 4 else ())

    cursor = k_steps[4] + int(round(config.top_spray.duration / dt))
    if cursor > k_steps[4]:
        visit("TopSpray", k_steps[4], cursor, circuit.lap_time, None,
              [(k_steps[4], "top_spray_start"), (cursor, "top_spray_end")],
              np.asarray(config.top_spray.joints_deg, dtype=float) * DEG)

    # Stage II drives one more lap from clock 0, halting at each stop's step.
    stage2 = []
    lap_step = 0
    for j, (stop, pitch, dwell) in enumerate(sprays, start=1):
        arrive = cursor + stop.step - lap_step
        visit("StageII.%d.drive" % j, cursor, arrive, lap_step * dt, cursor)
        lap_step = stop.step
        stage2.append(Stage2Slot(stop=stop, pitch=pitch, dwell=dwell))
        cursor = arrive + int(round(dwell / dt))
        visit("StageII.%d.spray" % j, arrive, cursor, lap_step * dt, None,
              [(arrive, "stop%d_arrive" % j), (arrive, "spray%d_start" % j),
               (cursor, "spray%d_end" % j)], stage2[-1])

    visit("End", cursor, cursor + 1,
          lap_step * dt if stage2 else circuit.lap_time, None,
          [(cursor, "end")])
    check_step_count(cursor, dt)
    return MissionPlan(geometry=geometry, circuit=circuit, sweeps=sweeps,
                       stops=stops, flagged=flagged, dt=dt, n_steps=cursor,
                       stage2=stage2, phases=phases)


def _chassis_reference(plan: MissionPlan) -> np.ndarray:
    """Circuit.REFERENCE_COLUMNS per sample, row i active on [t_i, t_i+1);
    a held phase repeats the pose at its clock with every rate zeroed."""
    table = np.empty((plan.n_steps + 1, len(Circuit.REFERENCE_COLUMNS)))
    for p in plan.phases:
        if p.origin is None:
            table[p.start:p.end] = plan.circuit.sample_rows([p.clock])[0]
            table[p.start:p.end, 3:] = 0.0  # v, w, vdx, vdy and their rates
        else:
            table[p.start:p.end] = plan.circuit.sample_rows(
                p.clock + (np.arange(p.start, p.end) - p.origin) * plan.dt)
    return table


def _labels_and_events(plan: MissionPlan):
    """State label per sample plus the event cell of each sample: its
    markers joined by ";" in firing order, "" where none fires."""
    labels = []
    events = [""] * (plan.n_steps + 1)
    for p in plan.phases:
        labels += [p.label] * (p.end - p.start)
        for step, event in p.marks:
            events[step] += ";" + event if events[step] else event
    return labels, events


def _solve_ik(plan: MissionPlan, target, where):
    """Closed-form IK of reference targets; a failure is re-raised as the
    same error prefixed with where(i), i the failing sample's index."""
    try:
        return inverse_kinematics(target, plan.geometry)
    except (Unreachable, JointLimitViolation) as exc:
        raise type(exc)("%s: %s" % (where(exc.sample), exc)) from exc


def _arm_reference(plan: MissionPlan, refs: np.ndarray):
    """Joint reference over the whole run: tracked IK in sweep and spray
    phases, held joints in the top spray, smooth joint-space blends across
    the phases between them, a hold after the last; refs: the chassis table."""
    dt = plan.dt
    qr = np.zeros((plan.n_steps + 1, 4))
    anchors = []  # (first, last) step of each spray phase, in order
    n_stops = 0
    for p in plan.phases:
        a, b, spray = p.start, p.end, p.spray
        if isinstance(spray, SweepPath):
            points = spray.positions_at((np.arange(a, b + 1) - a) * dt)
            target = target_in_base_frame(refs[a:b + 1, :3].T, points.T,
                                          spray.pitch)
            qr[a:b + 1] = _solve_ik(
                plan, target, lambda k: "sweep %d sample %d (t=%.4f s)" % (
                    spray.edge_index, a + k, (a + k) * dt))
        elif isinstance(spray, Stage2Slot):
            n_stops += 1
            target = target_in_base_frame(spray.stop.pose,
                                          spray.stop.fire.position,
                                          spray.pitch)
            qr[a:b + 1] = _solve_ik(
                plan, target, lambda _: "stage II stop %d (%s)" % (
                    n_stops, spray.stop.fire.ident))
        elif spray is not None:
            qr[a:b + 1] = spray
        else:
            continue
        anchors.append((a, b))

    for (_, b0), (a1, _) in zip(anchors[:-1], anchors[1:]):  # smoothstep
        x = ((np.arange(b0 + 1, a1) - b0) / (a1 - b0))[:, None]
        qr[b0 + 1:a1] = qr[b0] + x * x * (3.0 - 2.0 * x) * (qr[a1] - qr[b0])
    last_end = anchors[-1][1]
    qr[last_end + 1:] = qr[last_end]

    qdr = np.gradient(qr, dt, axis=0)
    qddr = np.gradient(qdr, dt, axis=0)
    return qr, qdr, qddr
