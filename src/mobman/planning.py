"""Mission schedule: one phase timeline on the control grid.

Stage I sweeps the four crib faces while the chassis circles the crib, an
optional top spray holds the arm at the lap's close, and Stage II parks at
each residual flame and sprays it, all on one discharge clock.  plan_mission
lays this out once, in that order, as phases that tile the log's rows:
Home, which has no steps and only fires start; the sweep and the transit of
each Stage I leg; the top spray when it has steps; each Stage II drive and
dwell; and End, the last row.  A dwell with no steps still fires its
markers and aims the arm.  Each Stage II stop comes with its lap step and
parking pose (mission.Circuit.on_straight) and the joints that aim the arm
at its fire from that pose (mission.dispatch, whose pitch scan is the only
IK a stop gets): the drive ends at that step, and the dwell holds that pose
and those joints.

The chassis reference, the state labels and markers and the arm's joint
reference are each one loop over the phases, and no other code steps
through the schedule.  None builds a per-row list: the chassis reference is
one sampling of the circuit's lap steps, indexed by every row's integer lap
step (Phase), each sweep's joint reference one base-frame transform and one
batch IK, each dwell's its slot's joints, and each gap between spray phases
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
from .mission import (Circuit, Stage2Slot, SweepPath, assign_fires,
                      build_sweep, check_step_count, dispatch)
from .util import DEG


@dataclass(frozen=True)
class Phase:
    """One mission phase, over the steps [start, end).

    The chassis reference at step i is the circuit's row at lap step
    lap_step + i - start, or, when held, at lap_step with every rate zeroed:
    a dwell holds at its stop's step, the top spray at the last step not past
    K5 (K1, where Stage II sets off).  marks are the (step, event) markers
    the phase fires.  spray is what the arm does: track a SweepPath, hold a
    Stage2Slot's joints, which aim at its fire, hold the top-spray joint
    vector (rad), or, when None, blend between its neighbours in joint
    space.
    """

    start: int
    end: int
    label: str
    lap_step: int
    held: bool
    marks: tuple = ()
    spray: object = None


@dataclass
class MissionPlan:
    """Everything laid out before the loop runs."""

    geometry: object      # ArmGeometry
    circuit: object
    sweeps: list
    stops: list           # Stop per fire, in lap-step order
    flagged: list
    dt: float
    n_steps: int
    stage2: list          # Stage2Slot per serviced stop
    phases: list          # Phase in mission order, tiling rows 0..n_steps


def plan_mission(config: ScenarioConfig) -> MissionPlan:
    """Lay a validated scenario's mission out on its control grid: the
    circuit, the four sweeps, the Stage II stops and the phase timeline.
    Raises GeometryError for a circuit that cannot be driven,
    InfeasibleSweep for a sweep that cannot finish within its leg, and
    ValidationError naming dt when the run would take more than
    mission.MAX_STEPS steps.  A fire the arm cannot reach from its stop's
    parking pose is flagged in the plan, not raised; Stage II halts at each
    served stop's lap step, in step order.  The plan judges Stage II's
    reach only: a sweep sample the arm cannot reach passes here, and
    _arm_reference, which run_mission and the CLI's plan command call,
    raises Unreachable or JointLimitViolation naming the sweep and
    sample."""
    dt = config.dt
    geometry = build_geometry(config)
    circuit = Circuit(config.circuit, dt=dt)
    sweeps = [build_sweep(k, config.sweep, config.fire_test, circuit)
              for k in range(1, 5)]

    stops = assign_fires(config.fires, circuit)
    stage2, flagged = dispatch(stops, config.fire_test.stage2_budget,
                               sweeps[0].pitch, geometry)

    k_steps = [int(round(t / dt)) for t in circuit.k_times]
    hold = int(math.floor(circuit.k_times[4] / dt + 1e-9))  # see Phase
    phases = []

    def visit(label, start, end, lap_step, held, marks=(), spray=None):
        phases.append(Phase(start, end, label, lap_step, held, tuple(marks),
                            spray))

    # Stage I is one lap from step 0, so its row i is lap step i.
    visit("Home", 0, 0, 0, False, [(0, "start")])
    for k, sweep in enumerate(sweeps, start=1):
        start = k_steps[k - 1]
        end = start + int(math.ceil(sweep.duration / dt - 1e-9))
        visit("StageI.%d.sweep" % k, start, end, start, False,
              [(start, "K%d" % k), (start, "sweep%d_start" % k),
               (end, "sweep%d_end" % k)], sweep)
        # The lap marks follow every sweep marker, also on a shared step.
        visit("StageI.%d.transit" % k, end, k_steps[k], end, False,
              [(k_steps[4], "K5")] + [(int(round(t / dt)), "A%d" % a) for a, t
                                      in enumerate(circuit.a_times, start=1)]
              if k == 4 else ())

    cursor = k_steps[4] + int(round(config.top_spray.duration / dt))
    if cursor > k_steps[4]:
        visit("TopSpray", k_steps[4], cursor, hold, True,
              [(k_steps[4], "top_spray_start"), (cursor, "top_spray_end")],
              np.asarray(config.top_spray.joints_deg, dtype=float) * DEG)

    # Stage II drives one more lap from step 0, halting at each stop's step.
    lap_step = 0
    for j, slot in enumerate(stage2, start=1):
        arrive = cursor + slot.stop.step - lap_step
        visit("StageII.%d.drive" % j, cursor, arrive, lap_step, False)
        lap_step = slot.stop.step
        cursor = arrive + int(round(slot.dwell / dt))
        visit("StageII.%d.spray" % j, arrive, cursor, lap_step, True,
              [(arrive, "stop%d_arrive" % j), (arrive, "spray%d_start" % j),
               (cursor, "spray%d_end" % j)], slot)

    visit("End", cursor, cursor + 1, lap_step if stage2 else hold, True,
          [(cursor, "end")])
    check_step_count(cursor, dt)
    return MissionPlan(geometry=geometry, circuit=circuit, sweeps=sweeps,
                       stops=stops, flagged=flagged, dt=dt, n_steps=cursor,
                       stage2=stage2, phases=phases)


def _chassis_reference(plan: MissionPlan) -> np.ndarray:
    """Circuit.REFERENCE_COLUMNS per sample, row i active on [t_i, t_i+1):
    the lap's steps sampled once, indexed by row, rates zeroed when held."""
    steps = np.empty(plan.n_steps + 1, dtype=np.int64)
    held = np.zeros(plan.n_steps + 1, dtype=bool)
    for p in plan.phases:
        steps[p.start:p.end] = p.lap_step if p.held else np.arange(
            p.lap_step, p.lap_step + p.end - p.start)
        held[p.start:p.end] = p.held
    lap = plan.circuit.sample_rows(np.arange(steps.max() + 1) * plan.dt)
    table = lap[steps]
    table[held, 3:] = 0.0  # v and w
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


def _arm_reference(plan: MissionPlan, refs: np.ndarray):
    """Joint reference over the whole run: tracked IK in sweeps, held joints
    in the top spray and in each dwell (its slot's), smooth joint-space
    blends across the phases between them, a hold after the last; refs: the
    chassis table."""
    dt = plan.dt
    qr = np.zeros((plan.n_steps + 1, 4))
    anchors = []  # (first, last) step of each spray phase, in order
    for p in plan.phases:
        a, b, spray = p.start, p.end, p.spray
        if isinstance(spray, SweepPath):
            points = spray.positions_at((np.arange(a, b + 1) - a) * dt)
            target = target_in_base_frame(refs[a:b + 1, :3].T, points.T,
                                          spray.pitch)
            try:
                qr[a:b + 1] = inverse_kinematics(target, plan.geometry)
            except (Unreachable, JointLimitViolation) as exc:
                k = a + exc.sample
                raise type(exc)("sweep %d sample %d (t=%.4f s): %s" % (
                    spray.edge_index, k, k * dt, exc)) from exc
        elif isinstance(spray, Stage2Slot):
            qr[a:b + 1] = spray.joints
        elif spray is not None:
            qr[a:b + 1] = spray
        else:
            continue
        anchors.append((a, b))

    for (_, b0), (a1, _) in zip(anchors[:-1], anchors[1:]):  # smoothstep
        x = ((np.arange(b0 + 1, a1) - b0) / (a1 - b0))[:, None]
        qr[b0 + 1:a1] = qr[b0] + x * x * (3.0 - 2.0 * x) * (qr[a1] - qr[b0])
    qr[anchors[-1][1] + 1:] = qr[anchors[-1][1]]

    qdr = np.gradient(qr, dt, axis=0)
    qddr = np.gradient(qdr, dt, axis=0)
    return qr, qdr, qddr
