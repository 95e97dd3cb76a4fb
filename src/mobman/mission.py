"""Coverage mission around the crib: circuit, spray sweeps, residual stops.

Stage I drives a rounded-square circuit anti-clockwise around the burning
crib while the arm rasters extinguishant over the face nearest each leg.
Stage II revisits residual flames: each reported fire is grouped by its
nearest circuit tangency point, a stop is dropped on that group's straight
segment, and the stops are serviced in a single additional anti-clockwise
pass.

Planner units are metres and seconds in the world frame; the circuit is
centred on the crib.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InfeasibleSweep, ValidationError
from .kinematics import PITCH_GRID, ArmGeometry, scan_pitch
from .arm_control import target_in_base_frame
from .util import DEG


# The most control steps a run may take.  A run's memory peaks at about
# 370 B a step (tracemalloc over run_mission: 443, 388, 371 and 370 B at dt
# 10, 4, 2 and 1 ms), so this many need about 3.7 GB.
MAX_STEPS = 10 ** 7


def check_step_count(steps: float, dt: float) -> None:
    """Raise ValidationError naming dt when a run of steps control steps (a
    float: inf when dt is too small to count them) is over MAX_STEPS."""
    if not steps <= MAX_STEPS:
        raise ValidationError("dt: %r s: the run needs at least %.4g steps, "
                              "more than %d" % (dt, steps, MAX_STEPS))


@dataclass(frozen=True)
class _Segment:
    kind: str           # "straight" | "arc"
    t0: float           # lap time at segment entry
    duration: float
    s0: float           # path length at segment entry
    length: float
    data: tuple         # straight: (x0, y0, heading); arc: (cx, cy, heading0)
    speed: float
    yaw_rate: float


class Circuit:
    """Time-parameterized lap starting at the first leg's midpoint.

    The lap runs anti-clockwise: half of the first straight, then alternating
    corners and straights, closing with the remaining half.  Leg midpoints are
    the K marks (K5 repeats K1 at closure); corner tangency points are the A
    marks, numbered so that consecutive pairs (A1 A2, A3 A4, ...) flank the
    full straights in path order.

    spec is the scenario's CircuitConfig section, read by attribute; dt is
    the control step the corners are snapped to and the Stage II stops'
    lap steps are counted in.
    """

    def __init__(self, spec, dt: float):
        if spec.edge_length <= 0.0:
            raise GeometryError("circuit.edge_length: must be > 0")
        if spec.speed <= 0.0:
            raise GeometryError("circuit.speed: must be > 0")
        if spec.corner_radius < spec.min_corner_radius:
            raise GeometryError(
                "circuit.corner_radius: %.3f m is below the minimum %.3f m"
                % (spec.corner_radius, spec.min_corner_radius))
        if spec.corner_radius >= 0.5 * spec.edge_length:
            raise GeometryError(
                "circuit.corner_radius: must be below half the edge length")
        # Stretch the corner onto the control grid so every tangency event
        # lands on a sample; the arc speed drops by well under 0.1 %.
        arc_len = 0.5 * math.pi * spec.corner_radius
        steps = arc_len / spec.speed / dt
        check_step_count(steps, dt)
        corner_steps = math.ceil(steps - 1e-9)
        if corner_steps < 1:
            raise GeometryError(
                "circuit.corner_radius: a %.3g m corner at circuit.speed "
                "%.3g m/s rounds to no control step of %g s"
                % (spec.corner_radius, spec.speed, dt))
        self.spec = spec
        self.dt = dt
        ls = spec.edge_length
        r = spec.corner_radius
        v = spec.speed
        cx, cy = spec.center
        self.half_width = 0.5 * ls + r

        self.edge_time = ls / v
        self.half_edge_time = 0.5 * ls / v
        corner_time = corner_steps * dt
        self.corner_time = corner_time
        self.arc_speed = arc_len / corner_time
        self.arc_rate = 0.5 * math.pi / corner_time
        self.lap_time = 4.0 * (self.edge_time + corner_time)
        self.lap_length = 4.0 * (ls + arc_len)

        # Square-side headings in lap order: +x, +y, -x, -y.
        headings = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
        hw = self.half_width
        k_offsets = ((0.0, -hw), (hw, 0.0), (0.0, hw), (-hw, 0.0))
        corner_centers = ((0.5 * ls, -0.5 * ls), (0.5 * ls, 0.5 * ls),
                          (-0.5 * ls, 0.5 * ls), (-0.5 * ls, -0.5 * ls))

        segs = []
        t = 0.0
        s = 0.0

        def add(kind, duration, length, data, speed, yaw_rate):
            nonlocal t, s
            segs.append(_Segment(kind, t, duration, s, length, data, speed, yaw_rate))
            t += duration
            s += length

        x0 = cx + k_offsets[0][0]
        y0 = cy + k_offsets[0][1]
        add("straight", self.half_edge_time, 0.5 * ls, (x0, y0, headings[0]), v, 0.0)
        for i in range(4):
            ccx, ccy = corner_centers[i]
            add("arc", corner_time, arc_len,
                (cx + ccx, cy + ccy, headings[i]), self.arc_speed, self.arc_rate)
            if i < 3:
                ax, ay = self._arc_exit(cx + ccx, cy + ccy, headings[i])
                add("straight", self.edge_time, ls, (ax, ay, headings[i + 1]), v, 0.0)
        ax, ay = self._arc_exit(cx + corner_centers[3][0], cy + corner_centers[3][1],
                                headings[3])
        add("straight", self.half_edge_time, 0.5 * ls, (ax, ay, headings[0]), v, 0.0)
        self.segments = segs
        self._seg_ends = np.array([g.t0 + g.duration - 1e-12 for g in segs])
        self._seg_is_arc = np.array([g.kind == "arc" for g in segs])
        self._seg_columns = np.array([(g.t0, *g.data, g.speed, g.yaw_rate)
                                      for g in segs]).T

        self.k_points = np.array([(cx + ox, cy + oy) for ox, oy in k_offsets]
                                 + [(cx + k_offsets[0][0], cy + k_offsets[0][1])])
        # K2..K4 sit mid-straight; K5 repeats K1 at lap closure.
        self.k_times = np.array(
            [0.0] + [segs[2 + 2 * i].t0 + self.half_edge_time for i in range(3)]
            + [self.lap_time])

        # Tangency marks: A(2g-1) and A(2g) are the entry and exit of group
        # g's full straight, segments[2g].  Each mark's clock is the entry of
        # the segment it begins: A8 begins the first corner, early in the lap.
        self.a_points = np.array([
            (x0 + d * math.cos(h), y0 + d * math.sin(h))
            for x0, y0, h in (seg.data for seg in segs[2::2]) for d in (0.0, ls)])
        self.a_times = np.array([seg.t0 for seg in segs[2:] + segs[1:2]])

    def _arc_exit(self, ccx, ccy, heading0):
        h1 = heading0 + 0.5 * math.pi
        r = self.spec.corner_radius
        return ccx + r * math.sin(h1), ccy - r * math.cos(h1)

    # -- sampling ---------------------------------------------------------

    # The chassis reference's columns: pose and body rates.  sample_rows
    # gives them in this order, and the step loop reads them by position.
    REFERENCE_COLUMNS = ("x", "y", "heading", "v", "w")

    def sample_rows(self, t) -> np.ndarray:
        """The reference at the lap clocks t (periodic), one row of
        REFERENCE_COLUMNS per clock.  A clock falls in the first segment
        ending more than 1e-12 s after it, else in the last one."""
        tm = np.fmod(np.asarray(t, dtype=float), self.lap_time)
        tm = np.where(tm < 0.0, tm + self.lap_time, tm)
        k = np.minimum(np.searchsorted(self._seg_ends, tm, side="right"),
                       len(self.segments) - 1)
        arc = self._seg_is_arc[k]
        t0, a, b, h0, speed, rate = self._seg_columns[:, k]
        tau = tm - t0
        h = h0 + rate * tau  # a straight's rate is 0: h0, for any tau
        c, s = np.cos(h), np.sin(h)
        r = self.spec.corner_radius
        return np.column_stack([
            np.where(arc, a + r * s, a + speed * tau * c),
            np.where(arc, b - r * c, b + speed * tau * s), h, speed, rate])

    # -- stage II geometry -------------------------------------------------

    def on_straight(self, group: int, along: float) -> tuple:
        """Place the point along metres (0 to the edge length) past the entry
        mark of group 1..4's full straight, segments[2 * group].

        Returns (s, step, pose): its path length from the lap start, the
        control step of its lap clock, and the reference (X, Y, heading)
        held at that step.  Group 4 is the opening leg, split by K1: a point
        past K1, or short of it by 1e-9 m or less, lies on the lap's first
        half edge, clamped to start at K1, so a point on K1 parks at lap
        step 0 however its last bits round.
        """
        seg = self.segments[2 * group]
        if group == 4 and along >= seg.length - 1e-9:
            seg, along = self.segments[0], max(along - seg.length, 0.0)
        step = round((seg.t0 + along / seg.speed) / self.dt)
        pose = tuple(self.sample_rows([step * self.dt])[0, :3].tolist())
        return seg.s0 + along, step, pose


# -- sweeps ---------------------------------------------------------------


@dataclass
class SweepPath:
    """Piecewise-linear raster over one crib face."""

    edge_index: int
    vertices: np.ndarray      # (M, 3) world metres
    cum_lengths: np.ndarray   # (M,) arc length at each vertex
    speed: float
    pitch: float

    @property
    def length(self) -> float:
        return float(self.cum_lengths[-1])

    @property
    def duration(self) -> float:
        return self.length / self.speed

    def positions_at(self, times_rel) -> np.ndarray:
        """World positions at times from sweep start; holds the final point."""
        s = np.clip(np.asarray(times_rel, dtype=float) * self.speed,
                    0.0, self.length)
        out = np.empty((len(s), 3))
        for k in range(3):
            out[:, k] = np.interp(s, self.cum_lengths, self.vertices[:, k])
        return out


def build_sweep(edge_index: int, sweep, fire, circuit: Circuit) -> SweepPath:
    """Raster for the crib face adjacent to a Stage I leg (1..4), from the
    scenario's SweepConfig and FireTestConfig sections.

    Legs wrap the crib anti-clockwise starting from the face the opening leg
    runs along; the raster's first pass starts at the trailing end of the face
    so the tool leads the platform.  Raises InfeasibleSweep when the raster
    cannot finish within one edge's straight-segment time.
    """
    if not 1 <= edge_index <= 4:
        raise InfeasibleSweep("edge index must be 1..4")
    if sweep.passes < 1:
        raise InfeasibleSweep("sweep needs at least one pass")
    # The passes' horizontal runs alone take passes * span / speed, so a
    # count a whole pass past fits cannot finish in time, however the full
    # path's length rounds.  The int is compared with the float exactly, so
    # a count too large for a float is rejected too, before any vertex.
    fits = (circuit.edge_time + 1e-9) * sweep.speed / sweep.horizontal_span
    if sweep.passes > fits + 1.0:
        raise InfeasibleSweep(
            "sweep over face %d has too many passes: each takes %.3f s and "
            "the edge allows %.3f s" % (edge_index, sweep.horizontal_span
                                        / sweep.speed, circuit.edge_time))
    cx, cy = circuit.spec.center
    half = 0.5 * fire.crib_side
    hs = 0.5 * sweep.horizontal_span

    # Face frame: p0 is the pass start, u the horizontal travel direction.
    p0, u = map(np.array, {
        1: ([cx - hs, cy - half], [1.0, 0.0]),    # face at -y, travelling +x
        2: ([cx + half, cy - hs], [0.0, 1.0]),    # face at +x, travelling +y
        3: ([cx + hs, cy + half], [-1.0, 0.0]),   # face at +y, travelling -x
        4: ([cx - half, cy + hs], [0.0, -1.0]),   # face at -x, travelling -y
    }[edge_index])

    rise = sweep.vertical_span / (sweep.passes - 1) if sweep.passes > 1 else 0.0
    far = p0 + sweep.horizontal_span * u
    verts = []
    for j in range(sweep.passes):
        z = sweep.base_height + j * rise
        start, stop = (p0, far) if j % 2 == 0 else (far, p0)
        verts.append([start[0], start[1], z])   # vertical hop between passes
        verts.append([stop[0], stop[1], z])
    vertices = np.array(verts)
    deltas = np.diff(vertices, axis=0)
    seg_len = np.sqrt((deltas ** 2).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    path = SweepPath(edge_index=edge_index, vertices=vertices, cum_lengths=cum,
                     speed=float(sweep.speed), pitch=sweep.pitch_deg * DEG)
    if path.duration > circuit.edge_time + 1e-9:
        raise InfeasibleSweep(
            "sweep over face %d needs %.3f s but the edge allows %.3f s"
            % (edge_index, path.duration, circuit.edge_time))
    return path


# -- stage II assignment --------------------------------------------------


@dataclass(frozen=True)
class Stop:
    """A chassis halt for one residual fire.

    point, heading and path_distance are what `mobman plan` reports, not
    the order key; step and pose, from Circuit.on_straight, are where Stage
    II halts and the pose that reach is judged and the arm aims from.
    """

    fire: object            # FireConfig entry: ident and world position (m)
    nearest_a: int          # 1..8
    group: int              # 1..4
    point: tuple            # stop position on the group straight (m)
    heading: float
    path_distance: float    # metres along the lap from K1
    step: int               # control step of the stop on the Stage II lap
    pose: tuple             # reference (X, Y, heading) parked at that step


def assign_fires(fires, circuit: Circuit) -> list:
    """Group each fire (a FireConfig entry) by its nearest tangency mark and
    drop a stop on that group's straight at the clamped perpendicular
    projection of the fire; Circuit.on_straight places it on the lap.

    Returns one Stop per fire, ordered by lap step and then fire ident, so
    one extra pass from K1 services them all.  Marks within 1e-9 m of the
    nearest distance tie, and a tie goes to the lowest-numbered mark.
    """
    stops = []
    for fire in fires:
        p = np.array(fire.position[:2], dtype=float)
        d = np.hypot(*(circuit.a_points - p).T)
        nearest = int(np.argmax(d <= d.min() + 1e-9))
        group = nearest // 2 + 1
        start, end = circuit.a_points[2 * group - 2:2 * group]
        heading = circuit.segments[2 * group].data[2]
        u = np.array([math.cos(heading), math.sin(heading)])
        along = float(np.clip((p - start) @ u, 0.0, np.hypot(*(end - start))))
        point = start + along * u
        s, step, pose = circuit.on_straight(group, along)
        stops.append(Stop(fire=fire, nearest_a=nearest + 1, group=group,
                          point=(float(point[0]), float(point[1])),
                          heading=heading, path_distance=s, step=step,
                          pose=pose))
    stops.sort(key=lambda s: (s.step, s.fire.ident))
    return stops


@dataclass(frozen=True)
class Stage2Slot:
    """One served stop: the nozzle pitch and the four joint angles (rad)
    that aim the arm at the stop's fire from its parking pose, and the
    dwell (s) spent spraying it."""

    stop: Stop
    pitch: float
    joints: tuple
    dwell: float


def dispatch(stops: list, budget: float, pitch: float, geometry: ArmGeometry):
    """Aim the arm at each stop's fire and split the spray budget.

    The stops come from assign_fires, the budget is the FireTestConfig
    stage2_budget and pitch (rad) is the sweep pitch, tried before
    PITCH_GRID; one scan_pitch from each stop's parking pose, the reference
    the chassis holds while it sprays, gives the first pitch in range and
    its joints.  The budget is split evenly over the reachable stops.
    Fires the arm cannot reach from there are skipped and returned flagged
    rather than raised.
    Returns (slots, flagged): a Stage2Slot per reachable stop, in stop
    order, and (fire, reason) pairs.
    """
    pitches = np.array((pitch,) + PITCH_GRID)
    scans = [(stop,) + scan_pitch(target_in_base_frame(
        stop.pose, stop.fire.position, pitches), geometry) for stop in stops]
    flagged = [(stop.fire, "unreachable from stop: %s" % reason)
               for stop, chosen, reason in scans if chosen is None]
    dwell = budget / max(len(stops) - len(flagged), 1)
    return [Stage2Slot(stop, chosen, joints, dwell)
            for stop, chosen, joints in scans if chosen is not None], flagged
