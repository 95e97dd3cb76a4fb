"""Closed-loop mission simulation on a fixed control grid.

A run takes three steps.  The planner (mobman.planning) lays the mission out
as one phase timeline and derives from it the chassis reference, the state
labels and markers, and the arm's joint reference.  The control loop then
runs two passes on plain floats, each filling and returning a table of its
own and reading the reference tables as tuples zipped over per-block column
lists, so it builds no container per row.  The chassis pass checks the
disturbance series against its bounds once, then runs the chassis law and
reduced velocity dynamics over the whole run.  The arm, fixed-base and never
acting on the chassis, follows in its own pass: its law and its full
rigid-body dynamics under zero-order-hold torques.  Each plant steps by the
scenario's rule (the explicit midpoint rule, or Euler's): plant_step the 3
pose floats, arm_step the 8 arm floats.  Every SolveFailure, for a
non-finite state (named chassis or arm) or a mass matrix that is not
positive definite, names the step and its time; a chassis failure, such as
a heading overflowing to NaN (util.wrap_angle), ends the run before the arm
pass starts.  The two tables meet only in the log, a fixed schema that adds
the target, tool and wheel-speed columns and round-trips through CSV bit
for bit.  export writes the run's files one at a time, each in blocks of
rows.

A run's memory peaks in its arm pass or, at dt 2 ms and below, in the FK
that forms the target columns after it.  The arm pass holds both pass
tables, the chassis reference, q_r, qd_r, qdd_r and the time column, 42
floats a row, and a block of the arm's reference tables as Python floats
(the chassis pass: 32, with the disturbance for the arm's table).  The FK
holds 34 of those floats and its temporaries: 370 B a row at 1 ms, to the
arm pass's 362.  Each table goes when its last reader is done, so the tool
columns and compute_metrics stay under those two.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import orjson

from . import metrics as metrics_mod
from .arm_control import control_law
from .chassis_control import (chassis_tick, check_disturbance, plant_step,
                              wheel_speeds)
from .config import ScenarioConfig, disturbance_series
from .dynamics import ArmDynamics, arm_step, inertial_params
from .errors import EmptyLog, ParseError, SolveFailure
from .kinematics import forward_kinematics
from .planning import (MissionPlan, _arm_reference, _chassis_reference,
                       _labels_and_events, plan_mission)
from .util import DEG

# Each pass's table's columns; CSV_NUMERIC adds the derived ones.
_CHASSIS_COLUMNS = ["X", "Y", "phi", "v", "w", "e1", "e2", "e3", "s1", "s2",
                    "u1", "u2"]
_ARM_COLUMNS = ["q1", "q2", "q3", "q4", "qd1", "qd2", "qd3", "qd4",
                "tau1", "tau2", "tau3", "tau4"]
CSV_NUMERIC = (_CHASSIS_COLUMNS + ["vL", "vR"] + _ARM_COLUMNS
               + ["eeX", "eeY", "eeZ", "tgtX", "tgtY", "tgtZ"])
CSV_COLUMNS = ["time", "state"] + CSV_NUMERIC + ["event"]
_ROW = struct.Struct("12d")  # a pass's row: packing copies each float's bits
# Rows per block of reference floats in the loop and of CSV text in export.
# A block's Python objects take about 0.4 kB a row in the arm pass (0.2 in
# the chassis pass) and 2.8 kB in export: at 512 rows, 0.2 MB (a fortieth of
# a stock run's loop tables) and 1.4 MB.  Larger blocks only raise the peak;
# 2048-row blocks timed no faster.
_BLOCK_ROWS = 512
# Lines per batch of from_csv: one orjson.loads, or one row-by-row read, per
# batch.  A batch's lines and floats are the reader's only Python objects:
# reading 10,000 rows peaks at 1.5 times the returned arrays, and at 2.0
# times with 512-line batches.
_JSON_ROWS = 128


class SimLog:
    """Column-oriented run log with metadata and per-row event markers.

    The state and event lists are kept as given, not copied: a run's log
    shares them with run_mission, which holds them through compute_metrics.
    A log read by from_csv, like a run's log, holds one string per distinct
    state label, so its state list costs a pointer a row.
    """

    def __init__(self, meta, time, state: list, values, event: list):
        self.meta = dict(meta)
        self.time = np.asarray(time, dtype=float)
        self.state = state
        self.values = {k: np.asarray(values[k], dtype=float)
                       for k in CSV_NUMERIC}
        self.event = event

    @property
    def n_rows(self) -> int:
        return len(self.time)

    def _meta_lines(self) -> str:
        return "".join("#%s=%s\n" % (key, repr(float(value)) if isinstance(
            value, float) else value) for key, value in self.meta.items())

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read a log written as export's timeseries.csv.

        The body is read _JSON_ROWS lines at a time into one preallocated
        column-major table.  One orjson.loads of a batch's numeric cells,
        joined into a flat JSON array, reads them with the same correctly
        rounded parse as float(); the batch is kept if every row has its
        cells and every item is a float, one per cell, as for every batch
        export writes.  Any other batch (an integer spelling such as 1 or
        -0, nan, inf, a quoted cell, a bad row) is read again row by row,
        each numeric cell by float() but for 1_0 and non-ASCII digits, so
        the first bad line in the file is the one named.  Each distinct
        state label is one string for the whole read, as in a run's log;
        empty event cells share one string too.
        """
        meta: dict = {}
        n = 0
        state = []
        event = []
        labels: dict = {}
        with open(path, encoding="utf-8") as fh:
            # The line count bounds the data rows: the table is never grown.
            # Counting decodes the whole file, so a byte that is not UTF-8
            # fails here.
            try:
                count = sum(1 for _ in fh)
            except UnicodeDecodeError as exc:
                raise ParseError("%s: %s" % (path, exc)) from exc
            # Columns: time, then CSV_NUMERIC.
            table = np.empty((count, 1 + len(CSV_NUMERIC)), order="F")
            fh.seek(0)
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                if not line.startswith("#"):
                    if line.split(",") != CSV_COLUMNS:
                        raise ParseError("line %d: unexpected header" % lineno)
                    break
                if "=" not in line:
                    raise ParseError("line %d: bad metadata line" % lineno)
                key, _, val = line[1:].partition("=")
                # flagged lists fire idents, text even where one reads as
                # a number, such as 007.
                meta[key] = val if key == "flagged" else _parse_meta_value(val)
            else:
                raise ParseError("no header line found")
            body = enumerate((raw.rstrip("\n") for raw in fh),
                             start=lineno + 1)
            while batch := list(itertools.islice(body, _JSON_ROWS)):
                rows = [row for row in batch if row[1]]
                _parse_rows(rows, table[n:n + len(rows)], state, event,
                            labels)
                n += len(rows)
        if not n:
            raise EmptyLog("log file has no data rows")
        return cls(meta, table[:n, 0], state,
                   dict(zip(CSV_NUMERIC, table[:n, 1:].T)), event)


def _parse_rows(rows: list, out: np.ndarray, state: list, event: list,
                labels: dict) -> None:
    """Parse the numeric cells of rows, (line number, line) pairs of data
    rows, into out, and append their state and event cells to state and
    event, each state cell as the string labels holds for it (its first
    occurrence, which labels then keeps).  _json_cells reads the batch at
    once; failing that, each row is read in order, and the first with the
    wrong cell count or a cell _float_cell rejects raises the ParseError
    naming its line."""
    numbers = []
    for _, line in rows:
        time, _, rest = line.partition(",")
        label, _, rest = rest.partition(",")
        cells, _, mark = rest.rpartition(",")
        numbers += (time, cells)
        state.append(labels.setdefault(label, label))
        event.append(mark)
    if (all(line.count(",") == len(CSV_COLUMNS) - 1 for _, line in rows)
            and _json_cells(",".join(numbers), out)):
        return
    for row, (lineno, line) in zip(out, rows):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError("line %d: expected %d cells, got %d"
                             % (lineno, len(CSV_COLUMNS), len(cells)))
        try:
            row[:] = list(map(_float_cell, [cells[0], *cells[2:-1]]))
        except ValueError as exc:
            raise ParseError("line %d: %s" % (lineno, exc)) from exc


def _json_cells(text: str, out: np.ndarray) -> bool:
    """Parse text, the numeric cells of len(out) rows joined by commas, as
    one JSON array into out; False, leaving out to the caller, unless every
    item is a float, one per cell.

    orjson reads a number it returns as a float exactly as float() does.
    But it returns 1 and -0 as ints (-0 losing its sign), and "1.5", true
    and null as types np.fromiter would still convert, and a cell such as
    [1.0 nests the array: a batch with any item not a float is left to the
    row-by-row read.
    """
    try:
        flat = orjson.loads("[%s]" % text)
    except orjson.JSONDecodeError:
        return False
    if len(flat) != out.size or set(map(type, flat)) != {float}:
        return False
    out[:] = np.fromiter(flat, float, len(flat)).reshape(out.shape)
    return True


def _float_cell(cell: str) -> float:
    """float() of one numeric cell stripped of whitespace (str.strip's, which
    takes more than float()'s); a digit separator (1_0) or a non-ASCII
    character left inside, such as a non-ASCII digit, is rejected."""
    text = cell.strip()
    if "_" not in text and text.isascii():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError("could not convert string to float: %r" % cell)


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


@dataclass
class MissionResult:
    """One run: its log, the metrics report computed from that log, and
    the plan that produced both."""

    log: SimLog
    report: metrics_mod.MetricsReport
    plan: MissionPlan


def run_mission(config: ScenarioConfig) -> MissionResult:
    """Plan and execute the full mission; returns the log, its metrics and
    the plan that produced them."""
    plan = plan_mission(config)
    dt, n = plan.dt, plan.n_steps
    model = ArmDynamics(inertial_params(config.inertial, plan.geometry),
                        plan.geometry)

    refs = _chassis_reference(plan)
    labels, events = _labels_and_events(plan)
    qr, qdr, qddr = _arm_reference(plan, refs)
    time = np.arange(n + 1) * dt
    gains, (dx, dy, dh) = config.chassis_control, config.initial_pose_offset
    chassis = _chassis_pass(refs, disturbance_series(config.disturbance,
                                                     time[:n]),
                            (dx, dy, dh * DEG), gains, dt, config.integrator)
    arm = _arm_pass(model, (qr, qdr, qddr), config.arm_control, dt,
                    config.integrator)
    del qdr, qddr

    # The log's columns: strided views of the two tables, target and tool
    # positions by FK at the reference and at the logged pose and joints,
    # wheel speeds from (v, w).  Each table goes once its last reader is done.
    values = dict(zip(_CHASSIS_COLUMNS + _ARM_COLUMNS, [*chassis.T, *arm.T]))
    values["tgtX"], values["tgtY"], values["tgtZ"] = _tool_columns(
        qr, refs[:, :3].T, plan.geometry)
    del refs, qr
    values["eeX"], values["eeY"], values["eeZ"] = _tool_columns(
        arm[:, :4], chassis[:, :3].T, plan.geometry)
    values["vL"], values["vR"] = wheel_speeds(values["v"], values["w"],
                                              gains.track_width)

    meta = {
        "dt": float(dt),
        "integrator": config.integrator,
        "discharge_time": float(config.fire_test.discharge_time),
        "stage2_budget": float(config.fire_test.stage2_budget),
        "top_spray_duration": float(config.top_spray.duration),
        "band_e1_mm": float(config.band.e1_mm),
        "band_e2_mm": float(config.band.e2_mm),
        "band_e3_deg": float(config.band.e3_deg),
        "corner_time": float(plan.circuit.corner_time),
        "edge_time": float(plan.circuit.edge_time),
        "lap_time": float(plan.circuit.lap_time),
        "n_stops": len(plan.stage2),
        "n_flagged": len(plan.flagged),
        "flagged": ";".join(f.ident for f, _ in plan.flagged),
    }
    log = SimLog(meta, time, labels, values, events)
    report = metrics_mod.compute_metrics(log)
    return MissionResult(log=log, report=report, plan=plan)


def _chassis_pass(refs, dist, offset, gains, dt: float,
                  integrator: str) -> np.ndarray:
    """Run the chassis along refs from its first pose moved by offset (dx,
    dy m; dheading rad): plant_step under dist's row into each sample, then
    chassis_tick.  Returns its table, one row of _CHASSIS_COLUMNS a sample."""
    # Each channel's peak |f|, formed with no table the size of dist.
    peak = np.maximum(dist.max(axis=0, initial=0.0),
                      -dist.min(axis=0, initial=0.0))
    check_disturbance(peak, gains.f_bounds)
    table = np.empty((len(refs), 12))
    pack, row_bytes = _ROW.pack_into, table.strides[0]
    z, dist_rows = refs[0].tolist(), _float_rows(dist)
    z[:3] = z[0] + offset[0], z[1] + offset[1], z[2] + offset[2]
    for i, ref in enumerate(_float_rows(refs)):
        if i:
            z = plant_step(z, last, ref, u, next(dist_rows), dt, integrator)
            # A finite sum proves every float finite; an overflowing one
            # does not prove any of them infinite, so each is tested then.
            if not math.isfinite(sum(z)) and not all(map(math.isfinite, z)):
                raise SolveFailure("step %d (t=%.4f s): non-finite chassis "
                                   "state" % (i, i * dt))
        err, s, u = chassis_tick(ref, z, gains)
        pack(table, i * row_bytes, *z, *err, *s, *u)
        last = ref
    return table


def _arm_pass(model, tables, gains, dt: float, integrator: str) -> np.ndarray:
    """Run the arm along tables = (q_r, qd_r, qdd_r) from their first row:
    arm_step into each sample, then control_law on the kernel terms the next
    step reuses.  Returns its table, one row of _ARM_COLUMNS a sample."""
    table = np.empty((len(tables[0]), 12))
    pack, row_bytes = _ROW.pack_into, table.strides[0]
    q, qd = tables[0][0].tolist(), tables[1][0].tolist()
    try:
        for i, ref in enumerate(_float_rows(*tables)):
            if i:
                state = arm_step(model, q, qd, terms, tau, dt, integrator)
                if (not math.isfinite(sum(state))  # as in _chassis_pass
                        and not all(map(math.isfinite, state))):
                    raise SolveFailure("non-finite arm state")
                q, qd = state[:4], state[4:]
            terms = model._kernel(q, qd)
            tau = control_law(q, qd, ref, gains, terms)
            pack(table, i * row_bytes, *q, *qd, *tau)
    except SolveFailure as exc:
        raise SolveFailure("step %d (t=%.4f s): %s"
                           % (i, i * dt, exc)) from exc
    return table


def _tool_columns(joints, pose, geometry) -> tuple:
    """Global X, Y and Z (m) of the tool by FK of joints, an (n, 4) table,
    at the chassis poses pose, rows x, y and heading."""
    tool = forward_kinematics(joints, geometry)
    x, y, heading = pose
    c, s = np.cos(heading), np.sin(heading)
    return (x + (tool.x * c - tool.y * s) * 1e-3,
            y + (tool.x * s + tool.y * c) * 1e-3, tool.z * 1e-3)


def _float_rows(*tables: np.ndarray):
    """The rows of 2-D tables of one length, set side by side, as tuples of
    floats.  Each block of _BLOCK_ROWS rows becomes one float list per
    column, which zip reads across, so no container is built per row."""
    return itertools.chain.from_iterable(
        zip(*[c for t in tables for c in t[a:a + _BLOCK_ROWS].T.tolist()])
        for a in range(0, len(tables[0]), _BLOCK_ROWS))


def export(result: MissionResult, directory) -> list:
    """Write the run artifacts, each file in one pass of its own, and return
    their paths: the full log, the metrics report, four column subsets."""
    os.makedirs(directory, exist_ok=True)
    subsets = {"trajectory.csv": ["time", "X", "Y", "phi"],
               "tracking_errors.csv": ["time", "e1", "e2", "e3", "s1", "s2"],
               "joint_torques.csv": ["time", "tau1", "tau2", "tau3", "tau4"],
               "wheel_speeds.csv": ["time", "vL", "vR"]}
    paths = [os.path.join(directory, name)
             for name in ("timeseries.csv", "metrics.json", *subsets)]
    _write_table(result.log, paths[0], CSV_COLUMNS)
    _write_json(paths[1], result.report)
    for path, columns in zip(paths[2:], subsets.values()):
        _write_table(result.log, path, columns)
    return paths


def _write_json(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
        fh.write("\n")


def _write_table(log: SimLog, path, columns: list) -> None:
    """Write the log's columns to path as a CSV: CSV_COLUMNS, the full log
    after its metadata lines, or numeric columns only.

    The file is written in one pass, _BLOCK_ROWS rows at a time, so memory
    stays flat on long logs: one orjson call formats the block's numeric
    columns, set side by side, with the shortest digits that round-trip, in
    orjson's spelling (1e16, 1e-7, 0.000012, -0.0); the full log then gets
    each row's state and event cells spliced in.  orjson writes NaN and
    infinities as null: those cells alone take repr (nan, inf, -inf), so
    every file spells a value alike and from_csv reads every value back bit
    for bit.
    """
    labelled = columns == CSV_COLUMNS
    source = {"time": log.time, **log.values}
    numeric = [source[c]
               for c in (["time", *CSV_NUMERIC] if labelled else columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((log._meta_lines() if labelled else "")
                 + ",".join(columns) + "\n")
        for a in range(0, log.n_rows, _BLOCK_ROWS):
            b = a + _BLOCK_ROWS
            rows = _csv_rows(np.column_stack([c[a:b] for c in numeric]))
            if labelled:
                # The state cell goes after the time cell, the event last.
                rows = [f"{r.replace(',', f',{s},', 1)},{e}" for r, s, e
                        in zip(rows, log.state[a:b], log.event[a:b])]
            fh.write("\n".join(rows) + "\n")


def _csv_rows(table: np.ndarray) -> list:
    """Each row of a 2-D float table as its cells joined by commas: orjson's
    text, with repr's spelling only for the non-finite cells."""
    text = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)
    rows = text[2:-2].decode().split("],[")
    for i, j in zip(*np.nonzero(~np.isfinite(table))):
        cells = rows[i].split(",")
        cells[j] = repr(float(table[i, j]))
        rows[i] = ",".join(cells)
    return rows
