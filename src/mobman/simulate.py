"""Closed-loop mission simulation on a fixed control grid.

A run takes three steps.  The planner (mobman.planning) lays the mission out
as one phase timeline and derives from it the chassis reference, the state
labels and markers, and the arm's joint reference.  The step loop then
marches both controllers and plants on plain floats, reading the reference
tables as tuples zipped over per-block column lists, so it builds no
container per row.  The disturbance series is checked against its bounds
once, before the first step.  The chassis follows its reduced velocity
dynamics, the arm its full rigid-body dynamics under zero-order-hold
torques, and one plant_step call per step advances the chassis pose and the
arm together by the scenario's rule (the explicit midpoint rule, or
Euler's) over their 3 pose and 8 arm floats.  Every SolveFailure the loop
raises, for a non-finite state or a mass matrix that is not positive
definite, names the step and its time; a heading that overflows wraps to
NaN (util.wrap_angle), which the finiteness check catches.  The loop logs
only what the plants and the laws produce, 24 values a step; a vectorised
pass last derives the tool, target and wheel-speed columns into a
fixed-schema log that round-trips through CSV bit for bit.

A run's memory peaks in the step loop.  It holds the row table, the chassis
reference, q_r, qd_r, qdd_r, the disturbance and the time column, 49 floats
a row, and one block of each reference table as Python floats.  The tables
are released as their last reader finishes: qd_r, qdd_r and the disturbance
when the loop ends, the chassis reference and q_r once the target columns
are derived.  The tool's FK temporaries die with _tool_columns, and
compute_metrics stacks only the sweep windows' rows, so neither the derived
columns nor the metrics outgrow the loop.
"""
from __future__ import annotations

import contextlib
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
from .dynamics import ArmDynamics, inertial_params
from .errors import EmptyLog, ParseError, SolveFailure
from .kinematics import forward_kinematics
from .planning import (MissionPlan, _arm_reference, _chassis_reference,
                       _labels_and_events, plan_mission)

CSV_NUMERIC = ["X", "Y", "phi", "v", "w", "e1", "e2", "e3", "s1", "s2",
               "u1", "u2", "vL", "vR",
               "q1", "q2", "q3", "q4", "qd1", "qd2", "qd3", "qd4",
               "tau1", "tau2", "tau3", "tau4",
               "eeX", "eeY", "eeZ", "tgtX", "tgtY", "tgtZ"]
CSV_COLUMNS = ["time", "state"] + CSV_NUMERIC + ["event"]
_STEP_COLUMNS = CSV_NUMERIC[:12] + CSV_NUMERIC[14:26]  # the loop's columns
# One step's row of native doubles: packing copies each float's bits.
_STEP_ROW = struct.Struct("%dd" % len(_STEP_COLUMNS))
# Rows per block of reference floats in the loop and of CSV text in export.
# A block's Python objects take about 0.8 kB a row in the loop and 2.8 kB in
# export: at 512 rows, 0.4 MB (a twenty-fifth of a stock run's loop tables)
# and 1.4 MB.  Larger blocks only raise the peak; 2048-row blocks timed no
# faster.
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
        the first bad line in the file is the one named.
        """
        meta: dict = {}
        n = 0
        state = []
        event = []
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
                _parse_rows(rows, table[n:n + len(rows)], state, event)
                n += len(rows)
        if not n:
            raise EmptyLog("log file has no data rows")
        return cls(meta, table[:n, 0], state,
                   dict(zip(CSV_NUMERIC, table[:n, 1:].T)), event)


def _parse_rows(rows: list, out: np.ndarray, state: list,
                event: list) -> None:
    """Parse the numeric cells of rows, (line number, line) pairs of data
    rows, into out, and append their state and event cells to state and
    event.  _json_cells reads the batch at once; failing that, each row is
    read in order, and the first with the wrong cell count or a cell
    _float_cell rejects raises the ParseError naming its line."""
    numbers = []
    for _, line in rows:
        time, _, rest = line.partition(",")
        label, _, rest = rest.partition(",")
        cells, _, mark = rest.rpartition(",")
        numbers += (time, cells)
        state.append(label)
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
    dt = plan.dt
    n = plan.n_steps
    model = ArmDynamics(inertial_params(config.inertial, plan.geometry),
                        plan.geometry)

    refs = _chassis_reference(plan)
    labels, events = _labels_and_events(plan)
    qr, qdr, qddr = _arm_reference(plan, refs)

    gains = config.chassis_control
    dist = disturbance_series(config.disturbance, np.arange(n) * dt)
    check_disturbance(np.abs(dist).max(axis=0, initial=0.0), gains.f_bounds)

    # One row per sample in _STEP_COLUMNS order, row-major so each step
    # packs its row in one call; the log's columns are strided views of it.
    rows = np.zeros((n + 1, len(_STEP_COLUMNS)))
    pack_row, row_bytes = _STEP_ROW.pack_into, rows.strides[0]
    time = np.arange(n + 1) * dt

    # The step runs on plain floats: z, q and qd are lists, and the
    # reference tables are read as tuples of floats, converted a block at a
    # time (converting them whole would hold every float at once).
    # chassis_tick and plant_step read a reference row by position, the arm
    # law one row of q_r, qd_r and qdd_r set side by side.
    ref_rows = _float_rows(refs)
    dist_rows = _float_rows(dist)
    ref = next(ref_rows)
    off = config.initial_pose_offset
    z = [ref[0] + off[0], ref[1] + off[1], ref[2] + off[2] * math.pi / 180.0,
         ref[3], ref[4]]
    q = qr[0].tolist()
    qd = qdr[0].tolist()
    arm_gains, integrator, kernel = (config.arm_control, config.integrator,
                                     model._kernel)

    try:
        for i, arm_ref in zip(range(n + 1), _float_rows(qr, qdr, qddr)):
            err, s, u = chassis_tick(ref, z, gains)
            # The model at (q, qd), shared by the arm law and the arm step.
            terms = kernel(q, qd)
            tau = control_law(q, qd, arm_ref, arm_gains, terms)
            pack_row(rows, i * row_bytes, *z, *err, *s, *u, *q, *qd, *tau)
            if i == n:
                break
            ref_next = next(ref_rows)
            # One plant step advances the pose and the arm, which rides on
            # the chassis; the arm's rates at the step start reuse terms.
            state = plant_step(z, ref, ref_next, u, next(dist_rows), dt,
                               integrator, (model, q, qd, terms, tau))
            # A finite sum proves every float finite; an overflowing one
            # does not prove any of them infinite, so each is tested then.
            if (not math.isfinite(sum(state))
                    and not all(map(math.isfinite, state))):
                raise SolveFailure("non-finite chassis or arm state")
            z, q, qd = state[:5], state[5:9], state[9:]
            ref = ref_next
    except SolveFailure as exc:
        # Only the plant step can fail, and it was computing step i + 1.
        raise SolveFailure("step %d (t=%.4f s): %s"
                           % (i + 1, (i + 1) * dt, exc)) from exc

    # Derived columns: target then tool positions by FK at the reference
    # and the logged chassis pose and joints, wheel speeds from (v, w).  Each
    # table goes once its last reader is done, so the loop stays the peak.
    del qdr, qddr, dist, dist_rows, ref_rows
    values = dict(zip(_STEP_COLUMNS, rows.T))
    values["tgtX"], values["tgtY"], values["tgtZ"] = _tool_columns(
        qr, refs[:, :3].T, plan.geometry)
    del refs, qr
    values["eeX"], values["eeY"], values["eeZ"] = _tool_columns(
        rows[:, 12:16], rows[:, :3].T, plan.geometry)
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
    """Write the run artifacts; returns the created paths."""
    os.makedirs(directory, exist_ok=True)
    tables = {"timeseries.csv": (result.log._meta_lines(), CSV_COLUMNS),
              "trajectory.csv": ("", ["time", "X", "Y", "phi"]),
              "tracking_errors.csv": ("", ["time", "e1", "e2", "e3", "s1",
                                           "s2"]),
              "joint_torques.csv": ("", ["time", "tau1", "tau2", "tau3",
                                         "tau4"]),
              "wheel_speeds.csv": ("", ["time", "vL", "vR"])}
    paths = [os.path.join(directory, name) for name in tables]
    _write_tables(result.log, dict(zip(paths, tables.values())))
    paths.insert(1, os.path.join(directory, "metrics.json"))
    _write_json(paths[1], result.report)
    return paths


def _write_json(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
        fh.write("\n")


def _write_tables(log: SimLog, tables: dict) -> None:
    """Write each path -> (preamble, columns) in tables as a CSV of the log;
    columns are CSV_COLUMNS or numeric columns only.

    All files are fed together, _BLOCK_ROWS rows at a time: one orjson call
    formats a file's numeric columns of the block, set side by side, with
    the shortest digits that round-trip, in orjson's spelling (1e16, 1e-7,
    0.000012, -0.0); timeseries.csv then gets each row's state and event
    cells spliced in.  orjson writes NaN and infinities as null: those cells
    alone take repr (nan, inf, -inf), so every file spells a value alike
    and from_csv reads every value back bit for bit.  Blocks keep memory
    flat on long logs.
    """
    source = {"time": log.time, **log.values}
    with contextlib.ExitStack() as stack:
        files = []
        for path, (preamble, cols) in tables.items():
            fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            fh.write(preamble + ",".join(cols) + "\n")
            labelled = cols == CSV_COLUMNS
            numeric = ["time", *CSV_NUMERIC] if labelled else cols
            files.append((fh, [source[c] for c in numeric], labelled))
        for a in range(0, log.n_rows, _BLOCK_ROWS):
            b = a + _BLOCK_ROWS
            for fh, columns, labelled in files:
                rows = _csv_rows(np.column_stack([c[a:b] for c in columns]))
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
