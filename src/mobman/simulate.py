"""Closed-loop mission simulation on a fixed control grid.

A run takes three steps.  The planner (mobman.planning) lays the mission out
as one phase timeline and derives from it the chassis reference, the state
labels and markers, and the arm's joint reference.  The step loop then
marches both controllers and plants on plain float lists, reading the
reference tables as float rows: the chassis follows its reduced velocity
dynamics, the arm its full rigid-body dynamics under zero-order-hold
torques, and one plant_step call per step advances the chassis pose and the
arm together by the scenario's rule (the explicit midpoint rule, or Euler's)
over their 3 pose and 8 arm floats.
A vectorised pass last derives the tool, target and wheel-speed columns
into a fixed-schema log that round-trips through CSV bit for bit.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import struct
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
import orjson

from . import metrics as metrics_mod
from .arm_control import control_law
from .chassis_control import (chassis_tick, check_disturbance, plant_step,
                              wheel_speeds)
from .config import ScenarioConfig, build_inertial, disturbance_series
from .dynamics import ArmDynamics
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
_NUMERIC_CELLS = [0, *range(2, len(CSV_COLUMNS) - 1)]  # time, CSV_NUMERIC
_STEP_COLUMNS = CSV_NUMERIC[:12] + CSV_NUMERIC[14:26]  # the loop's columns
# One step's row of native doubles: packing copies each float's bits.
_STEP_ROW = struct.Struct("%dd" % len(_STEP_COLUMNS))
_BLOCK_ROWS = 2048  # rows per block of CSV text or of reference floats
_JSON_ROWS = 128  # rows per orjson.loads, to bound its list of floats
# orjson's e-7 is repr's e-07; a lookahead lets sub() insert a literal "0".
_ONE_DIGIT_EXP = re.compile(rb"e-(?=\d(?!\d))")


class SimLog:
    """Column-oriented run log with metadata and per-row event markers."""

    def __init__(self, meta, time, state, values, event):
        self.meta = dict(meta)
        self.time = np.asarray(time, dtype=float)
        self.state = list(state)
        self.values = {k: np.asarray(values[k], dtype=float)
                       for k in CSV_NUMERIC}
        self.event = list(event)

    @property
    def n_rows(self) -> int:
        return len(self.time)

    def _meta_lines(self) -> str:
        return "".join("#%s=%s\n" % (key, repr(float(value)) if isinstance(
            value, float) else value) for key, value in self.meta.items())

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read a log written as export's timeseries.csv.

        The body is read _BLOCK_ROWS lines at a time into one preallocated
        column-major table.  Each run of up to _JSON_ROWS lines is parsed
        by one orjson.loads of its numeric cells, joined into a flat JSON
        array, with the same correctly rounded parse as float(); the run
        is kept only if every item is a float, one per cell.  Any other
        run (an integer spelling such as 1 or -0, nan, inf, a quoted cell)
        goes to numpy's C tokenizer (np.loadtxt), which reads what float()
        reads except 1_0.  A block that fails is checked again line by
        line, so the first bad line in the file is the one named.
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
            table = np.empty((count, len(_NUMERIC_CELLS)), order="F")
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
            while chunk := [raw.rstrip("\n")
                            for raw in itertools.islice(fh, _BLOCK_ROWS)]:
                lines = [line for line in chunk if line]
                labels = _parse_rows(lines, table[n:n + len(lines)])
                if labels is None:
                    _raise_first_bad_row(chunk, lineno + 1)
                state += labels[0]
                event += labels[1]
                n += len(lines)
                lineno += len(chunk)
        if not n:
            raise EmptyLog("log file has no data rows")
        return cls(meta, table[:n, 0], state,
                   dict(zip(CSV_NUMERIC, table[:n, 1:].T)), event)


def _numeric_cells(lines: list) -> np.ndarray:
    """The time and CSV_NUMERIC cells of the data rows lines, one row each.
    No # starts a comment: a state or event cell may hold one."""
    return np.loadtxt(lines, delimiter=",", comments=None,
                      usecols=_NUMERIC_CELLS, ndmin=2)


def _parse_rows(lines: list, out: np.ndarray) -> tuple[list, list] | None:
    """Parse the numeric cells of the data rows lines into out and return
    their state and event cells as two lists; None when a row has the wrong
    cell count or a cell the parse rejects.  Each run of up to _JSON_ROWS
    rows is read by _json_cells, or failing that by _numeric_cells."""
    if any(line.count(",") != len(CSV_COLUMNS) - 1 for line in lines):
        return None
    state, event = [], []
    for a in range(0, len(lines), _JSON_ROWS):
        batch = lines[a:a + _JSON_ROWS]
        numbers = []
        for line in batch:
            time, _, rest = line.partition(",")
            label, _, rest = rest.partition(",")
            cells, _, mark = rest.rpartition(",")
            numbers += (time, cells)
            state.append(label)
            event.append(mark)
        rows = out[a:a + len(batch)]
        if not _json_cells(",".join(numbers), rows):
            try:
                rows[:] = _numeric_cells(batch)
            except ValueError:
                return None
    return state, event


def _json_cells(text: str, out: np.ndarray) -> bool:
    """Parse text, the numeric cells of len(out) rows joined by commas, as
    one JSON array into out; False, leaving out to the caller, unless every
    item is a float, one per cell.

    orjson reads a number it returns as a float exactly as float() does.
    But it returns 1 and -0 as ints (-0 losing its sign), and "1.5", true
    and null as types np.fromiter would still convert, and a cell such as
    [1.0 nests the array: a run with any item not a float is left to the
    block parse.
    """
    try:
        flat = orjson.loads("[%s]" % text)
    except orjson.JSONDecodeError:
        return False
    if len(flat) != out.size or set(map(type, flat)) != {float}:
        return False
    out[:] = np.fromiter(flat, float, len(flat)).reshape(out.shape)
    return True


def _raise_first_bad_row(chunk: list, first_lineno: int) -> NoReturn:
    """Raise the ParseError naming the first bad line of chunk, a block of
    lines starting at line first_lineno that _parse_rows rejected."""
    for lineno, line in enumerate(chunk, start=first_lineno):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError("line %d: expected %d cells, got %d"
                             % (lineno, len(CSV_COLUMNS), len(cells)))
        try:
            for cell in [cells[0]] + cells[2:-1]:
                float(cell)
            # Cells float() takes but the block parse does not, such as 1_0.
            _numeric_cells([line])
        except ValueError as exc:
            raise ParseError("line %d: %s" % (lineno, exc)) from exc
    raise AssertionError("lines %d-%d were rejected as a block but pass one "
                         "by one" % (first_lineno,
                                     first_lineno + len(chunk) - 1))


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


@dataclass
class MissionResult:
    log: SimLog
    report: metrics_mod.MetricsReport
    plan: MissionPlan


def run_mission(config: ScenarioConfig) -> MissionResult:
    """Plan and execute the full mission; returns the log, its metrics and
    the plan that produced them."""
    plan = plan_mission(config)
    dt = plan.dt
    n = plan.n_steps
    model = ArmDynamics(params=build_inertial(config, plan.geometry),
                        geometry=plan.geometry)

    refs = _chassis_reference(plan)
    labels, event_lists = _labels_and_events(plan)
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
    # reference tables are read as float rows a block at a time (converting
    # them whole up front would hold every row as Python floats at once).
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

    for i, arm_ref in zip(range(n + 1), _float_rows(qr, qdr, qddr)):
        err, s, u = chassis_tick(ref, z, gains)
        # The model at (q, qd), shared by the arm law and the arm step.
        terms = kernel(q, qd)
        tau = control_law(q, qd, arm_ref, arm_gains, terms)
        pack_row(rows, i * row_bytes, *z, *err, *s, *u, *q, *qd, *tau)
        if i == n:
            break
        ref_next = next(ref_rows)
        # One plant step advances the pose and the arm, which rides on the
        # chassis; the arm's rates at the step start reuse terms.
        state = plant_step(z, ref, ref_next, u, next(dist_rows), dt,
                           integrator, (model, q, qd, terms, tau))
        # A finite sum proves every float finite; an overflowing one does
        # not prove any of them infinite, so each is tested then.
        if (not math.isfinite(sum(state))
                and not all(map(math.isfinite, state))):
            raise SolveFailure("step %d (t=%.4f s): non-finite chassis or arm "
                               "state" % (i + 1, (i + 1) * dt))
        z, q, qd = state[:5], state[5:9], state[9:]
        ref = ref_next

    # Derived columns: tool and target positions by FK at the logged and the
    # reference chassis pose and joints (adjacent columns), wheel speeds from
    # (v, w).  Freeing the loop's rate references and disturbance first
    # keeps the pass's temporaries within the run's earlier peak RSS.
    del qdr, qddr, dist, dist_rows, ref_rows
    values = dict(zip(_STEP_COLUMNS, rows.T))
    for name, joints, (x, y, heading) in (
            ("ee", rows[:, 12:16], rows[:, :3].T), ("tgt", qr, refs[:, :3].T)):
        tool = forward_kinematics(joints, plan.geometry)
        c, sn = np.cos(heading), np.sin(heading)
        values[name + "X"] = x + (tool.x * c - tool.y * sn) * 1e-3
        values[name + "Y"] = y + (tool.x * sn + tool.y * c) * 1e-3
        values[name + "Z"] = tool.z * 1e-3
    values["vL"], values["vR"] = wheel_speeds(values["v"], values["w"],
                                              gains.track_width)

    meta = {
        "dt": float(dt),
        "integrator": config.integrator,
        "discharge_time": float(plan.fire_test.discharge_time),
        "stage2_budget": float(plan.fire_test.stage2_budget),
        "top_spray_duration": float(plan.top_spray.duration),
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
    log = SimLog(meta, time, labels, values,
                 [";".join(e) for e in event_lists])
    report = metrics_mod.compute_metrics(log)
    return MissionResult(log=log, report=report, plan=plan)


def _float_rows(*tables: np.ndarray):
    """The rows of 2-D tables of one length, set side by side, as float
    lists; one block of _BLOCK_ROWS rows is joined and converted at a time."""
    for a in range(0, len(tables[0]), _BLOCK_ROWS):
        yield from np.hstack([t[a:a + _BLOCK_ROWS] for t in tables]).tolist()


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
    """Write each path -> (preamble, columns) in tables as a CSV of the log.

    All files are fed together, _BLOCK_ROWS rows at a time: each numeric
    column any of them names is formatted once per block by _float_cells,
    with orjson's shortest digits, into text identical to repr's, so
    from_csv reads every value back bit for bit; every file gets one write
    per block.  Blocks keep memory flat on long logs.
    """
    source = {"time": log.time, "state": log.state, "event": log.event,
              **log.values}
    needed = list(dict.fromkeys(c for _, cols in tables.values() for c in cols))
    with contextlib.ExitStack() as stack:
        files = []
        for path, (preamble, cols) in tables.items():
            fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            fh.write(preamble + ",".join(cols) + "\n")
            files.append((fh, cols))
        for a in range(0, log.n_rows, _BLOCK_ROWS):
            cells = {}
            for c in needed:
                block = source[c][a:a + _BLOCK_ROWS]
                cells[c] = (block if isinstance(block, list)
                            else _float_cells(block))
            for fh, cols in files:
                fh.write("\n".join(map(",".join, zip(*map(cells.get, cols))))
                         + "\n")


def _float_cells(block: np.ndarray) -> list:
    """repr of each float of a non-empty 1-D block, as a list of str.

    orjson writes the same shortest round-trip digits as repr, several
    times faster, but spells exponents its own way (1e16, 1e-7 for repr's
    1e+16, 1e-07), writes the decade [1e-5, 1e-4) in fixed notation
    (0.000012 for 1.2e-05) and NaN and infinities as null.  The exponents
    are respelled in bulk when the text holds any, the decade's cells one
    by one from orjson's digits; only the non-finite cells take repr.
    """
    text = orjson.dumps(np.ascontiguousarray(block),
                        option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text:
        text = text.replace(b"e", b"e+").replace(b"e+-", b"e-")
        text = _ONE_DIGIT_EXP.sub(b"e-0", text)
    cells = text[1:-1].decode().split(",")
    size = np.abs(block)
    for i in np.flatnonzero((size >= 1e-5) & (size < 1e-4)).tolist():
        sign, _, d = cells[i].partition("0.0000")
        cells[i] = f"{sign}{d[0]}.{d[1:]}e-05" if d[1:] else f"{sign}{d}e-05"
    odd = np.flatnonzero(~np.isfinite(block))
    for i, x in zip(odd.tolist(), block[odd].tolist()):
        cells[i] = repr(x)
    return cells
