"""Post-run analysis of a mission log: tracking quality, phase timing, verdict.

Everything here is a pure function of the log contents (columns, event
markers and the ``#key=value`` metadata), so a report can be recomputed from
an exported CSV alone and must match the in-memory result bit for bit.

Timing bookkeeping: the discharge clock only counts time the nozzle is
working — the four straight-edge passes (Stage I), the optional top spray
and the Stage II dwells.  Corner transits and Stage II drive legs are wall
time, reported separately.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyLog, ParseError
from .util import DEG


@dataclass
class MetricsReport:
    """What compute_metrics finds in one log: tool and chassis tracking,
    phase timing (s), the discharge budget and its verdict, and the peak
    joint torques (N m) and wheel speed (m/s)."""

    # tool tracking during the spray sweeps (mm per axis, global frame)
    ee_avg_abs_err_mm: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    ee_max_abs_err_mm: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    ee_window_samples: int = 0
    # chassis tracking over the whole run
    chassis_max_abs_e1_mm: float = 0.0
    chassis_max_abs_e2_mm: float = 0.0
    chassis_max_abs_e3_deg: float = 0.0
    chassis_rms_e1_mm: float = 0.0
    chassis_rms_e2_mm: float = 0.0
    chassis_rms_e3_deg: float = 0.0
    convergence_time: float | None = None
    chatter_index: float = 0.0
    # phase timing (s)
    edge_times: list = field(default_factory=list)
    corner_times: list = field(default_factory=list)
    stage1_time: float | None = None        # sum of the four edge times
    stage1_wall_time: float | None = None   # K1 to K5 including corners
    top_spray_time: float = 0.0
    stage2_time: float = 0.0                # spray dwells only
    stage2_drive_time: float = 0.0
    mission_total_time: float | None = None
    wall_time: float = 0.0
    # budget bookkeeping
    discharge_time: float = 0.0
    stage2_budget: float = 0.0
    n_stops: int = 0
    n_flagged: int = 0
    verdict: str = "UNKNOWN"
    within_stage2_budget: bool | None = None
    # actuation
    max_joint_torques: list = field(default_factory=lambda: [0.0] * 4)
    max_wheel_speed: float = 0.0


def _event_steps(events) -> dict:
    """Map each marker in events, one cell a row, to the first row it fires."""
    table: dict = {}
    for i, entry in enumerate(events):
        for name in entry.split(";") if entry else ():
            table.setdefault(name, i)
    return table


def _sign_change_fraction(s: np.ndarray) -> float:
    sg = np.sign(s)
    nz = sg[sg != 0.0]
    if len(nz) < 2:
        return 0.0
    return float(np.mean(nz[1:] != nz[:-1]))


def _meta(meta: dict, key: str, cast=float):
    """meta[key] as cast; a missing key, or a value cast rejects, is a
    ParseError naming the key."""
    if key not in meta:
        raise ParseError("metadata %s: missing" % key)
    try:
        return cast(meta[key])
    except (TypeError, ValueError, OverflowError):
        raise ParseError("metadata %s: expected a number, got %r"
                         % (key, meta[key])) from None


def stage_timing(first: dict, t) -> MetricsReport:
    """A report with only its phase-timing fields set, from first, each
    marker's first row, and the time column t; raises ParseError for a
    missing sprayN_start."""
    report = MetricsReport()
    # Leg k runs K_k .. K_{k+1}; its corner is bracketed by the tangency
    # marks listed here in path order.
    leg_marks = ((8, 1), (2, 3), (4, 5), (6, 7))
    have_k = all("K%d" % k in first for k in range(1, 6))
    have_a = all("A%d" % a in first for a in range(1, 9))
    if have_k and have_a:
        for k in range(1, 5):
            tk = t[first["K%d" % k]]
            tk1 = t[first["K%d" % (k + 1)]]
            a_in, a_out = leg_marks[k - 1]
            ta_in = t[first["A%d" % a_in]]
            ta_out = t[first["A%d" % a_out]]
            report.edge_times.append(float((ta_in - tk) + (tk1 - ta_out)))
            report.corner_times.append(float(ta_out - ta_in))
        report.stage1_time = float(sum(report.edge_times))
        report.stage1_wall_time = float(t[first["K5"]] - t[first["K1"]])

    if "top_spray_start" in first and "top_spray_end" in first:
        report.top_spray_time = float(t[first["top_spray_end"]]
                                      - t[first["top_spray_start"]])

    # Stage II: drive legs run from the previous halt to each arrival.
    cursor = first.get("top_spray_end", first.get("K5"))
    j = 1
    while "spray%d_end" % j in first:
        arrive = first.get("stop%d_arrive" % j)
        if arrive is not None and cursor is not None:
            report.stage2_drive_time += float(t[arrive] - t[cursor])
        start = first.get("spray%d_start" % j, arrive)
        if start is None:
            raise ParseError("marker spray%d_start: missing" % j)
        cursor = first["spray%d_end" % j]
        report.stage2_time += float(t[cursor] - t[start])
        j += 1
    if report.stage1_time is not None:
        report.mission_total_time = (report.stage1_time + report.top_spray_time
                                     + report.stage2_time)
    return report


def compute_metrics(log) -> MetricsReport:
    """Summarize a mission log; raises EmptyLog on a log with no rows, and
    ParseError naming a metadata key the report needs that is missing or
    not a number, or the sprayN_start marker of a sprayN_end that fires
    with neither it nor stopN_arrive."""
    n = len(log.time)
    if n == 0:
        raise EmptyLog("log has no rows")
    t = np.asarray(log.time)
    v = log.values
    meta = log.meta
    ev = _event_steps(log.event)

    report = stage_timing(ev, t)
    report.wall_time = float(t[-1] - t[0])
    report.discharge_time = _meta(meta, "discharge_time")
    report.stage2_budget = _meta(meta, "stage2_budget")
    report.n_stops = _meta(meta, "n_stops", int)
    report.n_flagged = _meta(meta, "n_flagged", int)

    report.chassis_max_abs_e1_mm = float(np.abs(v["e1"]).max() * 1e3)
    report.chassis_max_abs_e2_mm = float(np.abs(v["e2"]).max() * 1e3)
    report.chassis_max_abs_e3_deg = float(np.abs(v["e3"]).max() / DEG)
    report.chassis_rms_e1_mm = float(np.sqrt(np.mean(v["e1"] ** 2)) * 1e3)
    report.chassis_rms_e2_mm = float(np.sqrt(np.mean(v["e2"] ** 2)) * 1e3)
    report.chassis_rms_e3_deg = float(np.sqrt(np.mean(v["e3"] ** 2)) / DEG)

    report.chatter_index = 0.5 * (_sign_change_fraction(v["s1"])
                                  + _sign_change_fraction(v["s2"]))

    # Convergence: first time the error enters the configured band for good.
    band = (_meta(meta, "band_e1_mm") * 1e-3, _meta(meta, "band_e2_mm") * 1e-3,
            _meta(meta, "band_e3_deg") * DEG)
    inside = ((np.abs(v["e1"]) <= band[0]) & (np.abs(v["e2"]) <= band[1])
              & (np.abs(v["e3"]) <= band[2]))
    if inside[-1]:
        bad = np.nonzero(~inside)[0]
        first = 0 if len(bad) == 0 else bad[-1] + 1
        report.convergence_time = float(t[first] - t[0])

    # Tool tracking during sweep windows only (dwells and transits excluded).
    window_err = []
    for k in range(1, 5):
        start = ev.get("sweep%d_start" % k)
        end = ev.get("sweep%d_end" % k)
        if start is None or end is None:
            continue
        window_err.append(np.abs(np.column_stack(
            [v["ee" + a][start:end + 1] - v["tgt" + a][start:end + 1]
             for a in "XYZ"])))
    if window_err:
        err = np.vstack(window_err) * 1e3
        report.ee_avg_abs_err_mm = [float(x) for x in err.mean(axis=0)]
        report.ee_max_abs_err_mm = [float(x) for x in err.max(axis=0)]
        report.ee_window_samples = int(err.shape[0])

    if report.n_stops:
        report.within_stage2_budget = bool(
            report.stage2_time <= report.stage2_budget + _meta(meta, "dt"))
    if report.mission_total_time is not None:
        report.verdict = ("PASS" if report.mission_total_time
                          < report.discharge_time else "FAIL")

    report.max_joint_torques = [float(np.abs(v["tau%d" % i]).max())
                                for i in range(1, 5)]
    report.max_wheel_speed = float(
        max(np.abs(v["vL"]).max(), np.abs(v["vR"]).max()))
    return report
