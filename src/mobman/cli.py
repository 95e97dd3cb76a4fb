"""Command-line front end: workspace analysis, IK queries, mission planning,
simulation runs and metrics recomputation."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import ScenarioConfig, build_geometry, load_config
from .errors import MobmanError
from .kinematics import (EndEffectorPose, forward_kinematics,
                         inverse_kinematics, workspace_analysis)
from .metrics import MetricsReport, compute_metrics
from .simulate import SimLog, _write_json, export, plan_mission, run_mission
from .util import DEG


def _load_scenario(path) -> ScenarioConfig:
    return ScenarioConfig() if path is None else load_config(path)


def _cmd_workspace(args) -> int:
    config = _load_scenario(args.config)
    geometry = build_geometry(config)
    checks = []
    for spec in args.check or []:
        try:
            parts = [float(x) for x in spec.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise MobmanError("--check expects X,Y,Z in mm")
        if not all(map(math.isfinite, parts)):
            raise MobmanError("non-finite --check point (%g, %g, %g) mm"
                              % tuple(parts))
        checks.append(("check %d" % (len(checks) + 1), tuple(parts)))
    summary = workspace_analysis(geometry=geometry, key_points=checks)
    if args.json:
        payload = {
            "planar_radius_min_mm": summary.r_min,
            "planar_radius_max_mm": summary.r_max,
            "full_reach_min_mm": summary.full_reach_min,
            "full_reach_max_mm": summary.full_reach_max,
            "boundary_samples": len(summary.boundary),
            "cloud_samples": len(summary.cloud),
            "key_points": [
                {"position_mm": list(k.position), "reachable": k.reachable}
                for k in summary.key_points],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("planar radius (boom/forearm pair): %.1f .. %.1f mm"
          % (summary.r_min, summary.r_max))
    print("full horizontal reach (wrist level): %.1f .. %.1f mm"
          % (summary.full_reach_min, summary.full_reach_max))
    print("boundary samples: %d, cloud samples: %d"
          % (len(summary.boundary), len(summary.cloud)))
    for k in summary.key_points:
        print("point (%.1f, %.1f, %.1f) mm: %s"
              % (*k.position, "reachable" if k.reachable else "unreachable"))
    return 0


def _cmd_ik(args) -> int:
    config = _load_scenario(args.config)
    geometry = build_geometry(config)
    pose = EndEffectorPose(x=args.x, y=args.y, z=args.z,
                           phi=args.phi * DEG)
    q = inverse_kinematics(pose, geometry)
    back = forward_kinematics(q, geometry)
    residual = math.sqrt((back.x - pose.x) ** 2 + (back.y - pose.y) ** 2
                         + (back.z - pose.z) ** 2)
    if args.json:
        print(json.dumps({"joints_deg": [float(v) for v in np.degrees(q)],
                          "residual_mm": residual}, indent=2))
        return 0
    for k, value in enumerate(np.degrees(q), start=1):
        print("q%d = %10.4f deg" % (k, value))
    print("round-trip residual: %.3e mm" % residual)
    return 0


def _plan_payload(plan) -> dict:
    circuit = plan.circuit
    return {
        "circuit": {
            "edge_time": circuit.edge_time,
            "corner_time": circuit.corner_time,
            "lap_time": circuit.lap_time,
            "lap_length": circuit.lap_length,
            "k_points": circuit.k_points.tolist(),
            "k_times": circuit.k_times.tolist(),
            "a_points": circuit.a_points.tolist(),
            "a_times": circuit.a_times.tolist(),
        },
        "sweeps": [{
            "face": s.edge_index, "length": s.length, "speed": s.speed,
            "duration": s.duration, "pitch_deg": s.pitch / DEG,
            "vertices": s.vertices.tolist(),
        } for s in plan.sweeps],
        "stops": [{
            "fire": slot.stop.fire.ident,
            "nearest_a": slot.stop.nearest_a,
            "group": slot.stop.group,
            "point": list(slot.stop.point),
            "heading_deg": slot.stop.heading / DEG,
            "path_distance": slot.stop.path_distance,
            "dwell": slot.dwell,
            "pitch_deg": slot.pitch / DEG,
        } for slot in plan.stage2],
        "flagged": [{"fire": f.ident, "reason": r} for f, r in plan.flagged],
    }


def _cmd_plan(args) -> int:
    config = _load_scenario(args.scenario)
    plan = plan_mission(config)
    circuit = plan.circuit
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(_plan_payload(plan), fh, indent=2)
            fh.write("\n")
        print("wrote %s" % args.json)
    print("circuit: edge %.3f s, corner %.3f s, lap %.3f s (%.3f m)"
          % (circuit.edge_time, circuit.corner_time, circuit.lap_time,
             circuit.lap_length))
    for sweep in plan.sweeps:
        print("sweep face %d: %.3f m at %.2f m/s -> %.3f s (edge allows %.3f s)"
              % (sweep.edge_index, sweep.length, sweep.speed,
                 sweep.duration, circuit.edge_time))
    if not plan.stops:
        print("stage II: no fires reported")
    for stop in plan.stops:
        print("fire %s -> A%d (group %d), stop (%.3f, %.3f) m, "
              "path offset %.3f m"
              % (stop.fire.ident, stop.nearest_a, stop.group,
                 stop.point[0], stop.point[1], stop.path_distance))
    for fire, reason in plan.flagged:
        print("flagged %s: %s" % (fire.ident, reason))
    dwells = sum(s.dwell for s in plan.stage2)
    active = 4.0 * circuit.edge_time + config.top_spray.duration + dwells
    print("planned active discharge: %.3f s of %.3f s budget"
          % (active, config.fire_test.discharge_time))
    return 0


def _cmd_simulate(args) -> int:
    config = _load_scenario(args.scenario)
    os.makedirs(args.out, exist_ok=True)  # fail before the run, not after
    result = run_mission(config)
    paths = export(result, args.out)
    for path in paths:
        print("wrote %s" % path)
    _print_report(result.report)
    return 0


def _cmd_metrics(args) -> int:
    log = SimLog.from_csv(args.log)
    report = compute_metrics(log)
    if args.json:
        _write_json(args.json, report)
        print("wrote %s" % args.json)
    _print_report(report)
    return 0


def _print_report(report: MetricsReport) -> None:
    print("wall time: %.3f s" % report.wall_time)
    if report.stage1_time is not None:
        print("stage I (edges): %.3f s  [%s]  wall %.3f s"
              % (report.stage1_time,
                 ", ".join("%.3f" % e for e in report.edge_times),
                 report.stage1_wall_time))
    print("top spray: %.3f s  stage II drive: %.3f s  stage II spray: %.3f s"
          % (report.top_spray_time, report.stage2_drive_time,
             report.stage2_time))
    if report.mission_total_time is not None:
        print("mission total (active): %.3f s of %.3f s discharge"
              % (report.mission_total_time, report.discharge_time))
    print("chassis max |e|: %.3e mm, %.3e mm, %.3e deg"
          % (report.chassis_max_abs_e1_mm, report.chassis_max_abs_e2_mm,
             report.chassis_max_abs_e3_deg))
    print("tool avg |err| during sweeps: %.4f, %.4f, %.4f mm"
          % tuple(report.ee_avg_abs_err_mm))
    print("tool max |err| during sweeps: %.4f, %.4f, %.4f mm"
          % tuple(report.ee_max_abs_err_mm))
    if report.n_flagged:
        print("flagged fires: %d" % report.n_flagged)
    print("verdict: %s" % report.verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobman",
        description="Fire-suppression mobile manipulator simulation engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workspace", help="arm workspace analysis")
    p.add_argument("--config", help="scenario YAML file")
    p.add_argument("--check", action="append", metavar="X,Y,Z",
                   help="probe a tool point (mm), repeatable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_workspace)

    p = sub.add_parser("ik", help="closed-form inverse kinematics query")
    p.add_argument("x", type=float, help="tool X in mm")
    p.add_argument("y", type=float, help="tool Y in mm")
    p.add_argument("z", type=float, help="tool Z in mm")
    p.add_argument("phi", type=float, nargs="?", default=0.0,
                   help="tool pitch in deg (down positive)")
    p.add_argument("--config", help="scenario YAML file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("plan", help="lay out the mission without running it")
    p.add_argument("scenario", nargs="?", help="scenario YAML file")
    p.add_argument("--json", metavar="FILE",
                   help="also write the plan as structured JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="run the mission and export artifacts")
    p.add_argument("scenario", nargs="?", help="scenario YAML file")
    p.add_argument("--out", default="mobman_out",
                   help="output directory (default: mobman_out)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("metrics", help="recompute metrics from a run CSV")
    p.add_argument("log", help="timeseries.csv from a previous run")
    p.add_argument("--json", metavar="FILE", help="also write a JSON report")
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MobmanError as exc:
        for message in getattr(exc, "messages", None) or [exc]:
            print("error: %s" % message, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
