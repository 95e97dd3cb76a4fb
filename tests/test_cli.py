"""End-to-end checks of the command-line front end, driven in-process
through ``cli.main`` so exit codes and printed output are both observable."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mobman import cli
from mobman.cli import main
from mobman.config import load_config, parse_config
from mobman.metrics import compute_metrics
from mobman.simulate import SimLog, export, run_mission
from oracles import write_log


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_workspace_json_reports_radii(capsys):
    code, out, _ = run_cli(capsys, "workspace", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["planar_radius_min_mm"] == pytest.approx(972.375, abs=0.5)
    assert payload["planar_radius_max_mm"] == pytest.approx(2678.460, abs=0.5)
    assert payload["boundary_samples"] > 0
    assert payload["cloud_samples"] > 0
    assert payload["key_points"] == []


def test_workspace_check_classifies_points(capsys):
    code, out, _ = run_cli(capsys, "workspace",
                           "--check", "1980,0,1185",
                           "--check", "0,0,9999", "--json")
    assert code == 0
    points = json.loads(out)["key_points"]
    assert [p["reachable"] for p in points] == [True, False]


def test_workspace_check_rejects_malformed_spec(capsys):
    code, _, err = run_cli(capsys, "workspace", "--check", "1,2")
    assert code == 1
    assert "error:" in err


def test_ik_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "ik", "1980", "0", "1185", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["joints_deg"] == pytest.approx([0.0, 90.0, 0.0, 0.0],
                                                  abs=1e-9)
    assert payload["residual_mm"] < 1e-9


def test_ik_text_output(capsys):
    code, out, _ = run_cli(capsys, "ik", "1400", "700", "800", "30")
    assert code == 0
    assert "q1 =" in out
    assert "round-trip residual" in out


def test_ik_unreachable_exits_one(capsys):
    code, _, err = run_cli(capsys, "ik", "9000", "0", "0")
    assert code == 1
    assert "error:" in err


def test_nan_points_are_rejected(capsys):
    for args, shown in ((("nan", "0", "0"), "(nan, 0, 0)"),
                        (("inf", "0", "0"), "(inf, 0, 0)"),
                        (("0", "0", "nan"), "(0, 0, nan)")):
        code, out, err = run_cli(capsys, "ik", *args)
        assert code == 1 and out == ""
        assert err == "error: non-finite target %s mm, pitch 0 rad\n" % shown
    # JSON has no NaN, so a non-finite --check point is refused, not printed.
    code, out, err = run_cli(capsys, "workspace", "--check", "nan,0,0",
                             "--json")
    assert code == 1 and out == ""
    assert err == "error: non-finite --check point (nan, 0, 0) mm\n"


def test_workspace_check_rejects_non_numeric_spec(capsys):
    code, out, err = run_cli(capsys, "workspace", "--check", "1,2,abc")
    assert code == 1 and out == ""
    assert err == "error: --check expects X,Y,Z in mm\n"


def test_plan_writes_json_and_prints_assignments(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, "plan", "--json", str(plan_file))
    assert code == 0
    assert "fire F1 -> A2 (group 1)" in out
    assert "fire F2 -> A3 (group 2)" in out
    payload = json.loads(plan_file.read_text())
    assert payload["circuit"]["lap_time"] == pytest.approx(15.396, abs=1e-9)
    assert len(payload["sweeps"]) == 4
    assert [s["fire"] for s in payload["stops"]] == ["F1", "F2"]
    assert [s["nearest_a"] for s in payload["stops"]] == [2, 3]
    assert [s["group"] for s in payload["stops"]] == [1, 2]
    assert payload["flagged"] == []
    # Stops come back in drive order along the lap.
    dists = [s["path_distance"] for s in payload["stops"]]
    assert dists == sorted(dists)


STOCK_PLAN_DIGEST = ("26260205e1eca90458f23c4efab9a4244f4f8f1e9c39e48cda4bcfeb"
                     "bddce6da")


def test_stock_plan_digest(tmp_path, capsys):
    """The sha256 of the stock `mobman plan --json` file.  A change that
    moves the planned mission updates this value."""
    plan_file = tmp_path / "plan.json"
    assert run_cli(capsys, "plan", "--json", str(plan_file))[0] == 0
    digest = hashlib.sha256(plan_file.read_bytes()).hexdigest()
    assert digest == STOCK_PLAN_DIGEST


# Float values spelled with an integer ("{0}" = "") or a float ("{0}" =
# ".0") literal, on a coarse step so the run stays short.  All but the sweep
# speed and the chassis switch gains, lever, bounds and track are the
# defaults.
SPELLED = ("dt: 0.01\n"
           "sweep: {{pitch_deg: 30{0}, speed: 2{0}}}\n"
           "fire_test: {{discharge_time: 15{0}, stage2_budget: 3{0}}}\n"
           "top_spray: {{duration: 0{0}}}\n"
           "arm_control: {{switch_gain: [5{0}, 5{0}, 5{0}, 5{0}]}}\n"
           "chassis_control: {{surface_gains: [4{0}, 100{0}, 18{0}], "
           "reaching_gains: [15{0}, 15{0}], switch_gains: [1{0}, 1{0}], "
           "offset_l: 1{0}, f_bounds: [1{0}, 1{0}], boundary_layer: 0{0}, "
           "track_width: 1{0}}}\n"
           "circuit: {{center: [0{0}, 0{0}]}}\n")


def test_integer_spellings_match_float_spellings(tmp_path, capsys):
    """The planner and both control laws read the parsed sections as
    written, so an integer spelling must give the plan JSON, the plan report
    and the run log byte for byte as the float spelling does."""
    outputs = []
    for name, suffix in (("int", ""), ("float", ".0")):
        scenario = tmp_path / (name + ".yaml")
        scenario.write_text(SPELLED.format(suffix))
        config = load_config(scenario)
        assert type(config.sweep.pitch_deg) is (int if name == "int"
                                                else float)
        plan_file = tmp_path / (name + ".json")
        code, out, _ = run_cli(capsys, "plan", str(scenario),
                               "--json", str(plan_file))
        assert code == 0
        log_file = tmp_path / (name + ".csv")
        write_log(run_mission(config).log, log_file)
        outputs.append((plan_file.read_bytes(), out.split("\n", 1)[1],
                        log_file.read_bytes()))
    assert outputs[0] == outputs[1]


def test_simulate_then_metrics_round_trip(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("dt: 0.002\nfires: []\n")
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "simulate", str(scenario),
                           "--out", str(out_dir))
    assert code == 0
    assert "verdict: PASS" in out
    names = {"timeseries.csv", "metrics.json", "trajectory.csv",
             "tracking_errors.csv", "joint_torques.csv", "wheel_speeds.csv"}
    assert {p.name for p in out_dir.iterdir()} == names

    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "metrics", str(out_dir / "timeseries.csv"),
                           "--json", str(report_file))
    assert code == 0
    assert "verdict: PASS" in out
    # The CLI report must equal a direct recomputation from the same log.
    direct = compute_metrics(SimLog.from_csv(out_dir / "timeseries.csv"))
    expected = json.loads(json.dumps(dataclasses.asdict(direct)))
    assert json.loads(report_file.read_text()) == expected


def test_metrics_rejects_malformed_log(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not,a,run,log\n1,2,3,4,5,6\n")
    code, _, err = run_cli(capsys, "metrics", str(bad))
    assert code == 1
    assert "error:" in err


def test_metrics_names_bad_metadata(tmp_path, capsys):
    """A metadata value compute_metrics cannot read as a number is reported
    by key with exit code 1, not raised as a traceback.  The log has stops,
    so the dt read of the budget check is reached too."""
    good = tmp_path / "good.csv"
    write_log(run_mission(parse_config({"dt": 0.01})).log, good)
    lines = good.read_text().splitlines(keepends=True)
    cases = [(key, "abc", "'abc'") for key in (
        "dt", "discharge_time", "stage2_budget", "band_e1_mm", "band_e2_mm",
        "band_e3_deg", "n_stops", "n_flagged")]
    cases += [("n_stops", "inf", "inf"), ("n_flagged", "nan", "nan")]
    bad = tmp_path / "bad.csv"
    for key, value, shown in cases:
        prefix = "#%s=" % key
        bad.write_text("".join(prefix + value + "\n" if line.startswith(prefix)
                               else line for line in lines))
        code, _, err = run_cli(capsys, "metrics", str(bad))
        assert (code, err) == (1, "error: metadata %s: expected a number, "
                                  "got %s\n" % (key, shown))


def test_metrics_names_missing_metadata(tmp_path, capsys):
    """compute_metrics takes no stock figure for a metadata key the log
    lacks: an exported log with one key's line deleted is reported by that
    key with exit code 1, and one with the first stop's arrival and spray
    start markers dropped by the missing start marker."""
    out_dir = tmp_path / "run"
    export(run_mission(parse_config({"dt": 0.01})), out_dir)
    lines = (out_dir / "timeseries.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    for key in ("dt", "discharge_time", "stage2_budget", "band_e1_mm",
                "band_e2_mm", "band_e3_deg", "n_stops", "n_flagged"):
        bad.write_text("".join(line for line in lines
                               if not line.startswith("#%s=" % key)))
        code, out, err = run_cli(capsys, "metrics", str(bad))
        assert (code, out, err) == (1, "", "error: metadata %s: missing\n"
                                    % key)
    text = "".join(lines)
    assert text.count(",stop1_arrive;spray1_start\n") == 1
    bad.write_text(text.replace(",stop1_arrive;spray1_start\n", ",\n"))
    assert run_cli(capsys, "metrics", str(bad)) == (
        1, "", "error: marker spray1_start: missing\n")


def test_plan_prints_the_active_discharge_the_run_counts(tmp_path, capsys):
    """plan times the discharge from its markers' steps, as the run's
    metrics do: at dt 13 ms with a 3.17 s Stage II budget the run counts
    15.002 s and fails, where the unrounded leg and dwell times sum to
    14.994 s."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("dt: 0.013\nfire_test: {stage2_budget: 3.17}\n")
    code, out, _ = run_cli(capsys, "plan", str(scenario))
    assert code == 0
    assert out.splitlines()[-1] == ("planned active discharge: 15.002 s of "
                                    "15.000 s budget")
    report = run_mission(load_config(scenario)).report
    assert "%.3f" % report.mission_total_time == "15.002"
    assert report.verdict == "FAIL"


def test_plan_rejects_a_sweep_the_arm_cannot_reach(tmp_path, capsys):
    """plan builds the run's joint reference, so a sweep sample outside the
    arm's reach fails it with the message simulate gives, before any
    output."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("dt: 0.01\nsweep: {base_height: 4.0}\n")
    plan_file = tmp_path / "plan.json"
    message = ("error: sweep 1 sample 0 (t=0.0000 s): planar target 4010.8 "
               "mm outside the two-link annulus\n")
    assert run_cli(capsys, "plan", str(scenario), "--json",
                   str(plan_file)) == (1, "", message)
    assert not plan_file.exists()
    assert run_cli(capsys, "simulate", str(scenario), "--out",
                   str(tmp_path / "run")) == (1, "", message)


@pytest.mark.parametrize("command", ["metrics", "plan", "simulate"])
def test_file_errors_are_reported(tmp_path, capsys, monkeypatch, command):
    """A missing input or an output path held by a regular file is named
    with the system's reason, not raised as a traceback.  A bad output path
    is found before the mission runs."""
    def no_run(config):
        raise AssertionError("the mission ran before the output path failed")

    monkeypatch.setattr(cli, "run_mission", no_run)
    missing = tmp_path / "missing"
    regular = tmp_path / "regular"
    regular.write_text("")
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("dt: 0.01\nfires: []\n")
    argv, path, reason = {
        "metrics": (["metrics", str(missing)], missing,
                    "No such file or directory"),
        "plan": (["plan", str(missing)], missing,
                 "No such file or directory"),
        "simulate": (["simulate", str(scenario), "--out", str(regular)],
                     regular, "File exists"),
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "error: %s: %s\n" % (path, reason)


@pytest.mark.parametrize("command, text", [
    ("plan", b"dt: 0.01\nfires: []\n# \xff\n"),
    ("metrics", b"#dt=0.01\n#flagged=\xff\n"),
])
def test_undecodable_input_is_named(tmp_path, capsys, command, text):
    """Every file is read as UTF-8; a byte that is not is one error line
    naming the file, not a traceback."""
    path = tmp_path / "input"
    path.write_bytes(text)
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert err.startswith("error: %s: 'utf-8' codec can't decode byte 0xff "
                          % path)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_bad_scenario_reports_every_problem(tmp_path, capsys):
    scenario = tmp_path / "broken.yaml"
    scenario.write_text("dt: -1\nintegrator: leapfrog\nbogus_key: 3\n")
    code, _, err = run_cli(capsys, "plan", str(scenario))
    assert code == 1
    lines = [l for l in err.splitlines() if l.startswith("error:")]
    assert len(lines) >= 3
    joined = "\n".join(lines)
    assert "dt" in joined
    assert "integrator" in joined
    assert "bogus_key" in joined


def test_yaml_syntax_error_exits_one(tmp_path, capsys):
    scenario = tmp_path / "syntax.yaml"
    scenario.write_text("fires: [unclosed\n")
    code, _, err = run_cli(capsys, "plan", str(scenario))
    assert code == 1
    assert "error:" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
