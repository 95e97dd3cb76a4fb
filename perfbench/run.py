"""mobman benchmark: end-to-end timings per workload, or a traced per-layer
breakdown, printed as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload stock_mission --seed 1 --seconds 30 --trace 0

Workloads (the seed only shapes the generated config; see BENCHMARK.json):
  stock_mission        default ScenarioConfig (RK4, two fires); seed unused
  euler_noise_mission  Euler integrator plus seeded noise at the bound
  log_roundtrip        export + SimLog.from_csv + compute_metrics of one
                       euler_noise_mission log made during set-up

Everything runs in this one single-threaded process against the mobman
sources in ``src/`` next to this directory.  Each timed repetition is
checked by output gates; a repetition that fails a gate or raises counts in
``failed`` and its timing is dropped.

``--trace 0`` reports the end-to-end metrics.  The operation's time is
reported as ``op_rel``: wall seconds times the machine speed sampled during
the repetition (see SpeedProbe), because raw seconds on the shared machine
swing by up to 1.7x between half minutes.  ``--trace 1`` runs half the time
untraced and half with every public layer function wrapped (tracer.py), and
reports per-operation counts, self times and per-call percentiles.

The line before the result carries the details that are not metrics: raw
per-stage seconds (median, tail, sample count), the log digest, the error
rate, the machine and software versions, and the traced-vs-ROADMAP check.
"""
import os

# Pinned before numpy is imported: a multi-threaded BLAS on a shared box
# makes the small 4x4 solves slower and the timings erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from tracer import TARGETS, Tracer, patched_bindings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("stock_mission", "euler_noise_mission", "log_roundtrip")

# Expected outputs of every mission at this schedule (PAPER.md).
EXPECTED_ROWS = 25_868
STAGE1_TIME = 11.824
MISSION_TOTAL_TIME = 14.824
TIME_TOL = 1e-9
CHASSIS_BAND = (20.0, 1.0, 0.6)     # max |e1| mm, |e2| mm, |e3| deg
EXPORT_ARTIFACTS = 6

SETUP_REPS = 9
PROBE_INTERVAL_S = 0.05
# setup_s is reported in seconds at this python_probe_work speed (runs per
# second), about the middle of the range seen on the tuning machine.
SETUP_REFERENCE_SPEED = 300.0

# Functions called at least once per control step get per-call percentiles.
HOT = ("dynamics.forward_dynamics", "dynamics.mass_matrix",
       "dynamics.coriolis_matrix", "dynamics.gravity_vector",
       "arm_control.control_law", "arm_control.target_in_base_frame",
       "chassis_control.tracking_error", "chassis_control.error_rates",
       "chassis_control.sliding_surface", "chassis_control.control_law",
       "chassis_control.plant_step", "kinematics.forward_kinematics",
       "kinematics.inverse_kinematics", "mission.sample")
FAILURE_COUNTED = ("dynamics.forward_dynamics", "kinematics.inverse_kinematics")
BYTE_COUNTED = ("simulate.export", "simulate.from_csv")

# Per-call figures from the ROADMAP re-anchor, in microseconds.
ROADMAP_US = {"dynamics.forward_dynamics": 64.0,
              "arm_control.control_law": 45.0,
              "chassis_control.plant_step": 26.0,
              "kinematics.inverse_kinematics": 10.0,
              "kinematics.forward_kinematics": 6.0}


def mission_spec(workload: str, seed: int) -> dict:
    """Config mapping handed to parse_config; the program sees only this."""
    if workload == "stock_mission":
        return {}
    return {"integrator": "euler",
            "disturbance": {"kind": "noise", "amplitude": [0.1, 0.1],
                            "seed": seed % 2 ** 32}}


@dataclass
class Rep:
    """One timed repetition of a workload's operation."""

    wall: float = 0.0
    cpu: float = 0.0
    speed_wall: float = 0.0  # mean of 1 / probe-work seconds while it ran
    speed_cpu: float = 0.0
    rows: int = 0
    tool_err_mm: float = 0.0
    digest: str = ""
    stages: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def log_digest(log) -> str:
    """sha256 over the in-memory time, numeric columns, state and event."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(log.time, dtype="<f8").tobytes())
    for name in sorted(log.values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(log.values[name], dtype="<f8").tobytes())
    h.update("\n".join(log.state).encode())
    h.update(b"\0")
    h.update("\n".join(log.event).encode())
    return h.hexdigest()


def tool_err_mm(report) -> float:
    return sum(report.ee_avg_abs_err_mm) / 3.0


def mission_gates(result, workload: str) -> list:
    report, log = result.report, result.log
    bad = []
    if report.verdict != "PASS":
        bad.append("verdict %s" % report.verdict)
    for name, want in (("stage1_time", STAGE1_TIME),
                       ("mission_total_time", MISSION_TOTAL_TIME)):
        got = getattr(report, name)
        if got is None or abs(got - want) > TIME_TOL:
            bad.append("%s %r != %r" % (name, got, want))
    if log.n_rows != EXPECTED_ROWS:
        bad.append("rows %d != %d" % (log.n_rows, EXPECTED_ROWS))
    columns = [log.time] + list(log.values.values())
    if not all(np.isfinite(c).all() for c in columns):
        bad.append("non-finite value in log")
    if workload == "euler_noise_mission":
        errors = (report.chassis_max_abs_e1_mm, report.chassis_max_abs_e2_mm,
                  report.chassis_max_abs_e3_deg)
        if not all(e <= b for e, b in zip(errors, CHASSIS_BAND)):
            bad.append("chassis max errors %r outside %r" % (errors,
                                                            CHASSIS_BAND))
    return bad


def roundtrip_gates(source, paths, loaded, report) -> list:
    bad = []
    if len(paths) != EXPORT_ARTIFACTS or not all(map(os.path.isfile, paths)):
        bad.append("expected %d artifacts, got %r" % (EXPORT_ARTIFACTS, paths))
    log = source.log

    def same_bits(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    if not same_bits(loaded.time, log.time):
        bad.append("time column differs after from_csv")
    for name, column in log.values.items():
        if not same_bits(loaded.values[name], column):
            bad.append("column %s differs after from_csv" % name)
    if loaded.state != log.state or loaded.event != log.event:
        bad.append("state/event differ after from_csv")
    if report != source.report:
        bad.append("recomputed report differs from the in-memory one")
    return bad


def python_probe_work() -> None:
    """Integer arithmetic and float formatting and parsing, the instruction
    mix of the CSV writer and reader."""
    total, x = 0, 0.1
    for i in range(2_000):
        total += i * i
        x = float(repr(x * 1.0000001))


_PROBE_MATRIX = np.eye(4) * 2.0 + 0.1


def numpy_probe_work() -> None:
    """4x4 solves and products plus scalar trig, the mix of a control step."""
    v = np.ones(4)
    for _ in range(150):
        v = np.linalg.solve(_PROBE_MATRIX, v + 1.0)
        math.sin(float((_PROBE_MATRIX @ v)[0]))


class SpeedProbe:
    """Samples how fast this machine runs while repetitions are timed.

    The shared 2-vCPU machine this benchmark was tuned on flips between a
    fast and a slow state many times a second, and the mix drifts: the same
    export took 1.2 s in one half minute and 2.7 s in the next.  While the
    probe runs, a SIGALRM handler times a fixed piece of work that never
    calls mobman every PROBE_INTERVAL_S.  A repetition's time multiplied by
    the mean speed (1 / work time) of the samples taken during it counts its
    work in probe units and cancels the drift.  The probe work must resemble
    the workload's mix: on Euler missions the numpy probe held the product
    within 1.9% (coefficient of variation) where the pure-Python one gave
    7.8% and raw time 11%.  The handler's own time is kept in ``spent_*`` so
    stopwatches can subtract it.
    """

    def __init__(self, work):
        self.work = work
        self.speeds_wall: list = []
        self.speeds_cpu: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.work()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.speeds_wall.append(1.0 / wall)
        self.speeds_cpu.append(1.0 / max(cpu, 1e-9))
        self.spent_wall += wall
        self.spent_cpu += cpu

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class Stopwatch:
    """Wall and CPU seconds between laps, net of the probe's samples."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self.last = self._now()

    def _now(self):
        wall, cpu = time.perf_counter(), time.process_time()
        if self.probe is not None:
            wall -= self.probe.spent_wall
            cpu -= self.probe.spent_cpu
        return wall, cpu

    def lap(self):
        now = self._now()
        wall, cpu = now[0] - self.last[0], now[1] - self.last[1]
        self.last = now
        return wall, cpu


def mission_rep(mb, spec: dict, workload: str, probe) -> Rep:
    config = mb.parse_config(spec)
    watch = Stopwatch(probe)
    result = mb.run_mission(config)
    rep = Rep(*watch.lap())
    rep.rows = result.log.n_rows
    rep.tool_err_mm = tool_err_mm(result.report)
    rep.digest = log_digest(result.log)
    rep.failures = mission_gates(result, workload)
    return rep


def roundtrip_rep(mb, source, probe) -> Rep:
    directory = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        watch = Stopwatch(probe)
        paths = mb.export(source, directory)
        export_s, export_cpu = watch.lap()
        loaded = mb.SimLog.from_csv(os.path.join(directory, "timeseries.csv"))
        load_s, load_cpu = watch.lap()
        report = mb.compute_metrics(loaded)
        metrics_s, metrics_cpu = watch.lap()
        rep = Rep(export_s + load_s + metrics_s,
                  export_cpu + load_cpu + metrics_cpu)
        rep.stages = {"export_s": export_s, "load_s": load_s,
                      "metrics_s": metrics_s}
        rep.rows = loaded.n_rows
        rep.tool_err_mm = tool_err_mm(report)
        rep.failures = roundtrip_gates(source, paths, loaded, report)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return rep


def attempt(operation, probe) -> Rep:
    try:
        return operation(probe)
    except Exception:  # a broken repetition is counted, not fatal
        traceback.print_exc()
        return Rep(failures=["raised: see stderr"])


def repeat(operation, budget: float, probe: SpeedProbe | None = None) -> list:
    """Run operation at least once, and again while the next run is expected
    to finish within budget seconds of the first start.  With a probe, each
    repetition gets the mean speed sampled while it ran."""
    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        first = len(probe.speeds_wall) if probe else 0
        rep = attempt(operation, probe)
        if probe is not None:
            # A repetition shorter than the interval takes the last sample.
            first = min(first, len(probe.speeds_wall) - 1)
            if first >= 0:
                rep.speed_wall = statistics.fmean(probe.speeds_wall[first:])
                rep.speed_cpu = statistics.fmean(probe.speeds_cpu[first:])
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - began) > budget:
            return reps


def fresh_import():
    """Import mobman from scratch so that each set-up pays its module-level
    work; third-party imports stay cached."""
    for name in [n for n in sys.modules
                 if n == "mobman" or n.startswith("mobman.")]:
        del sys.modules[name]
    mb = importlib.import_module("mobman")
    if not os.path.abspath(mb.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported mobman from %s, not %s"
                         % (mb.__file__, SRC))
    return mb


def set_up(workload: str, seed: int):
    """Returns (mobman module, the operation, setup_s, setup details)."""
    import yaml  # noqa: F401  -- warm the third-party imports mobman uses

    # Raw set-up times sit in a fast (~0.06 s) or a slow (~0.105 s) state
    # for a whole run, so they are scaled by the probe speed like op_rel.
    probe = SpeedProbe(python_probe_work)
    samples = []
    with probe.running():
        for _ in range(SETUP_REPS):
            watch = Stopwatch(probe)
            mb = fresh_import()
            mb.parse_config(mission_spec(workload, seed))
            samples.append(watch.lap()[0])
    speed = (statistics.fmean(probe.speeds_wall) if probe.speeds_wall
             else SETUP_REFERENCE_SPEED)
    setup_s = statistics.median(samples) * speed / SETUP_REFERENCE_SPEED
    details = {"import_config_s": samples, "probe_speed": speed}
    if workload != "log_roundtrip":
        spec = mission_spec(workload, seed)
        return (mb, lambda probe: mission_rep(mb, spec, workload, probe),
                setup_s, details)

    # The input run is timed but kept out of setup_s: as a raw 7 s mission
    # it drifts with the machine's speed, and euler_noise_mission already
    # measures the same work, normalised.
    began = time.perf_counter()
    source = mb.run_mission(mb.parse_config(
        mission_spec("euler_noise_mission", seed)))
    details["input_run_s"] = time.perf_counter() - began
    details["input_digest"] = log_digest(source.log)
    details["input_failures"] = mission_gates(source, "euler_noise_mission")
    return (mb, lambda probe: roundtrip_rep(mb, source, probe), setup_s,
            details)


def summarize(samples) -> dict:
    """Median plus the highest of p90/p99/p99.9 with >= 10 samples beyond."""
    out = {"median": statistics.median(samples) if samples else None,
           "n": len(samples), "samples": list(samples)}
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            out["p%g" % pct] = float(np.percentile(samples, pct))
            break
    return out


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_before) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def stage_summaries(reps) -> dict:
    """Raw timings of the repetitions that passed their gates."""
    ok = [r for r in reps if not r.failures]
    table = {"op_s": [r.wall for r in ok], "op_cpu_s": [r.cpu for r in ok],
             "rows_per_s": [r.rows / r.wall for r in ok]}
    if any(r.speed_wall for r in ok):
        table["probe_speed"] = [r.speed_wall for r in ok]
    for r in ok:
        for name, value in r.stages.items():
            table.setdefault(name, []).append(value)
    return {k: summarize(v) for k, v in sorted(table.items())}


def median_wall(reps) -> float:
    walls = [r.wall for r in reps if not r.failures]
    return statistics.median(walls) if walls else 0.0


def end_to_end(reps, setup_s: float) -> dict:
    ok = [r for r in reps if not r.failures]
    if not ok:
        return {}
    return {
        "op_rel": (statistics.median(r.wall * r.speed_wall for r in ok), "x"),
        "op_cpu_rel": (statistics.median(r.cpu * r.speed_cpu for r in ok),
                       "x"),
        "tool_err_mm": (statistics.median(r.tool_err_mm for r in ok), "mm"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, n_ops: int, overhead_s: float) -> dict:
    out = {}

    def per_op(x):
        return x // n_ops if isinstance(x, int) and x % n_ops == 0 else x / n_ops

    for target in TARGETS:
        stats = tracer.stats[target.name]
        out[target.name + ".calls"] = (per_op(stats.calls), "count")
        out[target.name + ".self_s"] = (stats.self_s / n_ops, "s")
        if target.name in HOT:
            durations = np.frombuffer(stats.durations, dtype=float)
            p50, p99 = ((np.percentile(durations, [50, 99]) * 1e6).tolist()
                        if durations.size else (0.0, 0.0))
            out[target.name + ".us_p50"] = (p50, "us")
            out[target.name + ".us_p99"] = (p99, "us")
        if target.name in FAILURE_COUNTED:
            out[target.name + ".failures"] = (per_op(stats.failures), "count")
        if target.name in BYTE_COUNTED:
            out[target.name + ".bytes"] = (per_op(stats.bytes), "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def roadmap_check(metrics: dict) -> dict:
    """Traced us_p50 next to the ROADMAP figures; flags a gap above 2x."""
    check = {}
    for name, roadmap_us in ROADMAP_US.items():
        traced = metrics[name + ".us_p50"][0]
        if not traced:
            continue
        ratio = traced / roadmap_us
        check[name] = {"traced_us_p50": traced, "roadmap_us": roadmap_us,
                       "ratio": ratio, "over_2x": not 0.5 <= ratio <= 2.0}
    return check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mobman", "__init__.py")):
        print("error: no mobman sources under %s" % SRC, file=sys.stderr)
        return 2
    load_before = list(os.getloadavg())
    sys.path.insert(0, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        mb, operation, setup_s, setup_details = set_up(args.workload,
                                                       args.seed)
        info = {"workload": args.workload, "seed": args.seed,
                "setup": setup_details}
        if args.trace:
            untraced = repeat(operation, args.seconds / 2.0)
            tracer = Tracer()
            with tracer.installed(TARGETS):
                traced = repeat(operation, args.seconds / 2.0)
            leftover = patched_bindings("mobman")
            reps = untraced + traced
            overhead = median_wall(traced) - median_wall(untraced)
            metrics = per_layer(tracer, len(traced), overhead)
            info["absent"] = tracer.absent
            info["left_patched"] = leftover
            info["roadmap_us_p50"] = roadmap_check(metrics)
            info["untraced"] = stage_summaries(untraced)
            info["traced"] = stage_summaries(traced)
        else:
            probe = SpeedProbe(python_probe_work if args.workload
                               == "log_roundtrip" else numpy_probe_work)
            with probe.running():
                reps = repeat(operation, args.seconds, probe)
            leftover = []
            metrics = end_to_end(reps, setup_s)
            info["stages"] = stage_summaries(reps)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failed = sum(1 for r in reps if r.failures)
    digests = sorted({r.digest for r in reps if r.digest})
    setup_failures = setup_details.get("input_failures", [])
    info.update({
        "attempted": len(reps), "failed": failed,
        "error_rate": failed / len(reps),
        "gate_failures": sorted({f for r in reps for f in r.failures}),
        "log_digest": digests[0] if len(digests) == 1 else digests or None,
        "env": environment(load_before),
    })
    correct = (failed == 0 and not setup_failures and not leftover
               and len(digests) <= 1 and bool(metrics))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": len(reps), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
