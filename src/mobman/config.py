"""Scenario configuration: YAML in, validated dataclasses out.

Config files use field-friendly units (degrees, millimetres for arm geometry,
metres for the chassis and planner); the builders convert to the radian/SI
quantities the engine modules use.  An empty file is a valid scenario: every
field has the stock default.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .chassis_control import ChassisGains
from .arm_control import ArmGains
from .dynamics import LinkInertialParams, default_inertial_params
from .errors import ParseError, ValidationError
from .kinematics import DHRow, DHTable, ToolOffset
from .mission import CircuitSpec, FireSpot, FireTestSpec, SweepSpec, TopSpraySpec

DEG = math.pi / 180.0


@dataclass
class GeometryConfig:
    """Arm geometry in mm / degrees."""

    link_lengths: list = field(
        default_factory=lambda: [100.0, 1000.0, 1700.0, 100.0, 80.0])
    link_twists_deg: list = field(
        default_factory=lambda: [90.0, 0.0, 0.0, 0.0, 0.0])
    link_offsets: list = field(
        default_factory=lambda: [185.0, 0.0, 0.0, 0.0, 0.0])
    tool_y_offset: float = 0.0


@dataclass
class InertialConfig:
    """Mass budget; explicit per-link values override the stock split."""

    total_mass: float = 400.0
    payload_mass: float = 20.0
    gravity: float = 9.81
    masses: list | None = None
    com_offsets: list | None = None
    inertias: list | None = None


@dataclass
class ArmControlConfig:
    surface_rate: float = 20.0
    switch_gain: list = field(default_factory=lambda: [5.0, 5.0, 5.0, 5.0])
    boundary_layer: float = 0.01


@dataclass
class ChassisControlConfig:
    surface_gains: list = field(default_factory=lambda: [4.0, 100.0, 18.0])
    reaching_gains: list = field(default_factory=lambda: [15.0, 15.0])
    switch_gains: list = field(default_factory=lambda: [0.2, 0.2])
    offset_l: float = 0.3
    f_bounds: list = field(default_factory=lambda: [0.1, 0.1])
    boundary_layer: float = 0.0
    track_width: float = 0.8


@dataclass
class CircuitConfig:
    edge_length: float = 2.60128
    corner_radius: float = 0.5
    speed: float = 0.88
    center: list = field(default_factory=lambda: [0.0, 0.0])
    min_corner_radius: float = 0.2


@dataclass
class SweepConfig:
    passes: int = 4
    horizontal_span: float = 0.9
    vertical_span: float = 0.45
    base_height: float = 0.2
    speed: float = 1.4
    pitch_deg: float = 30.0


@dataclass
class FireTestConfig:
    label: str = "20A"
    crib_side: float = 1.0
    discharge_time: float = 15.0
    stage2_budget: float = 3.0


@dataclass
class TopSprayConfig:
    duration: float = 0.0
    joints_deg: list = field(default_factory=lambda: [0.0, 135.0, 15.5, -45.0])


@dataclass
class FireConfig:
    ident: str = ""
    position: list = field(default_factory=lambda: [0.0, 0.0, 0.0])


@dataclass
class DisturbanceConfig:
    """Additive velocity-channel disturbance f = (f_v, f_w)."""

    kind: str = "none"      # none | constant | sine | noise
    amplitude: list = field(default_factory=lambda: [0.0, 0.0])
    frequency: float = 0.5
    seed: int = 0


@dataclass
class BandConfig:
    """Chassis convergence band used by the metrics report."""

    e1_mm: float = 20.0
    e2_mm: float = 1.0
    e3_deg: float = 0.6


@dataclass
class ScenarioConfig:
    dt: float = 0.001
    integrator: str = "rk4"
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    inertial: InertialConfig = field(default_factory=InertialConfig)
    arm_control: ArmControlConfig = field(default_factory=ArmControlConfig)
    chassis_control: ChassisControlConfig = field(
        default_factory=ChassisControlConfig)
    circuit: CircuitConfig = field(default_factory=CircuitConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    fire_test: FireTestConfig = field(default_factory=FireTestConfig)
    top_spray: TopSprayConfig = field(default_factory=TopSprayConfig)
    fires: list = field(default_factory=lambda: [
        FireConfig(ident="F1", position=[0.30, 0.20, 0.30]),
        FireConfig(ident="F2", position=[0.20, 0.30, 0.30]),
    ])
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    band: BandConfig = field(default_factory=BandConfig)
    initial_pose_offset: list = field(default_factory=lambda: [0.0, 0.0, 0.0])


# -- parsing --------------------------------------------------------------


def _assign(obj, data: dict, path: str, problems: list):
    """Overlay a mapping onto a config dataclass, recording unknown keys."""
    names = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        where = "%s%s" % (path, key)
        if key not in names:
            problems.append("%s: unknown key" % where)
            continue
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current):
            if isinstance(value, dict):
                _assign(current, value, where + ".", problems)
            else:
                problems.append("%s: expected a mapping" % where)
        elif key == "fires":
            if not isinstance(value, list):
                problems.append("%s: expected a list" % where)
                continue
            fires = []
            for i, entry in enumerate(value):
                fire = FireConfig(ident="F%d" % (i + 1))
                if isinstance(entry, dict):
                    _assign(fire, entry, "%s[%d]." % (where, i), problems)
                else:
                    problems.append("%s[%d]: expected a mapping" % (where, i))
                fires.append(fire)
            setattr(obj, key, fires)
        else:
            setattr(obj, key, value)


def parse_config(data: dict | None) -> ScenarioConfig:
    """Build a scenario from a plain mapping; unknown keys and bad values are
    all collected before raising."""
    config = ScenarioConfig()
    problems: list = []
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(["top level: expected a mapping"])
    _assign(config, data, "", problems)
    problems.extend(validate_config(config))
    if problems:
        raise ValidationError(problems)
    return config


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError("%s: %s" % (path, exc)) from exc
    return parse_config(data)


def serialize_config(config: ScenarioConfig) -> dict:
    return dataclasses.asdict(config)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(serialize_config(config), fh, sort_keys=False)


# -- validation -----------------------------------------------------------


def _number(x) -> bool:
    """An int or a finite float; NaN and infinities would reach the log."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


def _check_vector(problems, value, name, n, positive=False, nonneg=False):
    if not isinstance(value, (list, tuple)) or len(value) != n:
        problems.append("%s: expected %d numbers" % (name, n))
        return
    for i, x in enumerate(value):
        if not _number(x):
            problems.append("%s[%d]: expected a finite number" % (name, i))
        elif positive and x <= 0:
            problems.append("%s[%d]: must be > 0" % (name, i))
        elif nonneg and x < 0:
            problems.append("%s[%d]: must be >= 0" % (name, i))


def _check_positive(problems, value, name):
    if not _number(value):
        problems.append("%s: expected a finite number" % name)
    elif value <= 0:
        problems.append("%s: must be > 0" % name)


def _check_nonneg(problems, value, name):
    if not _number(value):
        problems.append("%s: expected a finite number" % name)
    elif value < 0:
        problems.append("%s: must be >= 0" % name)


def validate_config(config: ScenarioConfig) -> list:
    """Return a list of human-readable problems, empty when valid."""
    p: list = []
    _check_positive(p, config.dt, "dt")
    if config.integrator not in ("rk4", "euler"):
        p.append("integrator: expected rk4 or euler")

    g = config.geometry
    _check_vector(p, g.link_lengths, "geometry.link_lengths", 5, nonneg=True)
    if isinstance(g.link_lengths, (list, tuple)) and len(g.link_lengths) == 5:
        for i in (1, 2):  # boom and forearm: the IK divides by both
            if _number(g.link_lengths[i]) and g.link_lengths[i] == 0:
                p.append("geometry.link_lengths[%d]: must be > 0" % i)
    _check_vector(p, g.link_twists_deg, "geometry.link_twists_deg", 5)
    _check_vector(p, g.link_offsets, "geometry.link_offsets", 5, nonneg=True)
    if not _number(g.tool_y_offset):
        p.append("geometry.tool_y_offset: expected a finite number")

    ine = config.inertial
    _check_positive(p, ine.total_mass, "inertial.total_mass")
    _check_nonneg(p, ine.payload_mass, "inertial.payload_mass")
    _check_positive(p, ine.gravity, "inertial.gravity")
    for name, val in (("masses", ine.masses), ("com_offsets", ine.com_offsets),
                      ("inertias", ine.inertias)):
        if val is not None:
            _check_vector(p, val, "inertial.%s" % name, 4,
                          positive=(name == "masses"), nonneg=(name != "masses"))

    a = config.arm_control
    _check_positive(p, a.surface_rate, "arm_control.surface_rate")
    _check_vector(p, a.switch_gain, "arm_control.switch_gain", 4, positive=True)
    _check_nonneg(p, a.boundary_layer, "arm_control.boundary_layer")

    c = config.chassis_control
    _check_vector(p, c.surface_gains, "chassis_control.surface_gains", 3,
                  positive=True)
    _check_vector(p, c.reaching_gains, "chassis_control.reaching_gains", 2,
                  positive=True)
    _check_vector(p, c.switch_gains, "chassis_control.switch_gains", 2,
                  nonneg=True)
    _check_nonneg(p, c.offset_l, "chassis_control.offset_l")
    _check_vector(p, c.f_bounds, "chassis_control.f_bounds", 2, nonneg=True)
    _check_nonneg(p, c.boundary_layer, "chassis_control.boundary_layer")
    _check_positive(p, c.track_width, "chassis_control.track_width")

    circ = config.circuit
    _check_positive(p, circ.edge_length, "circuit.edge_length")
    _check_positive(p, circ.corner_radius, "circuit.corner_radius")
    _check_positive(p, circ.speed, "circuit.speed")
    _check_vector(p, circ.center, "circuit.center", 2)
    _check_positive(p, circ.min_corner_radius, "circuit.min_corner_radius")
    if (_number(circ.corner_radius) and _number(circ.min_corner_radius)
            and circ.corner_radius < circ.min_corner_radius):
        p.append("circuit.corner_radius: below circuit.min_corner_radius")

    s = config.sweep
    if not isinstance(s.passes, int) or isinstance(s.passes, bool) or s.passes < 1:
        p.append("sweep.passes: expected an integer >= 1")
    _check_positive(p, s.horizontal_span, "sweep.horizontal_span")
    _check_nonneg(p, s.vertical_span, "sweep.vertical_span")
    _check_nonneg(p, s.base_height, "sweep.base_height")
    _check_positive(p, s.speed, "sweep.speed")
    if not _number(s.pitch_deg):
        p.append("sweep.pitch_deg: expected a finite number")

    ft = config.fire_test
    _check_positive(p, ft.crib_side, "fire_test.crib_side")
    _check_positive(p, ft.discharge_time, "fire_test.discharge_time")
    _check_nonneg(p, ft.stage2_budget, "fire_test.stage2_budget")

    ts = config.top_spray
    _check_nonneg(p, ts.duration, "top_spray.duration")
    _check_vector(p, ts.joints_deg, "top_spray.joints_deg", 4)

    for i, fire in enumerate(config.fires):
        _check_vector(p, fire.position, "fires[%d].position" % i, 3)
        if not isinstance(fire.ident, str) or not fire.ident:
            p.append("fires[%d].ident: expected a non-empty string" % i)

    d = config.disturbance
    if d.kind not in ("none", "constant", "sine", "noise"):
        p.append("disturbance.kind: expected none, constant, sine or noise")
    _check_vector(p, d.amplitude, "disturbance.amplitude", 2, nonneg=True)
    _check_positive(p, d.frequency, "disturbance.frequency")
    if not isinstance(d.seed, int) or isinstance(d.seed, bool):
        p.append("disturbance.seed: expected an integer")
    if (d.kind != "none" and isinstance(d.amplitude, (list, tuple))
            and isinstance(c.f_bounds, (list, tuple))
            and len(d.amplitude) == 2 and len(c.f_bounds) == 2
            and all(_number(x) for x in list(d.amplitude) + list(c.f_bounds))):
        for i in range(2):
            if d.amplitude[i] > c.f_bounds[i]:
                p.append("disturbance.amplitude[%d]: exceeds "
                         "chassis_control.f_bounds[%d]" % (i, i))

    b = config.band
    _check_positive(p, b.e1_mm, "band.e1_mm")
    _check_positive(p, b.e2_mm, "band.e2_mm")
    _check_positive(p, b.e3_deg, "band.e3_deg")

    _check_vector(p, config.initial_pose_offset, "initial_pose_offset", 3)
    return p


# -- builders into engine objects -----------------------------------------


def build_geometry(config: ScenarioConfig) -> tuple:
    g = config.geometry
    theta_index = (1, 2, 3, 0, 4)
    rows = tuple(
        DHRow(a=float(g.link_lengths[i]),
              alpha=float(g.link_twists_deg[i]) * DEG,
              d=float(g.link_offsets[i]),
              theta_index=theta_index[i])
        for i in range(5))
    return DHTable(rows=rows), ToolOffset(y5p=float(g.tool_y_offset))


def build_inertial(config: ScenarioConfig, geometry: DHTable) -> LinkInertialParams:
    ine = config.inertial
    if ine.masses is None and ine.com_offsets is None and ine.inertias is None:
        return default_inertial_params(
            geometry, total_mass=ine.total_mass,
            payload_mass=ine.payload_mass, gravity=ine.gravity)
    stock = default_inertial_params(
        geometry, total_mass=ine.total_mass,
        payload_mass=ine.payload_mass, gravity=ine.gravity)
    params = LinkInertialParams(
        masses=tuple(float(v) for v in (
            ine.masses if ine.masses is not None else stock.masses)),
        com_offsets=tuple(float(v) for v in (
            ine.com_offsets if ine.com_offsets is not None
            else stock.com_offsets)),
        inertias=tuple(float(v) for v in (
            ine.inertias if ine.inertias is not None else stock.inertias)),
        payload_mass=float(ine.payload_mass),
        gravity=float(ine.gravity))
    problems = params.validate(prefix="inertial.")
    if problems:
        raise ValidationError(problems)
    return params


def build_arm_gains(config: ScenarioConfig) -> ArmGains:
    a = config.arm_control
    return ArmGains(surface_rate=float(a.surface_rate),
                    switch_gain=np.array(a.switch_gain, dtype=float),
                    boundary_layer=float(a.boundary_layer))


def build_chassis_gains(config: ScenarioConfig) -> ChassisGains:
    c = config.chassis_control
    return ChassisGains(
        k1=float(c.surface_gains[0]), k2=float(c.surface_gains[1]),
        k3=float(c.surface_gains[2]),
        q1=float(c.reaching_gains[0]), q2=float(c.reaching_gains[1]),
        p1=float(c.switch_gains[0]), p2=float(c.switch_gains[1]),
        offset_l=float(c.offset_l),
        f_bounds=(float(c.f_bounds[0]), float(c.f_bounds[1])),
        boundary_layer=float(c.boundary_layer),
        track_width=float(c.track_width))


def build_circuit_spec(config: ScenarioConfig) -> CircuitSpec:
    c = config.circuit
    return CircuitSpec(edge_length=float(c.edge_length),
                       corner_radius=float(c.corner_radius),
                       speed=float(c.speed),
                       center=(float(c.center[0]), float(c.center[1])),
                       min_corner_radius=float(c.min_corner_radius))


def build_sweep_spec(config: ScenarioConfig) -> SweepSpec:
    s = config.sweep
    return SweepSpec(passes=int(s.passes),
                     horizontal_span=float(s.horizontal_span),
                     vertical_span=float(s.vertical_span),
                     base_height=float(s.base_height),
                     speed=float(s.speed),
                     pitch=float(s.pitch_deg) * DEG)


def build_fire_test(config: ScenarioConfig) -> FireTestSpec:
    ft = config.fire_test
    return FireTestSpec(label=ft.label, crib_side=float(ft.crib_side),
                        discharge_time=float(ft.discharge_time),
                        stage2_budget=float(ft.stage2_budget))


def build_top_spray(config: ScenarioConfig) -> TopSpraySpec:
    ts = config.top_spray
    return TopSpraySpec(duration=float(ts.duration),
                        joints=tuple(float(x) * DEG for x in ts.joints_deg))


def build_fires(config: ScenarioConfig) -> list:
    return [FireSpot(ident=f.ident, position=tuple(float(x) for x in f.position))
            for f in config.fires]


def disturbance_series(config: DisturbanceConfig, times: np.ndarray) -> np.ndarray:
    """Per-step disturbance samples (N, 2) on the v and w channels.

    The noise kind draws both channels from one seeded PCG64 stream in
    (sample, channel) order, so a given seed always reproduces the same
    series for a given step count.
    """
    n = len(times)
    out = np.zeros((n, 2))
    amp = np.array(config.amplitude, dtype=float)
    if config.kind == "constant":
        out[:] = amp
    elif config.kind == "sine":
        phase = 2.0 * math.pi * config.frequency * times
        out[:, 0] = amp[0] * np.sin(phase)
        out[:, 1] = amp[1] * np.sin(phase)
    elif config.kind == "noise":
        rng = np.random.default_rng(config.seed)
        out = rng.uniform(-1.0, 1.0, size=(n, 2)) * amp
    return out
