"""Scenario configuration: YAML in, validated dataclasses out.

Config files use field-friendly units (degrees, millimetres for arm geometry,
metres for the chassis and planner).  The planner and both control laws
read their sections directly and convert degrees where they use them;
builders turn the geometry and inertial sections into the engine's
ArmGeometry and inertial parameters.  An empty file is a valid scenario:
every field has the stock default.

Every numeric field but the noise seed declares a closed range in its key's
unit: the envelope of the machine (a 400 kg arm with a 20 kg payload on a
tracked chassis) and of the ISO 7165 / ISO 11601 crib rig, with wide
margins.  Within the ranges no square, product or unit conversion the engine
forms from config values overflows, and none that must stay positive
underflows to 0; relations between fields are cross-field rules.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .dynamics import BODIES, LinkInertialParams, default_inertial_params
from .errors import JointLimitViolation, ParseError, ValidationError
from .kinematics import ArmGeometry, check_joint_limits
from .util import DEG, INTEGRATORS


# -- field rules ------------------------------------------------------------
#
# Every leaf field of a config dataclass declares its default and its rule in
# one place.  A rule is called as rule(value, name, problems) and appends one
# message per problem it finds with the value of the field called name.


def _number(x) -> bool:
    """An int (type(x) is int, which a bool is not), of any size since it
    compares with a range's edges exactly, or a finite float: NaN and
    infinities would reach the log."""
    return type(x) is int or isinstance(x, float) and math.isfinite(x)


def _finite(lo, hi, zero: bool = False, whole: bool = False):
    """A finite number, or an int when whole, in the closed range [lo, hi]
    or else 0 when zero; the rule keeps its range as rule.range."""
    shape = "%%s: must be %sin [%r, %r]" % ("0 or " if zero else "", lo, hi)

    def rule(value, name, problems):
        if not (type(value) is int if whole else _number(value)):
            problems.append("%s: expected %s" % (
                name, "an integer" if whole else "a finite number"))
        elif not (lo <= value <= hi or zero and value == 0):
            problems.append(shape % name)
    rule.range = (lo, hi)
    return rule


def _vector(n: int, lo, hi, zero: bool = False, optional: bool = False):
    """n numbers, each as _finite(lo, hi, zero) has it; also None when
    optional."""
    element = _finite(lo, hi, zero)

    def rule(value, name, problems):
        if value is None and optional:
            return
        if not isinstance(value, (list, tuple)) or len(value) != n:
            problems.append("%s: expected %d numbers" % (name, n))
            return
        for i, x in enumerate(value):
            element(x, "%s[%d]" % (name, i), problems)
    rule.range = element.range
    return rule


def _check(ok, message: str):
    """Choices: message unless ok(value)."""
    def rule(value, name, problems):
        if not ok(value):
            problems.append("%s: %s" % (name, message))
    return rule


def _seed(value, name, problems):
    """A noise seed: numpy's generator takes any int but a negative one."""
    if type(value) is not int:
        problems.append("%s: expected an integer" % name)
    elif value < 0:
        problems.append("%s: must be >= 0" % name)


def _ident(value, name, problems):
    """A fire's name: a non-empty string of printable characters, since the
    run log's one-line #flagged= metadata entry holds it."""
    if not isinstance(value, str) or value == "":
        problems.append("%s: expected a non-empty string" % name)
    elif not value.isprintable():
        problems.append("%s: expected printable characters only" % name)


def _field(default, rule):
    """A config field with its default and its rule; a list default is
    copied for each instance."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


# -- config sections --------------------------------------------------------


@dataclass
class GeometryConfig:
    """Arm geometry in mm."""

    # A length is 0 or 1 um to 100 m (the stock arm's longest link is
    # 1.7 m), so a nonzero one's square in m^2 and the stock split's masses
    # and rod inertias m L^2 / 3 formed from it stay positive and finite.
    link_lengths: list = _field([100.0, 1000.0, 1700.0, 100.0, 80.0],
                                _vector(5, 0.001, 100_000, zero=True))
    shoulder_height: float = _field(185.0, _finite(0.001, 100_000, zero=True))
    # The tool offset only adds its square to positive terms.
    tool_y_offset: float = _field(0.0, _finite(0, 100_000))


@dataclass
class InertialConfig:
    """Mass budget; explicit per-link values override the stock split."""

    # kg, m, kg m^2 and m/s^2: the stock split's m L^2 / 3 stays within
    # [1e-25, 1e9] and every m c^2 at most 1e9.
    total_mass: float = _field(400.0, _finite(0.001, 100_000))
    payload_mass: float = _field(20.0, _finite(0, 10_000))
    gravity: float = _field(9.81, _finite(0.1, 100))
    masses: list | None = _field(None, _vector(4, 0.001, 100_000,
                                               optional=True))
    com_offsets: list | None = _field(None, _vector(4, 0, 100, optional=True))
    inertias: list | None = _field(None, _vector(4, 1e-06, 1_000_000_000,
                                                  optional=True))


@dataclass
class ArmControlConfig:
    # Gains of both laws within [1e-3, 1e4] (stock: 0.2 to 100); a run they
    # drive unstable is named by the step whose state turns non-finite.
    surface_rate: float = _field(20.0, _finite(0.001, 10_000))
    switch_gain: list = _field([5.0, 5.0, 5.0, 5.0],
                               _vector(4, 0.001, 10_000))
    boundary_layer: float = _field(0.01, _finite(0, 100))


@dataclass
class ChassisControlConfig:
    # Gains as in arm_control; lengths in m and f_bounds in m/s^2.
    surface_gains: list = _field([4.0, 100.0, 18.0],
                                 _vector(3, 0.001, 10_000))
    reaching_gains: list = _field([15.0, 15.0], _vector(2, 0.001, 10_000))
    switch_gains: list = _field([0.2, 0.2], _vector(2, 0, 10_000))
    offset_l: float = _field(0.3, _finite(0, 100))
    f_bounds: list = _field([0.1, 0.1], _vector(2, 0, 100))
    boundary_layer: float = _field(0.0, _finite(0, 100))
    track_width: float = _field(0.8, _finite(0.001, 100))


@dataclass
class CircuitConfig:
    # m and m/s: lengths of 1 mm to 10 km and speeds of 1 mm/s to 100 m/s
    # around a crib of about 1 m.
    edge_length: float = _field(2.60128, _finite(0.001, 10_000))
    corner_radius: float = _field(0.5, _finite(0.001, 10_000))
    speed: float = _field(0.88, _finite(0.001, 100))
    center: list = _field([0.0, 0.0], _vector(2, -10_000, 10_000))
    min_corner_radius: float = _field(0.2, _finite(0.001, 10_000))


@dataclass
class SweepConfig:
    # m, m/s and degrees; the plan names a pass count the edge cannot hold.
    passes: int = _field(4, _finite(1, 1_000_000, whole=True))
    horizontal_span: float = _field(0.9, _finite(0.001, 100))
    vertical_span: float = _field(0.45, _finite(0, 100))
    base_height: float = _field(0.2, _finite(0, 100))
    speed: float = _field(1.4, _finite(0.001, 100))
    pitch_deg: float = _field(30.0, _finite(-360, 360))


@dataclass
class FireTestConfig:
    # m, and s: a discharge of 15 s, within a day with margin.
    crib_side: float = _field(1.0, _finite(0.001, 100))
    discharge_time: float = _field(15.0, _finite(0.001, 100_000))
    stage2_budget: float = _field(3.0, _finite(0, 100_000))


@dataclass
class TopSprayConfig:
    # s and degrees; the joint window is a cross-field rule.
    duration: float = _field(0.0, _finite(0, 100_000))
    joints_deg: list = _field([0.0, 135.0, 15.5, -45.0],
                              _vector(4, -360, 360))


@dataclass
class FireConfig:
    # m, within 10 km of the rig.
    position: list = _field([0.0, 0.0, 0.0], _vector(3, -10_000, 10_000))
    ident: str = _field("", _ident)


@dataclass
class DisturbanceConfig:
    """Additive velocity-channel disturbance f = (f_v, f_w)."""

    kind: str = _field("none", _check(
        lambda x: x in ("none", "constant", "sine", "noise"),
        "expected none, constant, sine or noise"))
    # m/s^2 as chassis_control.f_bounds, and Hz.
    amplitude: list = _field([0.0, 0.0], _vector(2, 0, 100))
    frequency: float = _field(0.5, _finite(0.001, 1000))
    seed: int = _field(0, _seed)


@dataclass
class BandConfig:
    """Chassis convergence band used by the metrics report."""

    e1_mm: float = _field(20.0, _finite(0.001, 100_000))
    e2_mm: float = _field(1.0, _finite(0.001, 100_000))
    e3_deg: float = _field(0.6, _finite(0.001, 360))


@dataclass
class ScenarioConfig:
    """A whole scenario: the step, the integrator and one section per
    block of the YAML file.  ScenarioConfig() is the stock mission;
    parse_config overlays a mapping on it and validates the result."""

    # s: dt's lower edge is the least positive float, since the plan names
    # a dt too small for the run by its step count.
    dt: float = _field(0.001, _finite(5e-324, 10))
    integrator: str = _field("midpoint", _check(
        lambda x: x in INTEGRATORS, "expected " + " or ".join(INTEGRATORS)))
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
    # m, m and degrees.
    initial_pose_offset: list = _field([0.0, 0.0, 0.0],
                                       _vector(3, -10_000, 10_000))


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
    """The scenario in the UTF-8 YAML file at path, through parse_config;
    an empty file is the stock scenario.  A file that is not YAML or not
    UTF-8 is a ParseError naming path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ParseError("%s: %s" % (path, exc)) from exc
    return parse_config(data)


def save_config(config: ScenarioConfig, path) -> None:
    """Write config to path as UTF-8 YAML, which load_config reads back
    to an equal scenario."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(dataclasses.asdict(config), fh, sort_keys=False)


# -- validation -----------------------------------------------------------


def _leaves(obj, path: str = ""):
    """(name, value, rule) of every leaf field in declaration order, through
    the sections and the fire entries."""
    for f in dataclasses.fields(obj):
        name, value = path + f.name, getattr(obj, f.name)
        if "rule" in f.metadata:
            yield name, value, f.metadata["rule"]
        elif f.name == "fires":
            for i, fire in enumerate(value):
                yield from _leaves(fire, "%s[%d]." % (name, i))
        else:
            yield from _leaves(value, name + ".")


def _passed(problems: list, *keys) -> bool:
    """Whether no problem so far names one of keys, or a key under one."""
    return not any(p.startswith(keys) for p in problems)


def _link_lengths(config: ScenarioConfig, problems: list) -> None:
    """The IK divides by the boom and forearm lengths, and the stock inertial
    split gives the column and wrist an inertia of m L^2 / 3, which a zero
    lateral offset or end link would make 0."""
    lengths = config.geometry.link_lengths
    if not (isinstance(lengths, (list, tuple)) and len(lengths) == 5):
        return
    stock = config.inertial.inertias is None
    for i in (0, 1, 2, 4):
        if _number(lengths[i]) and lengths[i] == 0:
            if i in (1, 2):
                problems.append("geometry.link_lengths[%d]: must be > 0" % i)
            elif stock:
                problems.append("geometry.link_lengths[%d]: must be > 0 "
                                "while inertial.inertias is unset" % i)


def _corner_radius(config: ScenarioConfig, problems: list) -> None:
    c = config.circuit
    if (_passed(problems, "circuit.corner_radius", "circuit.min_corner_radius")
            and c.corner_radius < c.min_corner_radius):
        problems.append("circuit.corner_radius: below circuit.min_corner_radius")


def _amplitude(config: ScenarioConfig, problems: list) -> None:
    amplitude = config.disturbance.amplitude
    bounds = config.chassis_control.f_bounds
    if config.disturbance.kind == "none" or not _passed(
            problems, "disturbance.amplitude", "chassis_control.f_bounds"):
        return
    for i in range(2):
        if amplitude[i] > bounds[i]:
            problems.append("disturbance.amplitude[%d]: exceeds "
                            "chassis_control.f_bounds[%d]" % (i, i))


def _top_spray_joints(config: ScenarioConfig, problems: list) -> None:
    """The arm holds these joints through the top spray, so they must keep
    every joint and the elbow angle in range."""
    if _passed(problems, "top_spray.joints_deg"):
        try:
            check_joint_limits([v * DEG for v in config.top_spray.joints_deg])
        except JointLimitViolation as exc:
            problems.append("top_spray.joints_deg: %s" % exc)


def _inertial_split(config: ScenarioConfig, problems: list) -> None:
    """What the model would reject in build_inertial's parameters
    (LinkInertialParams.validate), named by a key the scenario set.  Each
    field is in its range, so a mass or inertia validate finds <= 0 is one
    of a column or wrist that the stock split leaves massless, named first
    by its lengths.  A planar body's inertia below its point-mass bound
    m c^2 keeps validate's key while the inertias are set, and is named by
    the com_offsets that raised it while they are the stock m L^2 / 3.
    Runs once the geometry and inertial fields are valid."""
    if not _passed(problems, "geometry.", "inertial."):
        return
    ine, lengths = config.inertial, config.geometry.link_lengths
    if ine.masses is None:  # the split's column and wrist lengths
        column = (0, "geometry.shoulder_height",
                  config.geometry.shoulder_height)
        wrist = (3, "geometry.link_lengths[4]", lengths[4])
        for i, other, length in (column, wrist):
            if lengths[i] + length == 0:
                problems.append("geometry.link_lengths[%d]: must be > 0 while "
                                "%s is 0 and inertial.masses is unset"
                                % (i, other))
    for key, text in (p.split(": ", 1) for p in
                      _fill_inertial(ine, build_geometry(config)).validate()):
        if text == "must be > 0":  # the massless body, named above
            continue
        i = int(key[-2])
        problems.append(
            "%s: %s" % (key, text) if ine.inertias is not None else
            "inertial.com_offsets[%d]: puts the %s body's point-mass bound "
            "above its stock inertia m L^2 / 3 while inertial.inertias is "
            "unset" % (i, BODIES[i]))


# Each cross-field rule runs right after the field it is keyed on here.
_CROSS_RULES = {"geometry.link_lengths": _link_lengths,
                "inertial.inertias": _inertial_split,
                "circuit.min_corner_radius": _corner_radius,
                "top_spray.joints_deg": _top_spray_joints,
                "disturbance.seed": _amplitude}


def validate_config(config: ScenarioConfig) -> list:
    """Return a list of human-readable problems, empty when valid: each
    field's rule in declaration order, plus the cross-field rules."""
    problems: list = []
    for name, value, rule in _leaves(config):
        rule(value, name, problems)
        if name in _CROSS_RULES:
            _CROSS_RULES[name](config, problems)
    return problems


# -- builders into engine objects -----------------------------------------


def build_geometry(config: ScenarioConfig) -> ArmGeometry:
    """The geometry section as the engine's frozen, all-float ArmGeometry."""
    g = config.geometry
    return ArmGeometry(a=tuple(float(v) for v in g.link_lengths),
                       d1=float(g.shoulder_height), y5p=float(g.tool_y_offset))


def build_inertial(config: ScenarioConfig,
                   geometry: ArmGeometry) -> LinkInertialParams:
    """The inertial section as the engine's parameters.  A vector the
    scenario leaves unset comes from the stock split of total_mass over the
    geometry (default_inertial_params); unset inertias take its rod rule
    m L^2 / 3 with the masses in use.  Raises ValidationError for parameters
    the model rejects."""
    params = _fill_inertial(config.inertial, geometry)
    problems = params.validate()
    if problems:
        raise ValidationError(problems)
    return params


def _fill_inertial(ine: InertialConfig,
                   geometry: ArmGeometry) -> LinkInertialParams:
    """build_inertial's parameters, not yet validated."""
    stock = default_inertial_params(geometry, ine.total_mass,
                                    ine.payload_mass, ine.gravity)

    def pick(given, default):
        return tuple(float(v) for v in (default if given is None else given))

    masses = pick(ine.masses, stock.masses)
    # The split's centres of mass sit mid-rod: L = 2 c.
    rods = [2.0 * c for c in stock.com_offsets]
    return LinkInertialParams(
        masses=masses, com_offsets=pick(ine.com_offsets, stock.com_offsets),
        inertias=pick(ine.inertias, [m * L * L / 3.0
                                     for m, L in zip(masses, rods)]),
        payload_mass=float(ine.payload_mass), gravity=float(ine.gravity))


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
