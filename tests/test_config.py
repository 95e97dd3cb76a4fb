"""Scenario configuration: parsing, validation, round trips, builders."""
import math

import numpy as np
import pytest

import dataclasses

from mobman import config as config_mod
from mobman.config import (ChassisControlConfig, DisturbanceConfig,
                           GeometryConfig, ScenarioConfig, build_geometry,
                           disturbance_series, load_config, parse_config,
                           save_config, validate_config)
from mobman.dynamics import ArmDynamics, LinkInertialParams, inertial_params
from mobman.errors import ParseError, ValidationError
from mobman.kinematics import forward_kinematics
from mobman.mission import Circuit, build_sweep
from mobman.simulate import run_mission
from test_config_messages import _nest

DEG = math.pi / 180.0


def test_empty_and_none_yield_defaults():
    assert parse_config({}) == ScenarioConfig()
    assert parse_config(None) == ScenarioConfig()


def test_dt_zero_is_named():
    with pytest.raises(ValidationError) as err:
        parse_config({"dt": 0.0})
    assert any("dt" in m for m in err.value.messages)
    # The IK divides by the boom and forearm lengths.
    for i in (1, 2):
        lengths = [100, 1000, 1700, 100, 80]
        lengths[i] = 0
        with pytest.raises(ValidationError) as err:
            parse_config({"geometry": {"link_lengths": lengths}})
        assert err.value.messages == [
            "geometry.link_lengths[%d]: must be > 0" % i]


def test_zero_end_link_is_named_while_inertias_are_stock():
    """The stock inertial split gives the column and the wrist an inertia of
    m L^2 / 3, so a zero lateral offset or end link is rejected at parse
    time, naming the key, unless the scenario sets inertial.inertias."""
    for i in (0, 4):
        lengths = [100, 1000, 1700, 100, 80]
        lengths[i] = 0
        message = ("geometry.link_lengths[%d]: must be > 0 while "
                   "inertial.inertias is unset" % i)
        for inertial in ({}, {"masses": [50.0, 150.0, 150.0, 50.0]}):
            with pytest.raises(ValidationError) as err:
                parse_config({"geometry": {"link_lengths": lengths},
                              "inertial": inertial})
            assert err.value.messages == [message]
        # The forearm's point-mass bound is 160.3 kg m^2 on either arm.
        config = parse_config({"geometry": {"link_lengths": lengths},
                               "inertial": {"inertias": [5.0, 50.0, 170.0,
                                                         2.0]}})
        geometry = build_geometry(config)
        params = inertial_params(config.inertial, geometry)
        assert params.inertias == (5.0, 50.0, 170.0, 2.0)
        ArmDynamics(params, geometry)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_number_is_named(bad):
    """NaN and infinities are rejected by key, so they never reach the log."""
    with pytest.raises(ValidationError) as err:
        parse_config({"disturbance": {"kind": "constant",
                                      "amplitude": [bad, 0.0]}})
    assert err.value.messages == [
        "disturbance.amplitude[0]: expected a finite number"]
    with pytest.raises(ValidationError) as err:
        parse_config({"dt": bad})
    assert err.value.messages == ["dt: expected a finite number"]


def test_unknown_key_reported():
    with pytest.raises(ValidationError) as err:
        parse_config({"chasis_control": {}})
    assert any("unknown key" in m for m in err.value.messages)
    # The link twists and offsets are fixed by the arm's structure.
    for key in ("link_twists_deg", "link_offsets"):
        with pytest.raises(ValidationError) as err:
            parse_config({"geometry": {key: [0.0] * 5}})
        assert err.value.messages == ["geometry.%s: unknown key" % key]


def test_section_must_be_mapping():
    with pytest.raises(ValidationError) as err:
        parse_config({"circuit": 7})
    assert any("expected a mapping" in m for m in err.value.messages)


def test_integrator_choices():
    assert parse_config({"integrator": "euler"}).integrator == "euler"
    assert parse_config({"integrator": "midpoint"}).integrator == "midpoint"
    assert parse_config({}).integrator == "midpoint"
    for bad in ("rk4", "rk2"):
        with pytest.raises(ValidationError) as err:
            parse_config({"integrator": bad})
        assert err.value.messages == [
            "integrator: expected midpoint or euler"]


def test_multiple_problems_collected():
    with pytest.raises(ValidationError) as err:
        parse_config({"dt": -1.0, "circuit": {"speed": 0.0}})
    assert len(err.value.messages) >= 2


def test_disturbance_must_fit_bounds():
    data = {"disturbance": {"kind": "constant", "amplitude": [0.5, 0.0]}}
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert any("amplitude" in m for m in err.value.messages)
    # Raising the plant bound makes the same amplitude legal.
    data["chassis_control"] = {"f_bounds": [0.6, 0.1]}
    parse_config(data)


def test_sweep_passes_validation():
    with pytest.raises(ValidationError):
        parse_config({"sweep": {"passes": 0}})
    with pytest.raises(ValidationError):
        parse_config({"sweep": {"passes": 2.5}})


def test_negative_disturbance_seed_is_named():
    """numpy's generator rejects a negative seed, so parsing does, by key."""
    with pytest.raises(ValidationError) as err:
        parse_config({"disturbance": {"kind": "noise", "seed": -1}})
    assert err.value.messages == ["disturbance.seed: must be >= 0"]
    parse_config({"disturbance": {"kind": "noise", "seed": 0}})


def test_yaml_round_trip(tmp_path):
    config = parse_config({
        "dt": 0.002,
        "circuit": {"edge_length": 3.0, "corner_radius": 0.6},
        "fires": [{"ident": "A", "position": [0.1, 0.2, 0.3]}],
        "disturbance": {"kind": "sine", "amplitude": [0.05, 0.05]},
    })
    path = tmp_path / "scenario.yaml"
    save_config(config, path)
    again = load_config(path)
    assert again == config
    # The saved file is plain data keyed by field names.
    data = dataclasses.asdict(config)
    assert data["dt"] == 0.002
    assert parse_config(data) == config


@pytest.mark.parametrize("joints, shown", [
    ([0, 170, 60, 40], "theta2 = 170.000000 deg outside [0.00, 135.00] deg"),
    ([0, 90, 60, 0], "theta3 = 60.000000 deg outside [-120.00, 15.50] deg"),
    ([0, 90, 0, 40], "theta4 = 40.000000 deg outside [-90.00, 0.00] deg"),
    ([0, 135, -30, -45],
     "interior angle = 15.000000 deg outside [30, 165] deg"),
], ids=["theta2", "theta3", "theta4", "elbow"])
def test_top_spray_joints_outside_their_ranges_are_named(joints, shown):
    """The arm holds the top-spray joints, so a vector it cannot reach is
    rejected by key; the stock vector, which sits on two stops, passes."""
    assert parse_config({"top_spray": {"joints_deg": [0, 135, 15.5, -45]}})
    with pytest.raises(ValidationError) as err:
        parse_config({"dt": 0.01, "top_spray": {"duration": 0.5,
                                                "joints_deg": joints}})
    assert err.value.messages == ["top_spray.joints_deg: " + shown]


def test_yaml_syntax_error_raises_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("dt: [unclosed\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_fires_overlay_assigns_idents():
    config = parse_config({"fires": [{"position": [1.0, 0.0, 0.3]},
                                     {"position": [0.0, 1.0, 0.3]}]})
    assert [f.ident for f in config.fires] == ["F1", "F2"]
    assert config.fires[0].position == [1.0, 0.0, 0.3]


@pytest.mark.parametrize("ident", ["far\nfire", "far\rfire"])
def test_fire_ident_with_a_line_break_is_rejected(ident):
    """The run log holds the flagged idents on one #flagged= line, which a
    line break would split, so parsing rejects the ident by key."""
    with pytest.raises(ValidationError) as err:
        parse_config({"fires": [{"position": [5, 5, 0.3], "ident": ident}]})
    assert err.value.messages == [
        "fires[0].ident: expected printable characters only"]


def test_default_fires_match_worked_example():
    fires = ScenarioConfig().fires
    assert [f.ident for f in fires] == ["F1", "F2"]
    assert fires[0].position == [0.30, 0.20, 0.30]
    assert fires[1].position == [0.20, 0.30, 0.30]


def test_build_geometry_mirrors_config():
    geometry = build_geometry(ScenarioConfig())
    assert geometry.a == (100.0, 1000.0, 1700.0, 100.0, 80.0)
    assert geometry.d1 == 185.0
    assert geometry.y5p == 0.0
    cfg = parse_config({"geometry": {"tool_y_offset": 120.0}})
    assert build_geometry(cfg).y5p == 120.0


def test_every_geometry_key_moves_the_tool():
    """A geometry key that no run reads fails here: perturbing any leaf of
    the geometry section through parse_config moves the tool of one q."""
    q = [0.3, 70.0 * DEG, -40.0 * DEG, -30.0 * DEG]

    def tool(section):
        config = parse_config({"geometry": section})
        pose = forward_kinematics(q, build_geometry(config))
        return pose.x, pose.y, pose.z, pose.phi

    stock = tool({})
    section = GeometryConfig()
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if isinstance(value, list):
            perturbed = [value[:i] + [value[i] + 10.0] + value[i + 1:]
                         for i in range(len(value))]
        else:
            perturbed = [value + 10.0]
        for v in perturbed:
            assert tool({f.name: v}) != stock, (f.name, v)


def test_point_mass_bound_is_named():
    """Explicit inertias below a body's point-mass bound m c^2 pass the
    per-field rules, and parse_config then names each offending key."""
    with pytest.raises(ValidationError) as err:
        parse_config({"inertial": {"inertias": [1, 1, 1, 1]}})
    assert err.value.messages == [
        "inertial.inertias[1]: below the point-mass bound of the boom body",
        "inertial.inertias[2]: below the point-mass bound of the forearm body"]


def test_partial_inertial_override_is_named_by_a_set_key():
    """An unset inertial vector comes from the stock split, its inertias by
    the rod rule m L^2 / 3 of the masses in use.  Masses alone therefore
    run, and what the model would reject in a partial override is named at
    parse time by a key the scenario set."""
    config = parse_config({"dt": 0.01,
                           "inertial": {"masses": [10, 300, 400, 50]}})
    params = inertial_params(config.inertial, build_geometry(config))
    rods = (0.1, 1.0, 1.7, 0.08)
    assert params.inertias == pytest.approx(
        [m * L * L / 3.0 for m, L in zip(params.masses, rods)], rel=1e-12)
    assert run_mission(config).report.verdict == "PASS"

    unset = "inertial.inertias is unset"
    for data, messages in (
            ({"inertial": {"com_offsets": [0.05, 0.9, 1.5, 0.09]}},
             ["inertial.com_offsets[%d]: puts the %s body's point-mass bound "
              "above its stock inertia m L^2 / 3 while %s" % (i, body, unset)
              for i, body in ((1, "boom"), (2, "forearm"), (3, "wrist"))]),
            ({"geometry": {"link_lengths": [0, 1000, 1700, 100, 80],
                           "shoulder_height": 0},
              "inertial": {"inertias": [5, 50, 170, 2]}},
             ["geometry.link_lengths[0]: must be > 0 while "
              "geometry.shoulder_height is 0 and inertial.masses is unset",
              "inertial.inertias[2]: below the point-mass bound of the "
              "forearm body"]),
            ({"geometry": {"link_lengths": [100, 1000, 1700, 0, 0]},
              "inertial": {"inertias": [5, 50, 170, 2]}},
             ["geometry.link_lengths[3]: must be > 0 while "
              "geometry.link_lengths[4] is 0 and inertial.masses is unset"])):
        with pytest.raises(ValidationError) as err:
            parse_config(data)
        assert err.value.messages == messages


def _builds(data):
    """Parse `data`, build its arm model and check every mass and inertia of
    the split is positive and finite."""
    config = parse_config(data)
    geometry = build_geometry(config)
    params = inertial_params(config.inertial, geometry)
    assert all(0.0 < v < math.inf for v in params.masses + params.inertias)
    ArmDynamics(params, geometry)


def _named(data, messages):
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.messages == messages


def test_length_whose_square_is_past_the_float_range_is_named():
    """The arm model squares each link length and the tool offset in m, so a
    length whose square would pass the float range, or a nonzero one whose
    square would underflow, is named by its key at parse time with the range
    message, never raised later from ArmDynamics.  The longest lengths and
    the shortest nonzero ones still build the model."""
    lengths = "geometry.link_lengths[%d]: must be 0 or in [0.001, 100000]"
    offset = ["geometry.tool_y_offset: must be in [0, 100000]"]
    top = 1.3407807929942596e157  # mm; the largest length whose square fits
    for data, messages in (
            ({"link_lengths": [1000, 1e300, 1e300, 0, 1700]},
             [lengths % 1, lengths % 2]),
            ({"link_lengths": [100, 1000, 1700, 100, 1e300]}, [lengths % 4]),
            ({"link_lengths": [100, 1000, 1700, 100, top]}, [lengths % 4]),
            ({"link_lengths": [100, 1000, 1700, 100, 1e-200]}, [lengths % 4]),
            ({"link_lengths": [100, 1000, 1700, 100,
                               math.nextafter(1e5, math.inf)]}, [lengths % 4]),
            ({"tool_y_offset": 1e300}, offset),
            ({"tool_y_offset": top}, offset)):
        _named({"geometry": data}, messages)
    _builds({"geometry": {"link_lengths": [1e5] * 5, "tool_y_offset": 1e5}})
    _builds({"geometry": {"link_lengths": [0.001] * 5,
                          "shoulder_height": 0.001},
             "inertial": {"total_mass": 0.001}})


def test_underflowing_split_is_named_by_its_mass():
    """A mass budget so small that the stock split's masses or rod inertias
    would round to 0 is named at parse time by the mass the scenario set,
    with the range message.  The smallest masses in range still build."""
    total = ["inertial.total_mass: must be in [0.001, 100000]"]
    for data, messages in (
            ({"total_mass": 5e-324}, total),  # masses and inertias
            ({"total_mass": 1e-320}, total),  # the wrist's inertia only
            ({"total_mass": 1e-300}, total),
            ({"total_mass": 5e-324, "masses": [1.0] * 4}, total),
            ({"masses": [1e-322, 1.0, 1.0, 1e-322]},
             ["inertial.masses[%d]: must be in [0.001, 100000]" % i
              for i in (0, 3)])):
        _named({"inertial": data}, messages)
    for data in ({"total_mass": 0.001}, {"masses": [0.001] * 4},
                 {"total_mass": 0.001, "masses": [1.0] * 4}):
        _builds({"inertial": data})


def test_point_mass_bound_past_the_float_range_is_named():
    """A centre of mass whose square is past the float range would make its
    body's point-mass bound infinite: it is named by its key with the range
    message, never raised as an OverflowError, and a mass out of range
    beside it is named too.  The farthest centres in range build."""
    offsets = [0.05, 1e200, 0.85, 0.04]
    com = ["inertial.com_offsets[1]: must be in [0, 100]"]
    for data, messages in (
            ({"com_offsets": offsets}, com),
            ({"com_offsets": offsets, "inertias": [5, 50, 170, 2]}, com),
            ({"com_offsets": offsets, "total_mass": 5e-324},
             ["inertial.total_mass: must be in [0.001, 100000]"] + com)):
        _named({"inertial": data}, messages)
    _builds({"inertial": {"com_offsets": [100] * 4, "inertias": [1e9] * 4}})


def test_value_outside_its_range_is_named():
    """A value past its field's range is named by its key at parse time with
    the one range message, so no unit conversion or count the engine forms
    from it overflows later: a heading offset whose radians would pass the
    float range and a pass count past any float."""
    for data, messages in (
            ({"initial_pose_offset": [0, 0, 1.7e308]},
             ["initial_pose_offset[2]: must be in [-10000, 10000]"]),
            ({"sweep": {"passes": 10 ** 400}},
             ["sweep.passes: must be in [1, 1000000]"])):
        _named(data, messages)


def test_every_numeric_leaf_declares_a_range():
    """Every numeric config field but the noise seed declares a finite
    closed range [lo, hi] around its stock default, and a value at each
    edge parses.  Vectors take the edge in every element, and a key a
    cross-field rule relates to the edged one is set to pass that rule; the
    top-spray joints, which the joint window always rejects at the edges,
    are checked to fail on that window alone."""
    for name, value, rule in config_mod._leaves(ScenarioConfig()):
        if name == "disturbance.seed" or not hasattr(rule, "range"):
            assert name in ("integrator", "disturbance.kind",
                            "disturbance.seed") or name.endswith(".ident")
            continue
        lo, hi = rule.range
        assert -math.inf < lo < hi < math.inf, name
        for v in value if isinstance(value, list) else [value]:
            assert v is None or lo <= v <= hi, name
        for edge in (lo, hi):
            if isinstance(value, (int, float)):
                data = _nest(name, edge)
            else:  # a vector, None for the optional inertial ones
                data = _nest(name, [edge] * (4 if value is None
                                             else len(value)))
            if name.startswith("fires["):
                data = {"fires": [{"position": [edge] * 3}]}
            if name.startswith("circuit.") and "corner" in name:
                data["circuit"] = {"corner_radius": edge,
                                   "min_corner_radius": edge}
            if name == "inertial.com_offsets":  # inertias above m c^2
                data["inertial"]["inertias"] = [1e9] * 4
            if name == "inertial.inertias":  # a bound m c^2 of 0
                data["inertial"]["com_offsets"] = [0] * 4
            if name == "top_spray.joints_deg":
                with pytest.raises(ValidationError) as err:
                    parse_config(data)
                assert [m.split(" = ")[0] for m in err.value.messages] == [
                    "top_spray.joints_deg: theta1"]
                continue
            parse_config(data)


def test_inertial_params_paths():
    cfg = ScenarioConfig()
    params = inertial_params(cfg.inertial, build_geometry(cfg))
    assert sum(params.masses) == pytest.approx(400.0)
    explicit = parse_config({"inertial": {
        "masses": [50.0, 150.0, 150.0, 50.0],
        "com_offsets": [0.05, 0.5, 0.85, 0.09],
        "inertias": [5.0, 50.0, 120.0, 2.0]}})
    params = inertial_params(explicit.inertial, build_geometry(explicit))
    assert params.masses == (50.0, 150.0, 150.0, 50.0)
    # Bad values are rejected at parse time, by the same rule the model
    # applies...
    for key, bad, message in (
            ("masses", [50.0, -1.0, 150.0, 50.0],
             "masses[1]: must be in [0.001, 100000]"),
            ("inertias", [0.0, 50.0, 120.0, 2.0],
             "inertias[0]: must be in [1e-06, 1000000000]")):
        with pytest.raises(ValidationError) as err:
            parse_config({"inertial": {key: bad}})
        assert err.value.messages == ["inertial." + message]
    # ...and again by the model if a config is mutated after parsing.
    bad = ScenarioConfig()
    bad.inertial.masses = [50.0, -1.0, 150.0, 50.0]
    bad.inertial.inertias = [0.0, 50.0, 120.0, 2.0]
    geometry = build_geometry(bad)
    with pytest.raises(ValidationError) as err:
        ArmDynamics(inertial_params(bad.inertial, geometry), geometry)
    assert err.value.messages == ["inertial.masses[1]: must be > 0",
                                  "inertial.inertias[0]: must be > 0"]


def test_run_checks_the_arm_model_once(monkeypatch):
    """parse_config checks the inertial parameters by key; a run checks
    them once more, as ArmDynamics is built, and nowhere else."""
    calls = []
    check = LinkInertialParams.validate
    monkeypatch.setattr(LinkInertialParams, "validate",
                        lambda self: calls.append(self) or check(self))
    run_mission(ScenarioConfig(dt=0.01))
    assert len(calls) == 1


def test_circuit_and_sweep_read_their_sections():
    config = ScenarioConfig()
    circuit = Circuit(config.circuit, dt=config.dt)
    assert circuit.spec.edge_length == 2.60128 and circuit.spec.speed == 0.88
    sweep = build_sweep(1, config.sweep, config.fire_test, circuit)
    assert sweep.pitch == pytest.approx(30.0 * DEG)
    assert sweep.speed == 1.4


def test_validate_config_returns_list():
    problems = validate_config(ScenarioConfig())
    assert problems == []
    broken = ScenarioConfig(dt=-5.0)
    assert any("dt" in p for p in validate_config(broken))


def test_disturbance_series_kinds():
    t = np.arange(0, 1.0, 0.01)
    none = disturbance_series(DisturbanceConfig(), t)
    assert none.shape == (len(t), 2) and not none.any()
    const = disturbance_series(
        DisturbanceConfig(kind="constant", amplitude=[0.05, 0.02]), t)
    np.testing.assert_allclose(const, np.tile([0.05, 0.02], (len(t), 1)))
    sine = disturbance_series(
        DisturbanceConfig(kind="sine", amplitude=[0.1, 0.1], frequency=0.5), t)
    np.testing.assert_allclose(sine[:, 0],
                               0.1 * np.sin(2 * math.pi * 0.5 * t), atol=1e-12)
    n1 = disturbance_series(
        DisturbanceConfig(kind="noise", amplitude=[0.1, 0.1], seed=3), t)
    n2 = disturbance_series(
        DisturbanceConfig(kind="noise", amplitude=[0.1, 0.1], seed=3), t)
    np.testing.assert_array_equal(n1, n2)
    assert np.abs(n1).max() <= 0.1


def test_chassis_config_dataclass_defaults():
    cfg = ChassisControlConfig()
    assert cfg.surface_gains == [4.0, 100.0, 18.0]
    assert cfg.reaching_gains == [15.0, 15.0]
    assert cfg.switch_gains == [0.2, 0.2] and cfg.f_bounds == [0.1, 0.1]
    assert (cfg.offset_l, cfg.boundary_layer) == (0.3, 0.0)
    assert cfg.track_width == 0.8


def test_every_leaf_field_declares_a_rule():
    """A new config key cannot land unchecked: every field of every config
    dataclass is a section, the fire list, or a leaf with a rule."""
    classes = [c for c in vars(config_mod).values()
               if isinstance(c, type) and dataclasses.is_dataclass(c)
               and c.__module__ == config_mod.__name__]
    assert ScenarioConfig in classes and len(classes) > 1
    unchecked = []
    for cls in classes:
        stock = cls()
        for f in dataclasses.fields(stock):
            default = getattr(stock, f.name)
            if dataclasses.is_dataclass(default) or f.name == "fires":
                continue
            if not callable(f.metadata.get("rule")):
                unchecked.append("%s.%s" % (cls.__name__, f.name))
    assert unchecked == []
