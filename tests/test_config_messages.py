"""Validation messages, pinned: a corpus of bad scenario inputs whose whole
message lists, order included, must equal the ones recorded in
config_messages.json.

After a deliberate message change, rewrite the record with

    PYTHONPATH=src python tests/test_config_messages.py

and review its diff: every changed row is a changed message.
"""
import json
import math
import pathlib

from mobman.config import parse_config
from mobman.errors import ValidationError

RECORD = pathlib.Path(__file__).with_name("config_messages.json")

SCALARS = [
    "dt", "integrator", "geometry.shoulder_height", "geometry.tool_y_offset",
    "inertial.total_mass", "inertial.payload_mass", "inertial.gravity",
    "arm_control.surface_rate",
    "arm_control.boundary_layer", "chassis_control.offset_l",
    "chassis_control.boundary_layer", "chassis_control.track_width",
    "circuit.edge_length", "circuit.corner_radius", "circuit.speed",
    "circuit.min_corner_radius", "sweep.passes", "sweep.horizontal_span",
    "sweep.vertical_span", "sweep.base_height", "sweep.speed",
    "sweep.pitch_deg", "fire_test.crib_side",
    "fire_test.discharge_time", "fire_test.stage2_budget",
    "top_spray.duration", "disturbance.kind", "disturbance.frequency",
    "disturbance.seed", "band.e1_mm", "band.e2_mm", "band.e3_deg",
]

# Each vector key with a valid value; one element at a time is spoiled.
VECTORS = {
    "geometry.link_lengths": [100.0, 1000.0, 1700.0, 100.0, 80.0],
    "inertial.masses": [50.0, 150.0, 150.0, 50.0],
    "inertial.com_offsets": [0.05, 0.5, 0.85, 0.09],
    "inertial.inertias": [5.0, 50.0, 120.0, 2.0],
    "arm_control.switch_gain": [5.0, 5.0, 5.0, 5.0],
    "chassis_control.surface_gains": [4.0, 100.0, 18.0],
    "chassis_control.reaching_gains": [15.0, 15.0],
    "chassis_control.switch_gains": [0.2, 0.2],
    "chassis_control.f_bounds": [0.1, 0.1],
    "circuit.center": [0.0, 0.0],
    "top_spray.joints_deg": [0.0, 135.0, 15.5, -45.0],
    "disturbance.amplitude": [0.0, 0.0],
    "initial_pose_offset": [0.0, 0.0, 0.0],
}

BAD_NUMBERS = [math.nan, math.inf, -math.inf, 10 ** 400, 0, -1.5, "x", True]
BAD_WHOLE = [math.nan, 0, "x", True, None, [1.0], {"a": 1}]


def _nest(key: str, value) -> dict:
    """{"a": {"b": value}} for the dotted key "a.b"."""
    data = value
    for part in reversed(key.split(".")):
        data = {part: data}
    return data


def _merge(*parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict) and isinstance(out.get(key), dict):
                out[key] = _merge(out[key], value)
            else:
                out[key] = value
    return out


def _cases() -> dict:
    """Case name -> input mapping handed to parse_config."""
    cases = {}
    for key in SCALARS:
        for bad in BAD_NUMBERS + [None, [1.0], 2.5]:
            cases["%s = %r" % (key, bad)] = _nest(key, bad)
    for key, good in VECTORS.items():
        for i in range(len(good)):
            for bad in BAD_NUMBERS:
                value = list(good)
                value[i] = bad
                cases["%s[%d] = %r" % (key, i, bad)] = _nest(key, value)
        for bad in BAD_WHOLE + [good[:-1], good + [1.0]]:
            cases["%s = %r" % (key, bad)] = _nest(key, bad)

    # Fire entries: their own keys and the list around them.
    for bad in (["x"], 7, "x", {"ident": "A"}, None):
        cases["fires = %r" % (bad,)] = {"fires": bad}
    for entry in ({"ident": ""}, {"ident": 5}, {"ident": None},
                  {"ident": ["A"]}, {"ident": "far\nfire"},
                  {"ident": "far\rfire"}, {"ident": "\t"},
                  {"position": [0.0, 0.0]},
                  {"position": [math.nan, 0.0, 0.0]},
                  {"position": [0.0, 10 ** 400, 0.0]}, {"position": "x"},
                  {"position": [0.1, "y", True]}, {"bogus": 1},
                  {"ident": "", "position": [1.0]}):
        cases["fires = [%r]" % entry] = {"fires": [entry]}
        cases["fires = [{}, %r]" % entry] = {"fires": [{}, entry]}

    # The cross-field rules, alone and next to the fields around them.
    cross = {
        "corner below minimum": {"circuit": {"corner_radius": 0.1}},
        "corner equal to minimum": {"circuit": {"corner_radius": 0.2}},
        "corner with bad minimum": {"circuit": {"corner_radius": 0.1,
                                                "min_corner_radius": "x"}},
        "corner with raised minimum": {"circuit": {"min_corner_radius": 0.6}},
        "amplitude over bounds": {"disturbance": {
            "kind": "constant", "amplitude": [0.2, 0.3]}},
        "amplitude at bounds": {"disturbance": {
            "kind": "sine", "amplitude": [0.1, 0.1]}},
        "amplitude over bounds, kind none": {"disturbance": {
            "amplitude": [0.2, 0.3]}},
        "amplitude over bounds, bad kind": {"disturbance": {
            "kind": "gust", "amplitude": [0.2, 0.0]}},
        "amplitude over lowered bound": {
            "disturbance": {"kind": "noise", "amplitude": [0.05, 0.05]},
            "chassis_control": {"f_bounds": [0.01, 0.1]}},
        "amplitude with a bad bound": {
            "disturbance": {"kind": "noise", "amplitude": [0.2, 0.2]},
            "chassis_control": {"f_bounds": [math.nan, 0.1]}},
        "amplitude with short bounds": {
            "disturbance": {"kind": "noise", "amplitude": [0.2, 0.2]},
            "chassis_control": {"f_bounds": [0.1]}},
        "boom and forearm zero": {"geometry": {
            "link_lengths": [0, 0, 0, 0, 0]}},
        "boom zero, forearm negative": {"geometry": {
            "link_lengths": [-1, 0, -1, 0, 0]}},
    }
    cases.update(cross)

    # Many problems at once pin the order across keys and rules.
    everything = [_nest(key, "x") for key in SCALARS + list(VECTORS)]
    cases["every key a string"] = _merge(*everything)
    cases["every vector short, every scalar negative"] = _merge(
        *[_nest(key, -1.0) for key in SCALARS],
        *[_nest(key, good[:-1]) for key, good in VECTORS.items()])
    cases["cross rules among field problems"] = _merge(
        {"dt": 0},
        {"geometry": {"link_lengths": [100, 0, 0, 100, 80],
                      "shoulder_height": [1.0], "tool_y_offset": "x"}},
        {"circuit": {"corner_radius": 0.1, "center": [0.0]}},
        {"sweep": {"passes": 0}},
        {"disturbance": {"kind": "constant", "amplitude": [0.5, 0.0],
                         "frequency": 0, "seed": "s"}},
        {"band": {"e1_mm": 0}}, {"initial_pose_offset": [0.0]},
        {"fires": [{"ident": "", "position": [0.0]}, {"ident": 3}]},
        {"fire_test": {"crib_side": 0}})

    # Structure: unknown keys, sections that are not mappings, the top level.
    for name, data in (("unknown top-level key", {"chasis_control": {}}),
                       ("unknown section key", {"circuit": {"spead": 1.0}}),
                       ("section not a mapping", {"circuit": 7}),
                       ("section a list", {"band": [1, 2]}),
                       ("top level a list", [1, 2]),
                       ("top level a string", "dt: 1")):
        cases[name] = data
    return cases


def _messages(data) -> list:
    try:
        parse_config(data)
    except ValidationError as exc:
        return list(exc.messages)
    return []


def test_message_corpus():
    got = {name: _messages(data) for name, data in _cases().items()}
    want = json.loads(RECORD.read_text())
    changed = sorted(k for k in got.keys() | want.keys()
                     if got.get(k) != want.get(k))
    assert {k: got.get(k) for k in changed} == {k: want.get(k) for k in changed}


if __name__ == "__main__":
    record = {name: _messages(data) for name, data in _cases().items()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(record), RECORD))
