"""Package surface: the exported names, the module layering, and where
the stock figures are stated."""
import ast
import collections
import inspect
import pathlib
import re
import sys

import pytest

import mobman
from mobman import dynamics, kinematics, mission

# The public API; a name added to or dropped from __all__ is a deliberate
# change to this set.
PUBLIC = {
    "ArmDynamics", "ArmGeometry", "Circuit", "DisturbanceBoundViolation",
    "EmptyLog", "EndEffectorPose", "GeometryError", "InfeasibleSweep",
    "JointLimitViolation", "LinkInertialParams", "MetricsReport",
    "MissionResult", "MobmanError", "ParseError", "ScenarioConfig", "SimLog",
    "SolveFailure", "Unreachable", "ValidationError", "assign_fires",
    "build_sweep", "compute_metrics", "dispatch", "export",
    "forward_kinematics", "inertial_params", "inverse_kinematics",
    "load_config", "parse_config", "plan_mission", "run_mission",
    "save_config", "workspace_analysis",
}


def test_all_names_resolve_and_star_import():
    assert set(mobman.__all__) == PUBLIC
    assert [n for n in mobman.__all__ if not hasattr(mobman, n)] == []
    assert len(set(mobman.__all__)) == len(mobman.__all__)
    namespace = {}
    exec("from mobman import *", namespace)
    assert set(mobman.__all__) <= set(namespace)


# The engine modules read config sections by attribute; importing the
# config, the planner, the harness or the front end from one of them (even
# for a type hint) would close an import cycle.
ENGINE = ("util", "errors", "kinematics", "dynamics", "arm_control",
          "chassis_control", "mission", "metrics")
ABOVE_ENGINE = {"mobman.config", "mobman.planning", "mobman.simulate",
                "mobman.cli"}


def _imported_modules(name: str) -> set:
    """Absolute names of the modules a mobman module imports."""
    path = pathlib.Path(mobman.__file__).with_name(name + ".py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("mobman." if node.level else "") + (node.module or "")
            found.add(base.rstrip("."))
            found.update("%s.%s" % (base.rstrip("."), alias.name)
                         for alias in node.names)
    return found


def test_engine_modules_do_not_import_config_simulate_or_cli():
    leaks = {name: sorted(_imported_modules(name) & ABOVE_ENGINE)
             for name in ENGINE}
    assert {k: v for k, v in leaks.items() if v} == {}


def test_the_chassis_and_the_arm_modules_do_not_import_each_other():
    """The chassis and the arm are designed apart and run in passes of their
    own: chassis_control imports none of the arm's modules, nor they it."""
    arm = ("dynamics", "arm_control", "kinematics")
    assert _imported_modules("chassis_control") & {
        "mobman." + name for name in arm} == set()
    assert [name for name in arm
            if "mobman.chassis_control" in _imported_modules(name)] == []


def test_every_text_open_names_its_encoding():
    """Files are UTF-8 whatever the locale: each open() in the package
    passes encoding= or opens in binary mode."""
    unnamed = []
    for path in sorted(pathlib.Path(mobman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and "encoding" not in {k.arg for k in node.keywords}:
                unnamed.append("%s:%d" % (path.name, node.lineno))
    assert unnamed == []


# Third-party modules whose distribution has another name.
DISTRIBUTION = {"yaml": "PyYAML"}


def _third_party_imports(directory: pathlib.Path) -> set:
    """Top-level names of the modules the .py files under directory import,
    less the standard library, mobman and the directory's own modules."""
    imported = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in directory.glob("*.py")}
    return imported - set(sys.stdlib_module_names) - {"mobman"} - local


def test_every_third_party_import_is_a_declared_dependency():
    """The package imports only its dependencies, and the tests only those
    and the test extra."""
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(mobman.__file__).parents[2]
    project = tomllib.loads(
        root.joinpath("pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower()
                for req in requirements}

    runtime = names(project["dependencies"])
    testing = runtime | names(project["optional-dependencies"]["test"])
    for directory, declared, expected in (
            (root / "src" / "mobman", runtime, {"numpy", "yaml", "orjson"}),
            (root / "tests", testing,
             {"numpy", "yaml", "pytest", "hypothesis"})):
        third_party = _third_party_imports(directory)
        assert expected <= third_party, directory
        assert sorted(m for m in third_party
                      if DISTRIBUTION.get(m, m).lower() not in declared) == []


def test_every_public_name_has_its_own_docstring():
    """README defers to the docstrings for each name's contract: every name
    in __all__ has a docstring of its own, not the signature a dataclass
    generates when it has none."""
    bare = []
    for name in mobman.__all__:
        obj = getattr(mobman, name)
        doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
        if not (doc or "").strip() or doc.startswith(name + "("):
            bare.append(name)
    assert bare == []


def test_engine_states_no_stock_figure():
    """The stock arm and its mass budget are stated once, in ScenarioConfig:
    the engine has no stock geometry or gravity of its own, and every call
    that takes the arm, its parameters or the budget is handed them."""
    with pytest.raises(TypeError):
        kinematics.ArmGeometry()
    assert not hasattr(kinematics, "STOCK_ARM")
    assert not hasattr(dynamics, "GRAVITY")
    takes = {"geometry", "params", "total_mass", "payload_mass", "gravity"}
    calls = (kinematics.forward_kinematics, kinematics.inverse_kinematics,
             kinematics.scan_pitch, kinematics.point_reachable,
             kinematics.workspace_analysis, mission.dispatch,
             dynamics.inertial_params, dynamics.ArmDynamics,
             dynamics.LinkInertialParams)
    signatures = {call.__name__: inspect.signature(call).parameters
                  for call in calls}
    assert all(takes & set(params) for params in signatures.values())
    assert [(name, p.name) for name, params in signatures.items()
            for p in params.values()
            if p.name in takes and p.default is not p.empty] == []



_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(node, into_defs: bool) -> set:
    """Names node references, as a name or as an attribute; into_defs=False
    leaves out the bodies of the functions defined in it."""
    found, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack += [c for c in ast.iter_child_nodes(n)
                  if into_defs or not isinstance(c, _DEFS)]
    return found


def test_every_function_is_reached_from_the_package():
    """No helper that only tests call: every function and method defined in
    the package is exported in __all__, is a dunder, or is referenced (by
    name or as an attribute) in module-level code or in a function reached
    so, never only from its own body or from code nothing reaches."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in
             sorted(pathlib.Path(mobman.__file__).parent.glob("*.py"))]
    defs = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                defs[node.name].append(node)
    live = set(mobman.__all__).union(
        *(_referenced(tree, into_defs=False) for tree in trees),
        (name for name in defs if name.startswith("__")
         and name.endswith("__")))
    frontier = list(live)
    while frontier:
        for node in defs.get(frontier.pop(), ()):
            new = _referenced(node, into_defs=True) - live
            live |= new
            frontier += new
    assert sorted(set(defs) - live) == []
