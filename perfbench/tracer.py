"""In-place call tracer for the benchmark's traced run.

``Tracer.installed(targets)`` replaces each named mobman function with a
timing wrapper everywhere the package binds it (the defining module, the
``from .x import y`` copies in other modules and the package namespace) and
on the owning class for methods, then puts every original back on exit.

Per function it aggregates calls, failures (calls that raised), self time
and each call's inclusive duration.  Self time is a span's duration minus
the durations of the wrapped spans it directly contains, so the self times
of nested calls add up to the outermost span without double counting.
A target whose module, class or attribute no longer exists is listed in
``Tracer.absent`` rather than raising, so the benchmark keeps running after
a function is fused away or renamed.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass, field

_MARK = "_perfbench_traced"


@dataclass(frozen=True)
class Target:
    """One function to wrap: metric prefix, defining module, and attribute
    path inside it (``func`` or ``Class.method``)."""

    name: str
    module: str
    attr: str
    measure_bytes: object = None   # (args, result) -> bytes moved by the call


def _export_bytes(args, result) -> int:
    return sum(os.path.getsize(p) for p in result)


def _read_bytes(args, result) -> int:
    return os.path.getsize(args[-1])


# Layers are the mobman modules; each entry is a public function the run
# passes through.  Methods are patched on their class.
TARGETS = [
    Target("dynamics.forward_dynamics", "mobman.dynamics",
           "ArmDynamics.forward_dynamics"),
    Target("dynamics.mass_matrix", "mobman.dynamics", "ArmDynamics.mass_matrix"),
    Target("dynamics.coriolis_matrix", "mobman.dynamics",
           "ArmDynamics.coriolis_matrix"),
    Target("dynamics.gravity_vector", "mobman.dynamics",
           "ArmDynamics.gravity_vector"),
    Target("arm_control.control_law", "mobman.arm_control", "control_law"),
    Target("arm_control.target_in_base_frame", "mobman.arm_control",
           "target_in_base_frame"),
    Target("chassis_control.tracking_error", "mobman.chassis_control",
           "tracking_error"),
    Target("chassis_control.error_rates", "mobman.chassis_control",
           "error_rates"),
    Target("chassis_control.sliding_surface", "mobman.chassis_control",
           "sliding_surface"),
    Target("chassis_control.control_law", "mobman.chassis_control",
           "control_law"),
    Target("chassis_control.plant_step", "mobman.chassis_control", "plant_step"),
    Target("kinematics.forward_kinematics", "mobman.kinematics",
           "forward_kinematics"),
    Target("kinematics.inverse_kinematics", "mobman.kinematics",
           "inverse_kinematics"),
    Target("mission.sample", "mobman.mission", "Circuit.sample"),
    Target("mission.assign_fires", "mobman.mission", "assign_fires"),
    Target("mission.dispatch", "mobman.mission", "dispatch"),
    Target("mission.mission_step", "mobman.mission", "mission_step"),
    Target("simulate.plan_mission", "mobman.simulate", "plan_mission"),
    Target("simulate.run_mission", "mobman.simulate", "run_mission"),
    Target("simulate.export", "mobman.simulate", "export", _export_bytes),
    Target("simulate.to_csv", "mobman.simulate", "SimLog.to_csv"),
    Target("simulate.from_csv", "mobman.simulate", "SimLog.from_csv",
           _read_bytes),
    Target("metrics.compute_metrics", "mobman.metrics", "compute_metrics"),
    Target("config.parse_config", "mobman.config", "parse_config"),
    Target("config.disturbance_series", "mobman.config", "disturbance_series"),
]


@dataclass
class FunctionStats:
    calls: int = 0
    failures: int = 0
    self_s: float = 0.0
    bytes: int = 0
    durations: array = field(default_factory=lambda: array("d"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, FunctionStats] = {}
        self.absent: list[str] = []
        self._child_time = [0.0]   # one accumulator per open span, plus a root
        self._originals: list = []  # (owner, attribute, original value)

    def wrap(self, name, fn, measure_bytes=None):
        """Return fn wrapped so that each call is recorded under name."""
        stats = self.stats.setdefault(name, FunctionStats())
        clock, child_time = self.clock, self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failures += 1
                raise
            finally:
                duration = clock() - start
                children = child_time.pop()
                child_time[-1] += duration
                stats.calls += 1
                stats.self_s += duration - children
                stats.durations.append(duration)
            if measure_bytes is not None:
                stats.bytes += measure_bytes(args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block."""
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            while self._originals:
                owner, attribute, original = self._originals.pop()
                setattr(owner, attribute, original)

    def _install(self, target: Target) -> None:
        self.stats.setdefault(target.name, FunctionStats())
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.absent.append(target.name)
            return
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(method) if isinstance(owner, type) else None
            if raw is None:
                self.absent.append(target.name)
                return
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(target.name, raw.__func__,
                                              target.measure_bytes))
            else:
                patched = self.wrap(target.name, raw, target.measure_bytes)
            self._originals.append((owner, method, raw))
            setattr(owner, method, patched)
            return
        original = getattr(module, target.attr, None)
        if not callable(original):
            self.absent.append(target.name)
            return
        patched = self.wrap(target.name, original, target.measure_bytes)
        for loaded in _package_modules(target.module.split(".")[0]):
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._originals.append((loaded, attribute, original))
                    setattr(loaded, attribute, patched)


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package
                                  or name.startswith(package + "."))]


def patched_bindings(package: str = "mobman") -> list:
    """Names in the package that still hold a tracer wrapper."""
    found = []
    for module in _package_modules(package):
        for attribute, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append("%s.%s" % (module.__name__, attribute))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for method, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, _MARK, False):
                        found.append("%s.%s.%s" % (module.__name__,
                                                   attribute, method))
    return found
