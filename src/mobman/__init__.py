"""Simulation engine for a fire-suppression mobile manipulator: arm and
chassis models, sliding-mode tracking controllers, coverage mission planner
and a deterministic fixed-step simulation harness."""

from .errors import (DisturbanceBoundViolation, EmptyLog, GeometryError,
                     InfeasibleSweep, JointLimitViolation, MobmanError,
                     ParseError, SolveFailure, Unreachable, ValidationError)
from .kinematics import (ArmGeometry, EndEffectorPose, forward_kinematics,
                         inverse_kinematics, workspace_analysis)
from .dynamics import ArmDynamics, LinkInertialParams, default_inertial_params
from .mission import Circuit, assign_fires, build_sweep, dispatch
from .config import ScenarioConfig, load_config, parse_config, save_config
from .simulate import MissionResult, SimLog, export, plan_mission, run_mission
from .metrics import MetricsReport, compute_metrics

__version__ = "0.1.0"

__all__ = [
    "ArmDynamics", "ArmGeometry", "Circuit", "DisturbanceBoundViolation",
    "EmptyLog", "EndEffectorPose", "GeometryError", "InfeasibleSweep",
    "JointLimitViolation", "LinkInertialParams", "MetricsReport",
    "MissionResult", "MobmanError", "ParseError", "ScenarioConfig", "SimLog",
    "SolveFailure", "Unreachable", "ValidationError", "assign_fires",
    "build_sweep", "compute_metrics", "default_inertial_params", "dispatch",
    "export", "forward_kinematics", "inverse_kinematics", "load_config",
    "parse_config", "plan_mission", "run_mission", "save_config",
    "workspace_analysis",
]
