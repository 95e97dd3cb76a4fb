"""Package surface: the exported names."""
import mobman

# The public API; a name added to or dropped from __all__ is a deliberate
# change to this set.
PUBLIC = {
    "ArmDynamics", "ArmGains", "ChassisGains", "ChassisRefSample", "Circuit",
    "CircuitSpec", "DEFAULT_DH", "DHRow", "DHTable",
    "DisturbanceBoundViolation", "EmptyLog", "EndEffectorPose", "FireSpot",
    "FireTestSpec", "GeometryError", "IllegalTransition", "InfeasibleSweep",
    "JointLimitViolation", "LinkInertialParams", "MetricsReport",
    "MissionResult", "MissionState", "MobmanError", "ParseError",
    "ScenarioConfig", "SimLog", "SolveFailure", "SweepSpec", "ToolOffset",
    "TopSpraySpec", "Unreachable", "ValidationError", "assign_fires",
    "build_sweep", "compute_metrics", "default_inertial_params", "dispatch",
    "export", "forward_kinematics", "inverse_kinematics", "load_config",
    "mission_step", "parse_config", "plan_mission", "run_mission",
    "save_config", "tracking_error", "workspace_analysis",
}


def test_all_names_resolve_and_star_import():
    assert set(mobman.__all__) == PUBLIC
    assert [n for n in mobman.__all__ if not hasattr(mobman, n)] == []
    assert len(set(mobman.__all__)) == len(mobman.__all__)
    namespace = {}
    exec("from mobman import *", namespace)
    assert set(mobman.__all__) <= set(namespace)
