"""Risk-averse control override for driving agents under perception deficits."""

from .backend import HttpBackend, ScriptedBackend
from .domain import (
    Action,
    ActionSequence,
    Behavior,
    ConditionActionPair,
    EnvironmentSnapshot,
    ExecutionCondition,
    Hazard,
    HighLevelAction,
    MotionPlan,
    SafetyConstraints,
    SpeedControl,
    Strategy,
    VehicleMeasurements,
)
from .metrics import EpisodeResult, Summary
from .orchestrator import OrchestratorConfig, OverrideState, engage, step
from .planner import PlannerConfig
from .runner import Mode, Overrides, run_episode
from .safety import SafetyGains, apply_constraints, generate_constraints
from .simenv import Scenario, VehicleParams
from .verifier import VerifierConfig, classify_condition

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionSequence",
    "Behavior",
    "ConditionActionPair",
    "EnvironmentSnapshot",
    "EpisodeResult",
    "ExecutionCondition",
    "Hazard",
    "HighLevelAction",
    "HttpBackend",
    "Mode",
    "MotionPlan",
    "OrchestratorConfig",
    "Overrides",
    "OverrideState",
    "PlannerConfig",
    "SafetyConstraints",
    "SafetyGains",
    "Scenario",
    "ScriptedBackend",
    "SpeedControl",
    "Strategy",
    "Summary",
    "VehicleMeasurements",
    "VehicleParams",
    "VerifierConfig",
    "apply_constraints",
    "classify_condition",
    "engage",
    "generate_constraints",
    "run_episode",
    "step",
]
