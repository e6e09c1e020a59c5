"""The override control loop: plan when the sequence is empty or denied,
verify each pair against live perception, constrain, and emit.

Every tick while the override is active emits exactly one action, and each
emission is one of: the resolved head of a verified pair, a waiting stop
under a stop-observe-move episode, or the fail-safe stop. The per-tick
record written to the decision log is the audit surface for that claim.

While waiting, stop pairs execute under either consistent condition; only
inconsistency denies them. After the planned wait expires, a live
condition equal to the move trigger starts a new planning round,
otherwise waiting continues up to the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from . import controlmap, planner, safety, verifier
from .backend import Backend
from .domain import (
    Action,
    ActionSequence,
    ConditionActionPair,
    Daylight,
    EnvironmentSnapshot,
    ExecutionCondition,
    FAIL_SAFE_STOP,
    RoadGeometry,
    STOP_PAIR,
    SafetyConstraints,
    Strategy,
    TrafficDensity,
    VehicleMeasurements,
    Weather,
)
from .planner import PlannerConfig
from .safety import SafetyGains
from .verifier import VerifierConfig

LOG_SCHEMA_VERSION = 1

_Context = tuple[Weather, Daylight, TrafficDensity, RoadGeometry]


@dataclass(frozen=True)
class OrchestratorConfig:
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    gains: SafetyGains = field(default_factory=SafetyGains)
    dt: float = 0.1
    scenario_key: str = ""


@dataclass(frozen=True)
class OverrideState:
    """Per-episode override lifecycle: the pending sequence, wait bookkeeping,
    cached constraints, the steering controller's last heading error, and the
    consistency run of the last classified window."""

    sequence: ActionSequence = field(default_factory=lambda: ActionSequence((), 0))
    consecutive_replans: int = 0
    active: bool = False
    prev_action: Action = field(default_factory=lambda: Action(0.0, 0.0, 0.0))
    wait_trigger: Optional[ExecutionCondition] = None
    wait_elapsed: int = 0
    steer_ctrl: float = 0.0
    constraints: Optional[SafetyConstraints] = None
    constraints_context: Optional[_Context] = None
    # Derived from the window and matched against the next one by value.
    consistency: Optional[verifier.ConsistencyRun] = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class StepResult:
    action: Action
    state: OverrideState
    record: dict[str, Any]


def initial_state() -> OverrideState:
    return OverrideState()


def engage(deficit_present: bool, state: OverrideState) -> OverrideState:
    """Seize actuation when a deficit appears; release (and drop the plan and
    the consistency run) when perception recovers."""
    if deficit_present == state.active:
        return state
    return replace(
        state,
        active=deficit_present,
        sequence=ActionSequence((), 0),
        consecutive_replans=0,
        wait_trigger=None,
        wait_elapsed=0,
        consistency=None,
    )


def note_external_action(state: OverrideState, action: Action) -> OverrideState:
    """Record an action emitted outside the override (the base agent), so the
    previous-throttle speed mappings start from reality on engagement."""
    return replace(state, prev_action=action)


def _padded_history(
    history: Sequence[EnvironmentSnapshot], k: int
) -> list[EnvironmentSnapshot]:
    # Early ticks have fewer frames than the inference window; repeat the
    # oldest so the backend always sees k frames.
    window = list(history[-k:])
    while len(window) < k:
        window.insert(0, window[0])
    return window


def _plan(
    env: EnvironmentSnapshot,
    history: Sequence[EnvironmentSnapshot],
    backend: Backend,
    cfg: OrchestratorConfig,
) -> tuple[ActionSequence, Optional[ExecutionCondition]]:
    """One planning round: the new sequence, plus the move trigger when the
    plan is a stop-observe-move wait (None for a move plan)."""
    window = _padded_history(history, cfg.planner.history_len)
    hazards, strategy = planner.infer_hazards(window, backend, cfg.planner, cfg.scenario_key)
    plan = planner.plan_motion(
        hazards, strategy, env.navi, env, backend, cfg.planner, cfg.scenario_key
    )
    if plan.strategy is Strategy.MOVE:
        return plan.sequence, None
    seq = planner.expand_stop_observe_move(plan, cfg.planner.wait_cap, env.tick)
    return seq, plan.move_trigger


def step(
    state: OverrideState,
    env: EnvironmentSnapshot,
    history: Sequence[EnvironmentSnapshot],
    measurements: VehicleMeasurements,
    ego_pose: tuple[float, float, float],
    backend: Backend,
    cfg: OrchestratorConfig,
) -> StepResult:
    """Advance the override by one tick; always emits an action.

    One loop moves between three phases until it picks the emission:
    waiting (a move trigger is set), moving (a planned sequence is pending)
    and idle (nothing is pending, so plan). It ends on a pair to execute, or
    on the fail-safe stop: under an inconsistent window, or once replans or
    planning rounds run out. The next state and the record are built once,
    after the loop.
    """
    if not state.active:
        raise ValueError("step() requires an engaged override; call engage() first")

    condition, ratio, consistency = verifier.classify_carried(
        history, cfg.verifier, state.consistency
    )
    context: _Context = (
        env.surrounding.weather,
        env.surrounding.daylight,
        env.surrounding.traffic_density,
        env.navi.road_geometry,
    )
    constraints = state.constraints
    sc_refreshed = constraints is None or state.constraints_context != context
    if sc_refreshed:
        constraints = safety.generate_constraints(
            env.navi,
            env.surrounding,
            env.surrounding.nearest_obstacle_m,
            backend,
            scenario_key=cfg.scenario_key,
        )

    sequence, trigger, elapsed = state.sequence, state.wait_trigger, state.wait_elapsed
    replans, rounds = state.consecutive_replans, 0
    denied: list[str] = []
    pair: Optional[ConditionActionPair] = None  # None emits the fail-safe stop
    source = "failsafe"
    hold_plan = False  # the fail-safe stop keeps this tick's new plan
    while True:
        waiting = trigger is not None
        if condition is None and (waiting or len(sequence) > 0):
            # Under an inconsistent window no condition can match this tick, so
            # replan once for the coming ticks and hold the fail-safe stop now.
            # The replan counter persists across ticks until a pair executes.
            denied.append("wait_inconsistent" if waiting else sequence.pairs[0].condition.value)
            replans += 1
            if replans <= cfg.planner.replan_budget:
                sequence, trigger = _plan(env, history, backend, cfg)
                elapsed, rounds, hold_plan = 0, rounds + 1, True
            break
        # The stop pairs of a wait execute under either consistent
        # condition; a planned pair only under its own.
        if len(sequence) > 0 and (waiting or condition is sequence.pairs[0].condition):
            pair, sequence = sequence.pop_front()
            source = "pair"
            break
        if waiting:
            if not (condition is trigger or elapsed >= cfg.planner.wait_cap):
                pair, source = STOP_PAIR, "stop_wait"
                break
            trigger, elapsed = None, 0
        elif len(sequence) > 0:
            # A denied pair discards the whole plan; the new round replaces it.
            denied.append(sequence.pairs[0].condition.value)
            replans += 1
            if replans > cfg.planner.replan_budget:
                break
        if rounds > cfg.planner.replan_budget:  # at most budget + 1 rounds a tick
            break
        sequence, trigger = _plan(env, history, backend, cfg)
        elapsed, rounds = 0, rounds + 1

    if pair is None:
        action, heading_error, mismatch, triggered = FAIL_SAFE_STOP, state.steer_ctrl, False, ()
        if not hold_plan:
            sequence, trigger, elapsed, replans = ActionSequence((), env.tick), None, 0, 0
    else:
        resolved, heading_error, mismatch = controlmap.resolve_action(
            pair.action, state.prev_action, ego_pose, env.navi, state.steer_ctrl, cfg.dt
        )
        action, triggered = safety.constrain(resolved, measurements, constraints, cfg.gains)
        replans = 0
        if trigger is not None:
            elapsed += 1

    new_state = OverrideState(
        sequence=sequence,
        consecutive_replans=replans,
        active=True,
        prev_action=action,
        wait_trigger=trigger,
        wait_elapsed=elapsed,
        steer_ctrl=heading_error,
        constraints=constraints,
        constraints_context=context,
        consistency=consistency,
    )
    record = {
        **base_record(env.tick, action),
        "active": True,
        "classification": "replan" if condition is None else condition.value,
        "hazard_ratio": ratio,
        "verdict": "deny" if pair is None else "execute",
        "source": source,
        "triggered_constraints": list(triggered),
        "planning_events": rounds,
        "backend_calls": int(sc_refreshed) + 2 * rounds,
        "sc_refreshed": sc_refreshed,
        "denied": denied,
        "direction_mismatch": mismatch,
        "sequence_len": len(sequence),
        "wait_elapsed": elapsed,
    }
    return StepResult(action, new_state, record)


def base_record(env_tick: int, action: Action) -> dict[str, Any]:
    """Decision-log record for a tick driven by the base agent; ``step``
    writes the fields of an active tick over it."""
    return {
        "schema": LOG_SCHEMA_VERSION,
        "tick": env_tick,
        "active": False,
        "classification": None,
        "hazard_ratio": None,
        "verdict": None,
        "source": "base",
        "action": action.to_json(),
        "triggered_constraints": [],
        "planning_events": 0,
        "backend_calls": 0,
        "sc_refreshed": False,
        "denied": [],
        "direction_mismatch": False,
        "sequence_len": 0,
        "wait_elapsed": 0,
    }
