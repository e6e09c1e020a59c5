"""The override control loop: plan when the sequence is empty or denied,
verify each pair against live perception, constrain, and emit.

Every tick while the override is active emits exactly one action, and each
emission is one of: the resolved head of a verified pair, a waiting stop
under a stop-observe-move episode, or the fail-safe stop. The per-tick
record written to the decision log is the audit surface for that claim.

While waiting, stop pairs execute under either consistent classification;
only inconsistency denies them. After the planned wait expires, a live
classification equal to the move trigger starts a new planning round,
otherwise waiting continues up to the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from . import controlmap, planner, safety, verifier
from .backend import Backend
from .controlmap import SteerControllerState
from .domain import (
    Action,
    ActionSequence,
    ConditionActionPair,
    Daylight,
    EnvironmentSnapshot,
    ExecutionCondition,
    FAIL_SAFE_STOP,
    RoadGeometry,
    STOP_ACTION,
    SafetyConstraints,
    Strategy,
    TrafficDensity,
    VehicleMeasurements,
    Weather,
)
from .planner import PlannerConfig
from .safety import SafetyGains
from .verifier import Classification, VerifierConfig

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
    cached constraints, and the threaded steering controller."""

    sequence: ActionSequence = field(default_factory=lambda: ActionSequence((), 0))
    consecutive_replans: int = 0
    active: bool = False
    prev_action: Action = field(default_factory=lambda: Action(0.0, 0.0, 0.0))
    wait_trigger: Optional[ExecutionCondition] = None
    wait_elapsed: int = 0
    steer_ctrl: SteerControllerState = field(default_factory=SteerControllerState)
    constraints: Optional[SafetyConstraints] = None
    constraints_context: Optional[_Context] = None


@dataclass(frozen=True)
class StepResult:
    action: Action
    state: OverrideState
    record: dict[str, Any]


def initial_state() -> OverrideState:
    return OverrideState()


def engage(deficit_present: bool, state: OverrideState) -> OverrideState:
    """Seize actuation when a deficit appears; release (and drop the plan)
    when perception recovers."""
    if deficit_present and not state.active:
        return replace(
            state,
            active=True,
            sequence=ActionSequence((), 0),
            consecutive_replans=0,
            wait_trigger=None,
            wait_elapsed=0,
        )
    if not deficit_present and state.active:
        return replace(
            state,
            active=False,
            sequence=ActionSequence((), 0),
            consecutive_replans=0,
            wait_trigger=None,
            wait_elapsed=0,
        )
    return state


def note_external_action(state: OverrideState, action: Action) -> OverrideState:
    """Record an action emitted outside the override (the base agent), so the
    previous-throttle speed mappings start from reality on engagement."""
    return replace(state, prev_action=action)


def _classify(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> tuple[Classification, float]:
    """Classification plus the proximity ratio. A single frame has no
    transitions to compare, so it is vacuously consistent and classified by
    ratio alone."""
    ratio = verifier.hazard_proximity_ratio(history[-1], cfg.front_view_only)
    if len(history) < 2:
        if ratio > cfg.hazard_ratio_threshold:
            return Classification.CONSISTENT_IMMEDIATE_HAZARD, ratio
        return Classification.CONSISTENT_NO_IMMEDIATE_HAZARD, ratio
    return verifier.classify_condition(history, cfg), ratio


def _padded_history(
    history: Sequence[EnvironmentSnapshot], k: int
) -> list[EnvironmentSnapshot]:
    # Early ticks have fewer frames than the inference window; repeat the
    # oldest so the backend always sees k frames.
    window = list(history[-k:])
    while len(window) < k:
        window.insert(0, window[0])
    return window


def step(
    state: OverrideState,
    env: EnvironmentSnapshot,
    history: Sequence[EnvironmentSnapshot],
    measurements: VehicleMeasurements,
    ego_pose: tuple[float, float, float],
    backend: Backend,
    cfg: OrchestratorConfig,
) -> StepResult:
    """Advance the override by one tick; always emits an action."""
    if not state.active:
        raise ValueError("step() requires an engaged override; call engage() first")

    classification, ratio = _classify(history, cfg.verifier)
    context: _Context = (
        env.surrounding.weather,
        env.surrounding.daylight,
        env.surrounding.traffic_density,
        env.navi.road_geometry,
    )

    backend_calls = 0
    planning_events = 0
    sc_refreshed = False
    denied: list[str] = []

    constraints = state.constraints
    if constraints is None or state.constraints_context != context:
        constraints = safety.generate_constraints(
            env.navi,
            env.surrounding,
            env.surrounding.nearest_obstacle_m,
            backend,
            scenario_key=cfg.scenario_key,
        )
        backend_calls += 1
        sc_refreshed = True
    state = replace(state, constraints=constraints, constraints_context=context)

    def plan(st: OverrideState) -> OverrideState:
        nonlocal backend_calls, planning_events
        planning_events += 1
        backend_calls += 2
        window = _padded_history(history, cfg.planner.history_len)
        hazards, strategy = planner.infer_hazards(
            window, backend, cfg.planner, cfg.scenario_key
        )
        plan_ = planner.plan_motion(
            hazards, strategy, env.navi, env, backend, cfg.planner, cfg.scenario_key
        )
        if plan_.strategy is Strategy.MOVE:
            return replace(st, sequence=plan_.sequence, wait_trigger=None, wait_elapsed=0)
        seq = planner.expand_stop_observe_move(plan_, cfg.planner.wait_cap, env.tick)
        return replace(st, sequence=seq, wait_trigger=plan_.move_trigger, wait_elapsed=0)

    def emit_pair(st: OverrideState, pair, source: str, pop: bool) -> StepResult:
        seq = st.sequence
        if pop:
            _, seq = st.sequence.pop_front()
        resolved, ctrl, mismatch = controlmap.resolve_action(
            pair.action, st.prev_action, ego_pose, env.navi, st.steer_ctrl, cfg.dt
        )
        final = safety.apply_constraints(resolved, measurements, constraints, cfg.gains)
        new_state = replace(
            st,
            sequence=seq,
            consecutive_replans=0,
            prev_action=final,
            steer_ctrl=ctrl,
            wait_elapsed=st.wait_elapsed + (1 if st.wait_trigger is not None else 0),
        )
        record = _record(
            env, classification, ratio, "execute", source, final, new_state,
            planning_events, backend_calls, sc_refreshed, denied, mismatch,
            safety.triggered_constraints(measurements, constraints),
        )
        return StepResult(final, new_state, record)

    def emit_failsafe(st: OverrideState, reset_replans: bool = True) -> StepResult:
        new_state = replace(
            st,
            consecutive_replans=0 if reset_replans else st.consecutive_replans,
            prev_action=FAIL_SAFE_STOP,
        )
        if reset_replans:
            new_state = replace(
                new_state, sequence=ActionSequence((), env.tick), wait_trigger=None, wait_elapsed=0
            )
        record = _record(
            env, classification, ratio, "deny", "failsafe", FAIL_SAFE_STOP, new_state,
            planning_events, backend_calls, sc_refreshed, denied, False, (),
        )
        return StepResult(FAIL_SAFE_STOP, new_state, record)

    # Nominal stop pair, emitted when waiting continues past the expanded wait.
    stop_pair = ConditionActionPair(
        ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, STOP_ACTION
    )

    def deny_inconsistent(st: OverrideState, label: str) -> StepResult:
        # Under an inconsistent window no condition can match this tick, so
        # replan once for the coming ticks and hold the fail-safe stop now.
        # The replan counter persists across ticks until a pair executes.
        denied.append(label)
        st = replace(
            st,
            consecutive_replans=st.consecutive_replans + 1,
            sequence=ActionSequence((), env.tick),
            wait_trigger=None,
            wait_elapsed=0,
        )
        if st.consecutive_replans > cfg.planner.replan_budget:
            return emit_failsafe(st)
        st = plan(st)
        return emit_failsafe(st, reset_replans=False)

    max_rounds = cfg.planner.replan_budget + 1
    while True:
        waiting = state.wait_trigger is not None
        if waiting:
            if classification is Classification.REPLAN:
                return deny_inconsistent(state, "wait_inconsistent")
            if len(state.sequence) > 0:
                return emit_pair(state, state.sequence.pairs[0], "pair", pop=True)
            trigger_met = verifier.classification_matches(classification, state.wait_trigger)
            if trigger_met or state.wait_elapsed >= cfg.planner.wait_cap:
                state = replace(state, wait_trigger=None, wait_elapsed=0)
                if planning_events >= max_rounds:
                    return emit_failsafe(state)
                state = plan(state)
                continue
            return emit_pair(state, stop_pair, "stop_wait", pop=False)

        if len(state.sequence) == 0:
            if planning_events >= max_rounds:
                return emit_failsafe(state)
            state = plan(state)
            continue

        head = state.sequence.pairs[0]
        if classification is Classification.REPLAN:
            return deny_inconsistent(state, head.condition.value)
        if verifier.classification_matches(classification, head.condition):
            return emit_pair(state, head, "pair", pop=True)

        denied.append(head.condition.value)
        state = replace(state, consecutive_replans=state.consecutive_replans + 1)
        if state.consecutive_replans > cfg.planner.replan_budget:
            return emit_failsafe(state)
        # A denied pair discards the whole plan; the new round replaces it.
        state = replace(state, sequence=ActionSequence((), env.tick))
        if planning_events >= max_rounds:
            return emit_failsafe(state)
        state = plan(state)


def _record(
    env: EnvironmentSnapshot,
    classification: Classification,
    ratio: float,
    verdict: str,
    source: str,
    action: Action,
    state: OverrideState,
    planning_events: int,
    backend_calls: int,
    sc_refreshed: bool,
    denied: list[str],
    direction_mismatch: bool,
    triggered: tuple[str, ...],
) -> dict[str, Any]:
    return {
        "schema": LOG_SCHEMA_VERSION,
        "tick": env.tick,
        "active": True,
        "classification": classification.value,
        "hazard_ratio": ratio,
        "verdict": verdict,
        "source": source,
        "action": action.to_json(),
        "triggered_constraints": list(triggered),
        "planning_events": planning_events,
        "backend_calls": backend_calls,
        "sc_refreshed": sc_refreshed,
        "denied": denied,
        "direction_mismatch": direction_mismatch,
        "sequence_len": len(state.sequence),
        "wait_elapsed": state.wait_elapsed,
    }


def base_record(env_tick: int, action: Action) -> dict[str, Any]:
    """Decision-log record for a tick driven by the base agent."""
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
