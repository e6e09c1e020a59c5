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

import json
from dataclasses import field, replace
from types import SimpleNamespace
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
    TrafficDensity,
    VehicleMeasurements,
    Weather,
    _MOVE,
    typed,
    value_type,
)
from .planner import PlannerConfig
from .safety import SafetyGains
from .verifier import VerifierConfig

LOG_SCHEMA_VERSION = 1
_BASE, _PAIR, _STOP_WAIT, _FAILSAFE = "base", "pair", "stop_wait", "failsafe"
_EXECUTE, _DENY, _REPLAN, _WAIT_INCONSISTENT = "execute", "deny", "replan", "wait_inconsistent"
_CONDITIONS = tuple(c.value for c in ExecutionCondition)
_COUNT = (0, float("inf"))
# The decision record, declared once: each key in write order with its JSON kind (str a
# token, list a token list, Action the action object), its closed range or vocabulary on
# an active record, and its value on a base-agent record (``...``: base_record sets it).
RECORD: dict[str, tuple[type, Any, Any]] = {
    "schema": (int, (1, LOG_SCHEMA_VERSION), LOG_SCHEMA_VERSION),
    "tick": (int, _COUNT, ...),
    "active": (bool, (False, True), False),
    "classification": (str, (_REPLAN, *_CONDITIONS), None),
    "hazard_ratio": (float, (0.0, 1.0), None),
    "verdict": (str, (_EXECUTE, _DENY), None),
    "source": (str, (_PAIR, _STOP_WAIT, _FAILSAFE), _BASE),
    "action": (Action, None, ...),
    "triggered_constraints": (list, safety._TRIGGER_NAMES, []),
    "planning_events": (int, _COUNT, 0), "backend_calls": (int, _COUNT, 0),
    "sc_refreshed": (bool, (False, True), False),
    "denied": (list, (_WAIT_INCONSISTENT, *_CONDITIONS), []),
    "direction_mismatch": (bool, (False, True), False),
    "sequence_len": (int, _COUNT, 0), "wait_elapsed": (int, _COUNT, 0),
}
_BASE_RECORD = {key: base for key, (_, _, base) in RECORD.items()}
KEY = SimpleNamespace(**{key: key for key in RECORD})  # a key by name: KEY.tick is "tick"
# One record per log line; the same bytes as json.dumps with these arguments.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# A base-agent record's line, cut around its action and its tick (in that order, as the
# keys sort), the only two fields such a record varies in.
_BASE_LINE = _RECORD_ENCODER.encode({**_BASE_RECORD, KEY.action: "?", KEY.tick: "?"}).split('"?"')

_Context = tuple[Weather, Daylight, TrafficDensity, RoadGeometry]


@value_type
class OrchestratorConfig:
    """Override settings: planner, verifier, safety gains, tick length and scenario key."""

    planner: PlannerConfig = PlannerConfig()
    verifier: VerifierConfig = VerifierConfig()
    gains: SafetyGains = SafetyGains()
    dt: float = 0.1
    scenario_key: str = ""


@value_type
class OverrideState:
    """Per-episode override lifecycle: the pending sequence, wait bookkeeping,
    cached constraints, the steering controller's last heading error, and the
    consistency run of the last classified window."""

    sequence: ActionSequence = ActionSequence((), 0)
    consecutive_replans: int = 0
    active: bool = False
    prev_action: Action = Action(0.0, 0.0, 0.0)
    wait_trigger: Optional[ExecutionCondition] = None
    wait_elapsed: int = 0
    steer_ctrl: float = 0.0
    constraints: Optional[SafetyConstraints] = None
    constraints_context: Optional[_Context] = None
    # The last classified window and its newest break, matched to the next by value.
    consistency: Optional[verifier.ConsistencyRun] = field(
        default=None, repr=False, compare=False
    )


@value_type
class StepResult:
    """One orchestrator tick: the action to run, the next override state and the log record."""

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
    return [window[0]] * (k - len(window)) + window


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
    if plan.strategy is _MOVE:
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

    Under a consistent window the pending head executes or a wait past its
    stop pairs holds a stop. Otherwise one denial rule (a head no condition
    admits, or a wait under an inconsistent window) counts a replan, and one
    planning round follows. Under an inconsistent window the fail-safe stop
    holds the plan that a denial made; every other fail-safe stop drops the
    plan. The next state and the record are built once, after the loop.
    """
    if not state.active:
        raise ValueError("step() requires an engaged override; call engage() first")

    condition, ratio, consistency = verifier.classify(history, cfg.verifier, state.consistency)
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
    source = _FAILSAFE
    while True:
        waiting = trigger is not None
        head = sequence.pairs[0] if sequence.pairs else None
        if condition is not None:
            # The stop pairs of a wait execute under either consistent
            # condition; a planned pair only under its own.
            if head is not None and (waiting or condition is head.condition):
                pair, sequence = sequence.pop_front()
                source = _PAIR
                break
            if waiting and not (condition is trigger or elapsed >= cfg.planner.wait_cap):
                pair, source = STOP_PAIR, _STOP_WAIT
                break
        # The replan counter persists across ticks until a pair executes.
        if head is not None or (waiting and condition is None):
            denied.append(_WAIT_INCONSISTENT if waiting else head.condition.value)
            replans += 1
            if replans > cfg.planner.replan_budget:
                break
        if rounds > cfg.planner.replan_budget:  # at most budget + 1 rounds a tick
            break
        sequence, trigger = _plan(env, history, backend, cfg)
        elapsed, rounds = 0, rounds + 1
        # No condition matches an inconsistent window: hold the new plan for later.
        if condition is None and denied:
            break

    if pair is None:
        action, heading_error, mismatch, triggered = FAIL_SAFE_STOP, state.steer_ctrl, False, ()
        # Keep only the plan an inconsistent window's denial just made. Exact, as
        # replan_budget >= 1 and a round always leaves a plan pending (a move plan
        # is never empty, a wait carries its trigger): such a tick denies by its
        # second round, so the rounds check never ends it.
        if condition is not None or replans > cfg.planner.replan_budget:
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
    record = base_record(env.tick, action)
    record.update(
        active=True,
        classification=_REPLAN if condition is None else condition.value,
        hazard_ratio=ratio,
        verdict=_DENY if pair is None else _EXECUTE,
        source=source,
        triggered_constraints=list(triggered),
        planning_events=rounds,
        backend_calls=int(sc_refreshed) + 2 * rounds,
        sc_refreshed=sc_refreshed,
        denied=denied,
        direction_mismatch=mismatch,
        sequence_len=len(sequence),
        wait_elapsed=elapsed,
    )
    return StepResult(action, new_state, record)


def base_record(tick: int, action: Action) -> dict[str, Any]:
    """The record of a base-agent tick, with its own lists; ``step`` writes over it."""
    return dict(_BASE_RECORD, tick=tick, action=action.to_json(), triggered_constraints=[], denied=[])


def record_line(record: dict[str, Any]) -> str:
    """``record``'s decision-log line, the bytes ``_RECORD_ENCODER`` writes.

    A base-agent record fills the template cut from the encoder: for a finite
    float ``repr`` is what ``json`` writes, and ``Action`` keeps its fields
    finite. An active record takes the full encode.
    """
    if record[KEY.active]:
        return _RECORD_ENCODER.encode(record)
    head, mid, tail = _BASE_LINE
    action = record[KEY.action]
    return (
        f'{head}{{"brake":{action["brake"]!r},"steer":{action["steer"]!r},'
        f'"throttle":{action["throttle"]!r}}}{mid}{record[KEY.tick]}{tail}'
    )


def read_record(obj: Any) -> SimpleNamespace:
    """A replayed line's record, read through ``RECORD``: exactly its keys, each of its kind and
    range or vocabulary, and on a base-agent line every base value but tick and action, typed."""
    rec = typed(obj, dict, "a record")
    if rec.keys() != RECORD.keys():
        raise ValueError(f"keys not as declared: {sorted(rec.keys() ^ RECORD.keys())}")
    base_line = not typed(rec[KEY.active], bool, KEY.active)
    for key, (kind, domain, base) in RECORD.items():
        value = rec[key]
        if base_line and base is not ...:
            if type(value) is not type(base) or value != base:
                raise ValueError(f"{key} of a base-agent line must be {base!r}, got {value!r}")
        elif kind is Action:
            rec[key] = Action(**{f: typed(v, float, f) for f, v in typed(value, dict, key).items()})
        elif kind is str or kind is list:
            if not all(v in domain for v in (typed(value, list, key) if kind is list else [value])):
                raise ValueError(f"{key} holds what no written log holds: {value!r}")
        else:
            rec[key] = value = typed(value, kind, key)
            if not domain[0] <= value <= domain[1]:
                raise ValueError(f"{key} must lie in [{domain[0]}, {domain[1]}], got {value!r}")
    return SimpleNamespace(**rec)
