"""Closed-loop episode execution: one world loop drives each mode's policy, a
generator that is primed with next(), sent the world at every tick, answers
with that tick's action and decision record, and keeps its own state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Generator, Optional

from . import metrics, orchestrator, simenv
from .backend import Backend
from .domain import FAIL_SAFE_STOP, Action
from .orchestrator import OrchestratorConfig, OverrideState
from .planner import PlannerConfig
from .safety import SafetyGains
from .simenv import DeficitPolicy, Scenario, VehicleParams, WorldState
from .verifier import VerifierConfig


class Mode(str, Enum):
    BASELINE = "baseline"
    RCO = "rco"
    ALWAYS_STOP = "always_stop"


STOP = FAIL_SAFE_STOP  # the always_stop halt
Policy = Generator[tuple[Action, dict[str, Any]], WorldState, None]


@dataclass(frozen=True)
class Overrides:
    """Optional config knobs; None keeps each module's default."""

    n_max: Optional[int] = None
    history_len: Optional[int] = None
    wait_cap: Optional[int] = None
    replan_budget: Optional[int] = None
    shift_threshold: Optional[float] = None
    hazard_ratio_threshold: Optional[float] = None
    delta_throttle: Optional[float] = None
    delta_brake: Optional[float] = None
    penalties: Optional[dict[str, float]] = None

    def orchestrator_config(self, scenario_key: str, dt: float) -> OrchestratorConfig:
        history_len = None if self.history_len is None else max(2, self.history_len)
        return OrchestratorConfig(
            planner=PlannerConfig(**given(
                max_steps=self.n_max,
                history_len=self.history_len,
                wait_cap=self.wait_cap,
                replan_budget=self.replan_budget,
            )),
            verifier=VerifierConfig(**given(
                shift_threshold=self.shift_threshold,
                hazard_ratio_threshold=self.hazard_ratio_threshold,
                history_len=history_len,
            )),
            gains=SafetyGains(**given(
                delta_throttle=self.delta_throttle, delta_brake=self.delta_brake
            )),
            dt=dt,
            scenario_key=scenario_key,
        )

    def penalty_table(self) -> dict[simenv.InfractionKind, float]:
        table = dict(metrics.DEFAULT_PENALTIES)
        for name, value in dict(self.penalties or {}).items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"penalty {name} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:  # also rejects NaN
                raise ValueError(f"penalty {name} out of [0,1]: {value}")
            table[simenv.InfractionKind(name)] = float(value)
        return table


def given(**kwargs: Any) -> dict[str, Any]:
    """The keyword arguments that are set; a None keeps the callee's default."""
    return {k: v for k, v in kwargs.items() if v is not None}


@dataclass(frozen=True)
class EpisodeOutcome:
    result: metrics.EpisodeResult
    records: tuple[dict[str, Any], ...]


def _base(w: WorldState, deficits: DeficitPolicy) -> tuple[Action, dict[str, Any]]:
    """The base agent's action on the objects it can see, and its record."""
    action = simenv.base_agent(w, simenv.masked_ids(w, deficits))
    return action, orchestrator.base_record(w.tick, action)


def _baseline(deficits: DeficitPolicy, backend: Backend, cfg: OrchestratorConfig) -> Policy:
    """The scripted driver alone, blind to masked objects; it never perceives."""
    w = yield
    while True:
        w = yield _base(w, deficits)


def _always_stop(deficits: DeficitPolicy, backend: Backend, cfg: OrchestratorConfig) -> Policy:
    """Halts at the first deficit and, since the halt never lifts, stops looking."""
    w = yield
    while not simenv.perceive(w, deficits).has_deficit:
        w = yield _base(w, deficits)
    while True:
        w = yield STOP, orchestrator.base_record(w.tick, STOP)


def _rco(deficits: DeficitPolicy, backend: Backend, cfg: OrchestratorConfig) -> Policy:
    """The override seizes actuation whenever a deficit is present."""
    state: OverrideState = orchestrator.initial_state()
    history: list = []
    history_cap = max(cfg.planner.history_len, cfg.verifier.history_len)
    w = yield
    while True:
        snap = simenv.perceive(w, deficits)
        history.append(snap)
        del history[:-history_cap]
        state = orchestrator.engage(snap.has_deficit, state)
        if state.active:
            step = orchestrator.step(
                state, snap, history, simenv.measurements(w), w.ego.pose, backend, cfg
            )
            state = step.state
            w = yield step.action, step.record
        else:
            action, record = _base(w, deficits)
            state = orchestrator.note_external_action(state, action)
            w = yield action, record


POLICIES = {Mode.BASELINE: _baseline, Mode.RCO: _rco, Mode.ALWAYS_STOP: _always_stop}


def run_episode(
    scenario: Scenario,
    mode: Mode,
    backend: Backend,
    overrides: Overrides = Overrides(),
) -> EpisodeOutcome:
    """Run one deterministic closed-loop episode and score it."""
    params = VehicleParams()
    cfg = overrides.orchestrator_config(scenario.name, params.dt)
    w: WorldState = simenv.world_from_scenario(scenario, params)
    act = POLICIES[mode](scenario.deficit_policy, backend, cfg)
    next(act)
    best_progress = w.ego_progress
    events: list[simenv.InfractionEvent] = []
    records: list[dict[str, Any]] = []

    while w.tick < scenario.time_limit_ticks and w.ego_progress < scenario.route.length:
        action, record = act.send(w)
        records.append(record)
        w_next = simenv.tick(w, action)
        events.extend(simenv.detect_infractions(w, w_next))
        best_progress = max(best_progress, w_next.ego_progress)
        w = w_next

    game_time_s = w.tick * params.dt
    rc = metrics.completion_pct(scenario.route, best_progress)
    is_score = metrics.infraction_score(events, scenario.deficit_policy, overrides.penalty_table())
    as_speed = metrics.average_speed(scenario.route.length, game_time_s)
    result = metrics.EpisodeResult.build(
        scenario=scenario.name,
        mode=mode.value,
        rc=rc,
        is_score=is_score,
        as_speed=as_speed,
        infractions=tuple(events),
        game_time_s=game_time_s,
    )
    return EpisodeOutcome(result, tuple(records))
