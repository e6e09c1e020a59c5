"""Closed-loop episode execution for the three agent modes.

baseline: the scripted driver alone, blind to masked objects.
rco:      the override seizes actuation whenever a deficit is present.
always_stop: emergency-stop protocol — halts at the first deficit and never
resumes, the fully risk-avoidant comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from . import metrics, orchestrator, simenv
from .backend import Backend
from .domain import FAIL_SAFE_STOP
from .orchestrator import OrchestratorConfig, OverrideState
from .planner import PlannerConfig
from .safety import SafetyGains
from .simenv import Scenario, VehicleParams, WorldState
from .verifier import VerifierConfig


class Mode(str, Enum):
    BASELINE = "baseline"
    RCO = "rco"
    ALWAYS_STOP = "always_stop"


STOP = FAIL_SAFE_STOP  # the always_stop halt


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
    policy = scenario.deficit_policy
    state: OverrideState = orchestrator.initial_state()
    history: list = []
    history_cap = max(cfg.planner.history_len, cfg.verifier.history_len)
    best_progress = w.ego_progress
    events: list[simenv.InfractionEvent] = []
    records: list[dict[str, Any]] = []
    halted_forever = False
    # Tested once: each Mode.X read in the loop is a class attribute lookup.
    is_rco = mode is Mode.RCO
    is_always_stop = mode is Mode.ALWAYS_STOP

    while w.tick < scenario.time_limit_ticks and w.ego_progress < scenario.route.length:
        if is_rco:
            snap = simenv.perceive(w, policy)
            history.append(snap)
            if len(history) > history_cap:
                history.pop(0)
            state = orchestrator.engage(snap.has_deficit, state)
            if state.active:
                step = orchestrator.step(
                    state, snap, history, simenv.measurements(w), w.ego.pose, backend, cfg
                )
                action, state = step.action, step.state
                records.append(step.record)
            else:
                action = simenv.base_agent(w, simenv.masked_ids(w, policy))
                state = orchestrator.note_external_action(state, action)
                records.append(orchestrator.base_record(w.tick, action))
        else:
            # The baseline never looks; the stop protocol looks only until its
            # first deficit, because the halt never lifts.
            halted_forever = halted_forever or (
                is_always_stop and simenv.perceive(w, policy).has_deficit
            )
            action = STOP if halted_forever else simenv.base_agent(w, simenv.masked_ids(w, policy))
            records.append(orchestrator.base_record(w.tick, action))

        w_next = simenv.tick(w, action)
        events.extend(simenv.detect_infractions(w, w_next))
        best_progress = max(best_progress, w_next.ego_progress)
        w = w_next

    game_time_s = w.tick * params.dt
    rc = metrics.completion_pct(scenario.route, best_progress)
    is_score = metrics.infraction_score(events, policy, overrides.penalty_table())
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
