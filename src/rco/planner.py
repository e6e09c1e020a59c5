"""Hazard inference and short-term motion planning against the backend.

Both operations are total with respect to backend behavior: any transport or
schema failure degrades to the risk-averse fallback (no hazards known, stop
and observe) rather than surfacing an error into the control loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from . import backend as backend_mod
from .backend import Backend
from .domain import (
    ActionSequence,
    EnvironmentSnapshot,
    ExecutionCondition,
    Hazard,
    MotionPlan,
    Navigation,
    STOP_PAIR,
    Strategy,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlannerConfig:
    history_len: int = 5  # frames fed to hazard inference
    max_steps: int = 5  # plan-ahead limit per move sequence
    wait_cap: int = 50  # ticks a stop-observe-move episode may hold
    replan_budget: int = 3  # consecutive denials before forced fail-safe

    def __post_init__(self) -> None:
        for name in ("history_len", "max_steps", "wait_cap", "replan_budget"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is not a count
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


FALLBACK_TRIGGER = ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD
# Read every planning round; CPython 3.11 does not specialise Enum member reads.
_MOVE = Strategy.MOVE
_STOP_OBSERVE_MOVE = Strategy.STOP_OBSERVE_MOVE


def infer_hazards(
    history: Sequence[EnvironmentSnapshot],
    backend: Backend,
    cfg: PlannerConfig,
    scenario_key: str = "",
) -> tuple[tuple[Hazard, ...], Strategy]:
    """Query the backend over the frame window; fall back to
    (no hazards, stop-observe-move) on any failure."""
    if len(history) != cfg.history_len:
        raise ValueError(
            f"hazard inference needs exactly {cfg.history_len} frames, got {len(history)}"
        )
    answer = backend_mod.ask(backend, backend_mod.hazard_request(history, scenario_key))
    if answer is None:
        return (), _STOP_OBSERVE_MOVE
    return answer.hazards, answer.strategy


def _fallback_plan(cfg: PlannerConfig) -> MotionPlan:
    return MotionPlan(
        _STOP_OBSERVE_MOVE, wait_ticks=cfg.wait_cap, move_trigger=FALLBACK_TRIGGER
    )


def plan_motion(
    hazards: tuple[Hazard, ...],
    strategy: Strategy,
    navi: Navigation,
    current_snapshot: EnvironmentSnapshot,
    backend: Backend,
    cfg: PlannerConfig,
    scenario_key: str = "",
) -> MotionPlan:
    """The backend's plan, capped for execution from the current tick.

    Move sequences are truncated to the step limit; a wait is returned as
    sent, for ``expand_stop_observe_move`` to cap. A degenerate or
    unparseable answer becomes a full-length wait.
    """
    req = backend_mod.motion_request(hazards, strategy, navi, current_snapshot, scenario_key)
    plan = backend_mod.ask(backend, req)
    if plan is None:
        return _fallback_plan(cfg)
    if plan.strategy is _MOVE:
        pairs = plan.sequence.pairs
        if not pairs:
            log.info("backend returned an empty move plan; falling back")
            return _fallback_plan(cfg)
        if len(pairs) > cfg.max_steps:
            log.info("move plan truncated from %d to %d steps", len(pairs), cfg.max_steps)
        seq = ActionSequence(pairs[:cfg.max_steps], current_snapshot.tick)
        return MotionPlan(_MOVE, sequence=seq)
    return plan


def expand_stop_observe_move(
    plan: MotionPlan, wait_cap: int, created_tick: int = 0
) -> ActionSequence:
    """Expand a wait into stop pairs, truncated to the cap (its one place).

    The stored condition on each stop pair is nominal: a waiting stop is safe
    under either consistent classification, and the control loop verifies
    wait sequences accordingly (replan only on inconsistency).
    """
    if plan.strategy is not _STOP_OBSERVE_MOVE:
        raise ValueError(f"cannot expand a {plan.strategy.value} plan")
    wait = plan.wait_ticks
    if wait > wait_cap:
        log.info("wait expansion truncated from %d to cap %d", wait, wait_cap)
        wait = wait_cap
    return ActionSequence((STOP_PAIR,) * wait, created_tick)
