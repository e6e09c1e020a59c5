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
from .backend import Backend, BackendError, HazardAndPlan, PlanSkeleton
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


class WrongStrategyError(ValueError):
    """Stop-observe-move expansion applied to a move plan."""


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
    try:
        req = backend_mod.hazard_request(history, scenario_key)
        resp = backend.call(req)
    except BackendError as exc:
        log.info("hazard inference fell back to stop-observe-move: %s", exc)
        return (), Strategy.STOP_OBSERVE_MOVE
    if not isinstance(resp.parsed, HazardAndPlan):
        log.info("hazard inference got unusable parse; falling back")
        return (), Strategy.STOP_OBSERVE_MOVE
    return resp.parsed.hazards, resp.parsed.strategy


def _fallback_plan(cfg: PlannerConfig) -> MotionPlan:
    return MotionPlan(
        Strategy.STOP_OBSERVE_MOVE, wait_ticks=cfg.wait_cap, move_trigger=FALLBACK_TRIGGER
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
    """Build a MotionPlan from the backend's skeleton.

    Move sequences are truncated to the step limit; waits are clamped to the
    cap; a degenerate or unparseable answer becomes a full-length wait.
    """
    try:
        req = backend_mod.motion_request(hazards, strategy, navi, current_snapshot, scenario_key)
        resp = backend.call(req)
    except BackendError as exc:
        log.info("motion planning fell back to stop-observe-move: %s", exc)
        return _fallback_plan(cfg)
    skeleton = resp.parsed
    if not isinstance(skeleton, PlanSkeleton):
        log.info("motion planning got unusable parse; falling back")
        return _fallback_plan(cfg)
    if skeleton.strategy is Strategy.MOVE:
        if not skeleton.pairs:
            log.info("backend returned an empty move plan; falling back")
            return _fallback_plan(cfg)
        if len(skeleton.pairs) > cfg.max_steps:
            log.info(
                "move plan truncated from %d to %d steps", len(skeleton.pairs), cfg.max_steps
            )
        seq = ActionSequence.capped(skeleton.pairs, current_snapshot.tick, cfg.max_steps)
        return MotionPlan(Strategy.MOVE, sequence=seq)
    wait = min(skeleton.wait or 0, cfg.wait_cap)
    if (skeleton.wait or 0) > cfg.wait_cap:
        log.info("wait clamped from %d to cap %d", skeleton.wait, cfg.wait_cap)
    return MotionPlan(
        Strategy.STOP_OBSERVE_MOVE, wait_ticks=wait, move_trigger=skeleton.trigger
    )


def expand_stop_observe_move(
    plan: MotionPlan, wait_cap: int, created_tick: int = 0
) -> ActionSequence:
    """Expand a wait into stop pairs, truncated to the cap.

    The stored condition on each stop pair is nominal: a waiting stop is safe
    under either consistent classification, and the control loop verifies
    wait sequences accordingly (replan only on inconsistency).
    """
    if plan.strategy is not Strategy.STOP_OBSERVE_MOVE:
        raise WrongStrategyError(f"cannot expand a {plan.strategy.value} plan")
    wait = plan.wait_ticks or 0
    if wait > wait_cap:
        log.info("wait expansion truncated from %d to cap %d", wait, wait_cap)
        wait = wait_cap
    return ActionSequence((STOP_PAIR,) * wait, created_tick)
