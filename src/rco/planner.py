"""Hazard inference and short-term motion planning against the backend.

Both operations are total with respect to backend behavior: any transport or
schema failure degrades to the risk-averse fallback (no hazards known, stop
and observe) rather than surfacing an error into the control loop.
"""

from __future__ import annotations

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
    _MOVE,
    typed,
    value_type,
)


@value_type
class PlannerConfig:
    """Planning limits: frame history, plan-ahead steps, wait cap and replan budget."""

    history_len: int = 5  # frames fed to hazard inference
    n_max: int = 5  # plan-ahead limit per move sequence
    wait_cap: int = 50  # ticks a stop-observe-move episode may hold
    replan_budget: int = 3  # consecutive denials before forced fail-safe

    def __post_init__(self) -> None:
        for name in ("history_len", "n_max", "wait_cap", "replan_budget"):
            value = typed(getattr(self, name), int, name)  # a bool or a float is no count
            if not 0 < value <= 10_000:  # it sizes a frame window, plan or wait
                raise ValueError(f"{name} out of [1,10000]: {value}")


FALLBACK_TRIGGER = ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD
# Read every planning round; CPython 3.11 does not specialise Enum member reads.
_STOP_OBSERVE_MOVE = Strategy.STOP_OBSERVE_MOVE


def infer_hazards(
    history: Sequence[EnvironmentSnapshot],
    backend: Backend,
    cfg: PlannerConfig,
    scenario_key: str = "",
) -> tuple[tuple[Hazard, ...], Strategy]:
    """Query the backend over the frame window; fall back to
    (no hazards, stop-observe-move) on any failure."""
    answer = backend_mod.ask(backend, backend_mod.hazard_request(history, scenario_key))
    if answer is None:
        return (), _STOP_OBSERVE_MOVE
    return answer.hazards, answer.strategy


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
    if plan is None or (plan.strategy is _MOVE and not plan.sequence.pairs):
        return MotionPlan(
            _STOP_OBSERVE_MOVE, wait_ticks=cfg.wait_cap, move_trigger=FALLBACK_TRIGGER
        )
    if plan.strategy is _MOVE:
        seq = ActionSequence(plan.sequence.pairs[:cfg.n_max], current_snapshot.tick)
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
    return ActionSequence((STOP_PAIR,) * min(plan.wait_ticks, wait_cap), created_tick)
