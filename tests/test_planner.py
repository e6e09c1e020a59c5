"""Hazard inference, motion planning, and stop-observe-move expansion."""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings, strategies as st

from rco.backend import HazardAndPlan, ScriptedBackend
from rco.domain import (
    ActionSequence,
    Behavior,
    ConditionActionPair,
    ExecutionCondition,
    HighLevelAction,
    MotionKind,
    MotionPlan,
    ObjectClass,
    SpeedControl,
    Strategy,
)
from rco.planner import (
    FALLBACK_TRIGGER,
    PlannerConfig,
    expand_stop_observe_move,
    infer_hazards,
    plan_motion,
)
from conftest import (
    DEFAULT_NAVI,
    FAILURE_KINDS,
    StubBackend,
    TimeoutBackend,
    UnreachableBackend,
    failing_backend,
    snapshot,
)

CFG = PlannerConfig()


def history(k=CFG.history_len):
    return [snapshot(tick=i) for i in range(k)]


def scripted():
    return ScriptedBackend.bundled()


class TestInferHazards:
    def test_pedestrian_cross_key(self):
        hazards, strategy = infer_hazards(
            history(), scripted(), CFG, scenario_key="pedestrian_cross"
        )
        assert [(h.object, h.motion) for h in hazards] == [
            (ObjectClass.PEDESTRIAN, MotionKind.CROSSING)
        ]
        assert strategy is Strategy.STOP_OBSERVE_MOVE

    def test_bicycle_oncoming_key(self):
        hazards, strategy = infer_hazards(
            history(), scripted(), CFG, scenario_key="bicycle_oncoming"
        )
        assert [(h.object, h.motion) for h in hazards] == [
            (ObjectClass.BICYCLE, MotionKind.ONCOMING)
        ]
        assert strategy is Strategy.MOVE

    def test_timeout_falls_back_to_stop_observe_move(self):
        hazards, strategy = infer_hazards(history(), TimeoutBackend(), CFG)
        assert hazards == ()
        assert strategy is Strategy.STOP_OBSERVE_MOVE

    def test_transport_failure_falls_back(self):
        hazards, strategy = infer_hazards(history(), UnreachableBackend(), CFG)
        assert (hazards, strategy) == ((), Strategy.STOP_OBSERVE_MOVE)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_failure_falls_back_after_one_call(self, kind):
        wait = MotionPlan(Strategy.STOP_OBSERVE_MOVE, wait_ticks=3, move_trigger=FALLBACK_TRIGGER)
        backend = failing_backend(kind, wrong_answer=wait)
        assert infer_hazards(history(), backend, CFG) == ((), Strategy.STOP_OBSERVE_MOVE)
        assert len(backend.requests) == 1

    def test_unknown_key_falls_back(self):
        hazards, strategy = infer_hazards(history(), scripted(), CFG, scenario_key="who")
        assert (hazards, strategy) == ((), Strategy.STOP_OBSERVE_MOVE)

    def test_wrong_history_length_is_caller_error(self):
        with pytest.raises(ValueError):
            infer_hazards(history(3), scripted(), CFG)

    def test_deterministic(self):
        a = infer_hazards(history(), scripted(), CFG, scenario_key="pedestrian_cross")
        b = infer_hazards(history(), scripted(), CFG, scenario_key="pedestrian_cross")
        assert a == b


class TestPlanMotion:
    def plan(self, backend, strategy=Strategy.MOVE, cfg=CFG, key=""):
        return plan_motion((), strategy, DEFAULT_NAVI, snapshot(tick=9), backend, cfg, key)

    def test_move_plan_truncated_to_step_limit(self):
        plan = self.plan(scripted(), key="traffic_light_benign")  # 8 scripted pairs
        assert plan.strategy is Strategy.MOVE
        assert len(plan.sequence) == CFG.max_steps == 5
        assert plan.sequence.created_tick == 9

    def test_wait_plan_passes_through(self):
        plan = self.plan(scripted(), Strategy.STOP_OBSERVE_MOVE, key="pedestrian_cross")
        assert plan.strategy is Strategy.STOP_OBSERVE_MOVE
        assert plan.wait_ticks == 30
        assert plan.move_trigger is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD

    def test_empty_move_plan_falls_back(self):
        backend = StubBackend(parsed=MotionPlan(Strategy.MOVE, sequence=ActionSequence((), 0)))
        plan = self.plan(backend)
        assert plan.strategy is Strategy.STOP_OBSERVE_MOVE
        assert plan.wait_ticks == CFG.wait_cap

    def test_backend_failure_falls_back_to_full_wait(self):
        plan = self.plan(TimeoutBackend())
        assert plan == MotionPlan(
            Strategy.STOP_OBSERVE_MOVE,
            wait_ticks=CFG.wait_cap,
            move_trigger=ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
        )

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_failure_falls_back_after_one_call(self, kind):
        backend = failing_backend(kind, wrong_answer=HazardAndPlan((), Strategy.MOVE))
        plan = self.plan(backend)
        assert plan == MotionPlan(
            Strategy.STOP_OBSERVE_MOVE, wait_ticks=CFG.wait_cap, move_trigger=FALLBACK_TRIGGER
        )
        assert len(backend.requests) == 1

    def test_long_wait_is_capped_by_its_expansion(self):
        sent = MotionPlan(
            Strategy.STOP_OBSERVE_MOVE,
            wait_ticks=120,
            move_trigger=ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD,
        )
        plan = self.plan(StubBackend(parsed=sent), Strategy.STOP_OBSERVE_MOVE)
        assert plan == sent
        assert len(expand_stop_observe_move(plan, CFG.wait_cap)) == CFG.wait_cap

    @given(n=st.integers(0, 20), max_steps=st.integers(1, 10))
    def test_move_plan_never_exceeds_the_step_limit(self, n, max_steps):
        # Alternating speeds, so that any slice but the prefix compares unequal.
        speeds = [SpeedControl.CONSTANT_SPEED, SpeedControl.ACCELERATION] * 10
        pairs = tuple(
            ConditionActionPair(
                ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
                HighLevelAction(Behavior.MOVE_FORWARD, speed),
            )
            for speed in speeds[:n]
        )
        sent = MotionPlan(Strategy.MOVE, sequence=ActionSequence(pairs, 0))
        cfg = PlannerConfig(max_steps=max_steps)
        plan = self.plan(StubBackend(parsed=sent), cfg=cfg)
        if n == 0:  # an empty move plan becomes the full wait
            assert plan.strategy is Strategy.STOP_OBSERVE_MOVE
            return
        assert plan.sequence == ActionSequence(pairs[:max_steps], 9)  # the prefix, from tick 9
        assert len(plan.sequence) <= max_steps

    @settings(max_examples=100, deadline=None)
    @given(raw=st.text(max_size=120))
    def test_fallback_totality_on_arbitrary_raw(self, raw):
        # Whatever the backend hands back, a well-formed plan comes out.
        class RawBackend:
            def call(self, req):
                from rco.backend import parse_structured

                parsed = parse_structured(raw, req.purpose)  # may raise SchemaViolation
                from rco.backend import BackendResponse

                return BackendResponse(raw=raw, parsed=parsed)

        plan = plan_motion(
            (), Strategy.MOVE, DEFAULT_NAVI, snapshot(), RawBackend(), CFG, ""
        )
        assert isinstance(plan, MotionPlan)

    def test_deterministic_with_scripted_backend(self):
        a = self.plan(scripted(), key="traffic_light_benign")
        b = self.plan(scripted(), key="traffic_light_benign")
        assert a == b


class TestExpandStopObserveMove:
    def wait_plan(self, wait):
        return MotionPlan(
            Strategy.STOP_OBSERVE_MOVE,
            wait_ticks=wait,
            move_trigger=ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
        )

    def test_expands_to_stop_pairs(self):
        seq = expand_stop_observe_move(self.wait_plan(3), wait_cap=50, created_tick=4)
        assert len(seq) == 3
        assert seq.created_tick == 4
        for pair in seq.pairs:
            assert pair.action.behavior is Behavior.STOP
            assert pair.action.speed is SpeedControl.DECELERATION_TO_ZERO

    def test_zero_wait_is_empty_sequence(self):
        assert len(expand_stop_observe_move(self.wait_plan(0), wait_cap=50)) == 0

    def test_wait_beyond_cap_truncates_and_logs(self, caplog):
        with caplog.at_level(logging.INFO, logger="rco.planner"):
            seq = expand_stop_observe_move(self.wait_plan(80), wait_cap=50)
        assert len(seq) == 50
        assert any("truncated" in r.message for r in caplog.records)

    def test_wrong_strategy_rejected(self):
        plan = MotionPlan(Strategy.MOVE, sequence=ActionSequence((), 0))
        with pytest.raises(ValueError, match="cannot expand a move plan"):
            expand_stop_observe_move(plan, wait_cap=50)

    @given(wait=st.integers(0, 200), cap=st.integers(1, 100))
    def test_length_never_exceeds_cap(self, wait, cap):
        seq = expand_stop_observe_move(self.wait_plan(wait), wait_cap=cap)
        assert len(seq) <= cap


class TestPlannerConfig:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            PlannerConfig(history_len=0)
        with pytest.raises(ValueError):
            PlannerConfig(max_steps=-1)
        with pytest.raises(ValueError):
            PlannerConfig(wait_cap=0)
        with pytest.raises(ValueError):
            PlannerConfig(replan_budget=0)
