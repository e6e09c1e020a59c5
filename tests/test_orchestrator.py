"""Plan/act loop: sequence lifecycle, verification gating, fail-safe paths."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from rco import verifier
from rco.backend import ScriptedBackend
from rco.domain import (
    Action,
    ActionSequence,
    Behavior,
    Box,
    ConditionActionPair,
    ExecutionCondition,
    HighLevelAction,
    SpeedControl,
    VehicleMeasurements,
)
from rco.orchestrator import (
    FAIL_SAFE_STOP,
    OrchestratorConfig,
    engage,
    initial_state,
    note_external_action,
    step,
)
from rco.planner import PlannerConfig
from rco.runner import Mode, Overrides, run_episode
from rco.simenv import Scenario
from conftest import snapshot

POSE = (0.0, 0.0, 0.0)
CALM = VehicleMeasurements(0.0, 0.0, 0.0)

NO_HAZ = "consistent_no_immediate_hazard"
HAZ = "consistent_immediate_hazard"


def pair_json(condition, behavior="move_forward", speed="constant_speed"):
    return {"condition": condition, "behavior": behavior, "speed": speed}


TEST_TABLE = {
    "hazard_and_plan": {
        "move2": {"hazards": [], "strategy": "move"},
        "cautious": {"hazards": [{"object": "pedestrian", "motion": "crossing"}], "strategy": "move"},
        "wait3": {"hazards": [], "strategy": "stop_observe_move"},
    },
    "short_term_motion": {
        "move2": {"strategy": "move", "pairs": [pair_json(NO_HAZ), pair_json(NO_HAZ)]},
        "cautious": {
            "strategy": "move",
            "pairs": [pair_json(HAZ, "stop", "deceleration_to_zero"), pair_json(HAZ, "stop", "deceleration_to_zero")],
        },
        "wait3": {"strategy": "stop_observe_move", "wait": 3, "trigger": NO_HAZ},
    },
    "safety_constraints": {},
}


def backend():
    return ScriptedBackend(TEST_TABLE)


def cfg_for(key, **planner_kwargs):
    return OrchestratorConfig(
        planner=PlannerConfig(**planner_kwargs) if planner_kwargs else PlannerConfig(),
        scenario_key=key,
    )


def quiet_history(n=2):
    # Stable single deficit: consistent, ratio well below the bar.
    return [
        snapshot(tick=i, front_deficits=[Box(0.45, 0.45, 0.5, 0.5)]) for i in range(n)
    ]


def hazard_history(n=2):
    # Stable large deficit: consistent, ratio far above the bar.
    return [
        snapshot(tick=i, front_deficits=[Box(0.2, 0.2, 0.8, 0.7)]) for i in range(n)
    ]


def engaged():
    return engage(True, initial_state())


class TestEngage:
    def test_deficit_appearing_activates_with_empty_sequence(self):
        state = engage(True, initial_state())
        assert state.active
        assert len(state.sequence) == 0

    def test_persisting_deficit_leaves_state_alone(self):
        state = engaged()
        again = engage(True, state)
        assert again == state

    def test_clearing_deficit_releases_and_discards_plan(self):
        state = engaged()
        history = quiet_history()
        result = step(state, history[-1], history, CALM, POSE, backend(), cfg_for("move2"))
        assert len(result.state.sequence) == 1
        released = engage(False, result.state)
        assert not released.active
        assert len(released.sequence) == 0


class TestStepPlanning:
    def test_empty_sequence_plans_then_executes_head(self):
        history = quiet_history()
        result = step(engaged(), history[-1], history, CALM, POSE, backend(), cfg_for("move2"))
        # Two pairs planned, head emitted, one left.
        assert len(result.state.sequence) == 1
        assert result.record["source"] == "pair"
        assert result.record["verdict"] == "execute"
        assert result.record["planning_events"] == 1
        assert result.record["backend_calls"] == 3  # constraints + hazards + motion
        assert result.action.throttle == pytest.approx(0.7)

    def test_sequence_consumed_front_to_back(self):
        history = quiet_history(3)
        result = step(engaged(), history[0], history[:2], CALM, POSE, backend(), cfg_for("move2"))
        result2 = step(
            result.state, history[1], history[:2], CALM, POSE, backend(), cfg_for("move2")
        )
        assert len(result2.state.sequence) == 0
        assert result2.record["planning_events"] == 0  # no replan needed

    def test_constraints_cached_within_context(self):
        history = quiet_history(3)
        r1 = step(engaged(), history[0], history[:2], CALM, POSE, backend(), cfg_for("move2"))
        r2 = step(r1.state, history[1], history[:3], CALM, POSE, backend(), cfg_for("move2"))
        assert r1.record["sc_refreshed"] is True
        assert r2.record["sc_refreshed"] is False

    def test_stale_head_denied_then_new_head_executes_same_tick(self):
        # Leftover plan guarded for the quiet condition; live classification
        # is immediate hazard; the fresh plan's stop pair matches and runs.
        stale = ActionSequence(
            (
                ConditionActionPair(
                    ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
                    HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED),
                ),
            ),
            0,
        )
        from dataclasses import replace

        state = replace(engaged(), sequence=stale)
        history = hazard_history()
        result = step(state, history[-1], history, CALM, POSE, backend(), cfg_for("cautious"))
        assert result.record["denied"] == [NO_HAZ]
        assert result.record["verdict"] == "execute"
        assert result.record["source"] == "pair"
        assert result.action.brake == pytest.approx(0.8)  # the stop pair ran

    def test_replan_budget_exhaustion_emits_fail_safe(self):
        # Fresh plans keep guarding for the quiet condition under a live
        # immediate hazard: denials burn the budget, then the fail-safe.
        history = hazard_history()
        result = step(engaged(), history[-1], history, CALM, POSE, backend(), cfg_for("move2"))
        assert result.action == FAIL_SAFE_STOP
        assert result.record["source"] == "failsafe"
        assert result.state.consecutive_replans == 0  # reset after the stop
        assert len(result.state.sequence) == 0

    def test_unknown_key_backend_fallback_still_acts(self):
        history = quiet_history()
        result = step(engaged(), history[-1], history, CALM, POSE, backend(), cfg_for("nope"))
        # Hazard fallback demands stop-observe-move: a stop is emitted.
        assert result.action.brake > 0.0
        assert result.record["source"] in ("pair", "stop_wait", "failsafe")


class TestWaitMode:
    def test_wait_plan_emits_stop_pairs(self):
        history = quiet_history()
        result = step(engaged(), history[-1], history, CALM, POSE, backend(), cfg_for("wait3"))
        assert result.state.wait_trigger is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD
        assert len(result.state.sequence) == 2  # 3 expanded, head executed
        assert result.action.brake == pytest.approx(0.8)
        assert result.record["source"] == "pair"

    def test_wait_expiry_with_trigger_met_replans(self):
        cfg = cfg_for("wait3")
        state = engaged()
        frames = [snapshot(tick=i, front_deficits=[Box(0.45, 0.45, 0.5, 0.5)]) for i in range(8)]
        plans = 0
        for i in range(5):
            history = frames[max(0, i - 1): i + 1] or [frames[0]]
            result = step(state, frames[i], frames[: i + 1][-2:] if i else [frames[0]], CALM, POSE, backend(), cfg)
            state = result.state
            plans += result.record["planning_events"]
        # initial plan plus a replan at expiry of the 3-stop wait
        assert plans == 2

    def test_wait_continues_under_hazard_until_cap(self):
        cfg = cfg_for("wait3", wait_cap=5)
        state = engaged()
        frames = [snapshot(tick=i, front_deficits=[Box(0.2, 0.2, 0.8, 0.7)]) for i in range(10)]
        sources = []
        for i in range(7):
            history = frames[: i + 1][-2:]
            result = step(state, frames[i], history, CALM, POSE, backend(), cfg)
            state = result.state
            sources.append(result.record["source"])
            assert result.action.brake == pytest.approx(0.8)
        # 3 expanded stops, then held stops past expiry (trigger unmet), then
        # a forced replanning round once wait_cap ticks have passed, which
        # expands fresh stops.
        assert sources == ["pair"] * 3 + ["stop_wait"] * 2 + ["pair"] * 2


class TestRecords:
    def test_record_schema_and_fields(self):
        history = quiet_history()
        result = step(engaged(), history[-1], history, CALM, POSE, backend(), cfg_for("move2"))
        rec = result.record
        assert rec["schema"] == 1
        for key in (
            "tick", "active", "classification", "hazard_ratio", "verdict", "source",
            "action", "triggered_constraints", "planning_events", "backend_calls",
            "sc_refreshed", "denied", "direction_mismatch", "sequence_len", "wait_elapsed",
        ):
            assert key in rec

    def test_step_requires_engagement(self):
        history = quiet_history()
        with pytest.raises(ValueError):
            step(initial_state(), history[-1], history, CALM, POSE, backend(), cfg_for("move2"))

    def test_note_external_action_updates_prev(self):
        state = note_external_action(initial_state(), Action(0.5, 0.0, 0.1))
        assert state.prev_action == Action(0.5, 0.0, 0.1)


class TestFuzzLoop:
    def test_500_tick_fuzz_soundness(self):
        # Random deficit churn; every tick must emit a valid action from an
        # audited source, with sequence lengths inside their caps.
        rng = random.Random(99)
        state = engaged()
        cfg = cfg_for("move2")
        history = []
        for tick in range(500):
            n_deficits = rng.choice((0, 1, 1, 1, 2))
            boxes = []
            for j in range(n_deficits):
                x0 = rng.uniform(0.0, 0.8)
                y0 = rng.uniform(0.0, 0.8)
                boxes.append(Box(x0, y0, x0 + rng.uniform(0.05, 0.2), y0 + rng.uniform(0.05, 0.2)))
            snap = snapshot(tick=tick, front_deficits=boxes)
            history.append(snap)
            history = history[-5:]
            state = engage(snap.has_deficit or True, state)
            result = step(state, snap, history, CALM, POSE, backend(), cfg)
            state = result.state
            assert 0.0 <= result.action.throttle <= 1.0
            assert 0.0 <= result.action.brake <= 1.0
            assert -1.0 <= result.action.steer <= 1.0
            assert result.record["source"] in ("pair", "stop_wait", "failsafe")
            if state.wait_trigger is None:
                assert len(state.sequence) <= cfg.planner.max_steps
            else:
                assert len(state.sequence) <= cfg.planner.wait_cap

    def test_carried_classification_equals_full_scan(self):
        # Through engagements and releases, each active tick's logged
        # classification and ratio are those of the full scan, and the state
        # carries only frames of the current window.
        rng = random.Random(17)
        state, cfg, history = initial_state(), cfg_for("move2"), []
        boxes = [Box(0.45, 0.45, 0.5, 0.5)]
        for tick in range(400):
            if rng.random() < 0.2:
                boxes = rng.choice(([], [Box(0.45, 0.45, 0.5, 0.5)], [Box(0.2, 0.2, 0.8, 0.7)],
                                    [Box(0.1, 0.1, 0.2, 0.2), Box(0.6, 0.6, 0.7, 0.7)]))
            snap = snapshot(tick=tick, front_deficits=boxes)
            history = (history + [snap])[-5:]
            state = engage(snap.has_deficit, state)
            if not state.active:
                assert state.consistency is None
                continue
            result = step(state, snap, history, CALM, POSE, backend(), cfg)
            state = result.state
            condition, ratio = verifier.classify(history, cfg.verifier)
            expected = "replan" if condition is None else condition.value
            assert (result.record["classification"], result.record["hazard_ratio"]) == (
                expected, ratio
            )
            frames = state.consistency.frames
            assert frames == tuple(history[len(history) - len(frames):])


class TestStepCost:
    def test_one_ratio_and_one_state_per_step(self, monkeypatch):
        # Each tick computes the proximity ratio once and builds its next
        # state once, whichever path it takes; it evaluates the envelope
        # triggers once when it executes a pair and not at all otherwise.
        import rco.orchestrator as orch
        from rco import safety

        calls = {"ratio": 0, "state": 0, "fired": 0, "transition": 0}
        real_ratio, real_state = verifier.hazard_proximity_ratio, orch.OverrideState
        real_fired, real_transition = safety._fired, verifier.check_transition

        def counting_ratio(*args):
            calls["ratio"] += 1
            return real_ratio(*args)

        def counting_fired(*args):
            calls["fired"] += 1
            return real_fired(*args)

        def counting_state(*args, **kwargs):
            calls["state"] += 1
            return real_state(*args, **kwargs)

        def counting_transition(*args):
            calls["transition"] += 1
            return real_transition(*args)

        def no_replace(*args, **kwargs):
            raise AssertionError("step rebuilt its state through replace()")

        rng = random.Random(3)
        state = engaged()
        monkeypatch.setattr(verifier, "hazard_proximity_ratio", counting_ratio)
        monkeypatch.setattr(orch, "OverrideState", counting_state)
        monkeypatch.setattr(orch, "replace", no_replace)
        monkeypatch.setattr(safety, "_fired", counting_fired)
        monkeypatch.setattr(verifier, "check_transition", counting_transition)
        sources = set()
        history = []
        for tick in range(400):
            boxes = [Box(0.45, 0.45, 0.5, 0.5)] * rng.choice((1, 1, 1, 2))
            if rng.random() < 0.3:
                boxes = [Box(0.2, 0.2, 0.8, 0.7)]
            history = (history + [snapshot(tick=tick, front_deficits=boxes)])[-5:]
            key = ("move2", "cautious", "wait3", "nope")[tick // 100]
            calls.update(ratio=0, state=0, fired=0, transition=0)
            result = step(state, history[-1], history, CALM, POSE, backend(), cfg_for(key))
            state = result.state
            sources.add(result.record["source"])
            executed = result.record["verdict"] == "execute"
            # The window extends the previous step's by one frame, so only
            # its newest transition is checked.
            assert calls == {
                "ratio": 1, "state": 1, "fired": int(executed), "transition": int(tick > 0)
            }
        assert sources == {"pair", "stop_wait", "failsafe"}

    def test_one_transition_check_per_gen_dense_step(self, monkeypatch):
        # Over the benchmark's eight gen-dense seed 1 episodes, every step of
        # a window of two or more frames checks exactly one transition: the
        # newest of a continued lineage, or at engagement the newest one,
        # which a deficit that just appeared breaks. The full scan checks
        # 5,056 transitions for the same 1,352 steps.
        import rco.orchestrator as orch

        # The benchmark's generator, imported as tests/test_bench_contract.py does.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen_dense

        counts = {"transitions": 0, "steps": 0}
        real_transition, real_step = verifier.check_transition, orch.step

        def counting_transition(*args):
            counts["transitions"] += 1
            return real_transition(*args)

        def counting_step(state, env, history, *args):
            counts["steps"] += len(history) >= 2
            return real_step(state, env, history, *args)

        monkeypatch.setattr(verifier, "check_transition", counting_transition)
        monkeypatch.setattr(orch, "step", counting_step)
        scenarios, table = gen_dense.generate(1)
        assert len(scenarios) == 8
        for sc in scenarios:
            run_episode(Scenario.from_json(sc), Mode.RCO, ScriptedBackend(table), Overrides(n_max=1))
        assert counts == {"transitions": 1352, "steps": 1352}
