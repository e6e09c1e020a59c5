"""Plan/act loop: sequence lifecycle, verification gating, fail-safe paths."""

from __future__ import annotations

import ast
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rco import controlmap, orchestrator, safety, verifier
from rco.backend import Purpose, ScriptedBackend
from rco.cli import bundled_scenario_dir
from rco.domain import (
    Action,
    ActionSequence,
    Behavior,
    Box,
    ConditionActionPair,
    ExecutionCondition,
    HighLevelAction,
    STOP_PAIR,
    SpeedControl,
    VehicleMeasurements,
)
from rco.orchestrator import (
    FAIL_SAFE_STOP,
    KEY,
    RECORD,
    OrchestratorConfig,
    OverrideState,
    StepResult,
    _DENY,
    _EXECUTE,
    _FAILSAFE,
    _PAIR,
    _REPLAN,
    _STOP_WAIT,
    _WAIT_INCONSISTENT,
    _padded_history,
    _plan,
    base_record,
    engage,
    initial_state,
    note_external_action,
    step,
)
from rco.planner import PlannerConfig
from rco.runner import Mode, Overrides, run_episode
from rco.simenv import Scenario
from conftest import snapshot
from test_verifier import reference_classify

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

    def test_idle_tick_under_an_inconsistent_window_plans_twice(self):
        # Known waste, kept as the logs record it: with nothing pending, step
        # plans, denies the new head (no condition matches an inconsistent
        # window) and plans again from the same frames, so the first round's
        # plan is never used. Changing this changes the decision logs.
        history = [
            snapshot(tick=0, front_deficits=[Box(0.45, 0.45, 0.5, 0.5)]),
            snapshot(tick=1, front_deficits=[Box(0.1, 0.1, 0.3, 0.3)]),
        ]
        requests = []

        class Recording:
            def call(self, req):
                requests.append(req)
                return backend().call(req)

        result = step(engaged(), history[-1], history, CALM, POSE, Recording(), cfg_for("move2"))
        assert result.record["classification"] == "replan"
        assert result.record["planning_events"] == 2
        assert result.record["denied"] == [NO_HAZ]
        assert result.record["source"] == "failsafe"
        assert result.action == FAIL_SAFE_STOP
        first, second = [r for r in requests if r.purpose is Purpose.HAZARD_AND_PLAN]
        assert first == second

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

    def _deny_inconsistent_wait(self, waiting_ticks):
        # wait3 under hazard windows (3 stop pairs, then stop_wait ticks), then
        # an inconsistent window: a second deficit appears. That tick denies the
        # wait, plans once under move2 and the fail-safe stop holds the new plan.
        frames = [snapshot(tick=i, front_deficits=[Box(0.2, 0.2, 0.8, 0.7)]) for i in range(10)]
        frames[waiting_ticks] = snapshot(
            tick=waiting_ticks, front_deficits=[Box(0.2, 0.2, 0.8, 0.7), Box(0.1, 0.1, 0.15, 0.15)]
        )
        state = engaged()
        for i in range(waiting_ticks):
            state = step(state, frames[i], frames[: i + 1][-2:], CALM, POSE, backend(),
                         cfg_for("wait3", wait_cap=5)).state
        assert state.wait_trigger is not None
        result = step(state, frames[waiting_ticks], frames[: waiting_ticks + 1][-2:], CALM, POSE,
                      backend(), cfg_for("move2", wait_cap=5))
        rec = result.record
        assert rec["classification"] == "replan"
        assert (rec["source"], rec["verdict"]) == ("failsafe", "deny")
        assert rec["denied"] == ["wait_inconsistent"]
        assert rec["planning_events"] == 1
        assert result.action == FAIL_SAFE_STOP
        pair = ConditionActionPair(
            ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
            HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED),
        )
        assert result.state.sequence == ActionSequence((pair, pair), waiting_ticks)
        assert (result.state.wait_trigger, result.state.wait_elapsed) == (None, 0)
        assert result.state.consecutive_replans == 1
        return state

    def test_inconsistent_window_denies_a_wait_with_stop_pairs_pending(self):
        state = self._deny_inconsistent_wait(1)
        assert len(state.sequence) == 2

    def test_inconsistent_window_denies_a_wait_past_its_stop_pairs(self):
        # One stop_wait tick in, the wait holds no pair and has not reached the
        # cap, yet it is denied: under an inconsistent window the stop is the
        # fail-safe, not a held wait.
        state = self._deny_inconsistent_wait(4)
        assert (len(state.sequence), state.wait_elapsed) == (0, 4)


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

    def test_note_external_action_updates_prev(self):
        state = note_external_action(initial_state(), Action(0.5, 0.0, 0.1))
        assert state.prev_action == Action(0.5, 0.0, 0.1)


class TestOneLogVocabulary:
    """The decision record is declared once, in ``RECORD``: orchestrator spells
    each key and each of its own tokens there and nowhere else, cli spells
    none, and ``rco replay`` reads every written line through it."""

    SRC = Path(orchestrator.__file__).parent
    KEYS = set(RECORD)
    TOKENS = {
        t for kind, vocabulary, base in RECORD.values() if kind in (str, list)
        for t in (*vocabulary, base) if type(t) is str
    }

    @classmethod
    def _literals(cls, name):
        tree = ast.parse((cls.SRC / name).read_text(encoding="utf-8"))
        return tree, [
            (node.value, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in cls.KEYS | cls.TOKENS
        ]

    def test_no_key_is_also_a_token(self):
        assert self.KEYS.isdisjoint(self.TOKENS)

    def test_cli_spells_no_key_and_no_token(self):
        assert self._literals("cli.py")[1] == []

    def test_orchestrator_spells_each_key_and_token_once_in_the_declaration(self):
        # The condition values and the envelope limit names are spelled by the
        # modules that own them; every key and every other token by the
        # declaration alone, which starts at the schema version.
        tree, spelled = self._literals("orchestrator.py")
        lines = {
            target.id: node.end_lineno for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        borrowed = {c.value for c in ExecutionCondition} | set(safety._TRIGGER_NAMES)
        assert sorted(value for value, _ in spelled) == sorted(self.KEYS | self.TOKENS - borrowed)
        for value, line in spelled:
            assert lines["LOG_SCHEMA_VERSION"] < line <= lines["RECORD"], (value, line)

    def test_every_written_record_holds_the_declared_keys_and_replays(self):
        # The bundled suite in all three modes, and the benchmark's gen-dense
        # seed 1 in rco mode, imported as tests/test_bench_contract.py does.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen_dense

        bundled = ScriptedBackend.bundled()
        runs = [
            (Scenario.load(str(path)), mode, bundled, Overrides())
            for mode in Mode for path in sorted(bundled_scenario_dir().glob("*.json"))
        ]
        scenarios, table = gen_dense.generate(1)
        runs += [
            (Scenario.from_json(sc), Mode.RCO, ScriptedBackend(table), Overrides(n_max=1))
            for sc in scenarios
        ]
        written = {key: set() for key in (KEY.source, KEY.classification, KEY.verdict)}
        for run in runs:
            for record in run_episode(*run).records:
                assert list(record) == list(RECORD)
                orchestrator.read_record(json.loads(orchestrator.record_line(record)))
                for key, seen in written.items():
                    seen.add((record[KEY.active], record[key]))
        # Base and active records were both read: a base-agent line writes the
        # base value, and active lines write tokens of the vocabulary, every
        # one but stop_wait, which these runs never reach (test_cli's held-stop
        # test writes it).
        for key, seen in written.items():
            _, vocabulary, base = RECORD[key]
            expected = {(False, base), *((True, t) for t in vocabulary if t != "stop_wait")}
            assert seen == expected, key


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
                assert len(state.sequence) <= cfg.planner.n_max
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
            condition, ratio = reference_classify(history, cfg.verifier)
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


def reference_padded_history(history, k):
    # The padding loop as it was, kept verbatim: one insert per missing frame.
    window = list(history[-k:])
    while len(window) < k:
        window.insert(0, window[0])
    return window


class TestPaddedHistory:
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 11])
    def test_equals_the_insert_loop(self, n):
        # Windows shorter than k, equal to it and longer than it.
        k = 5
        history = [object() for _ in range(n)]
        padded = _padded_history(history, k)
        assert len(padded) == k
        assert padded == reference_padded_history(history, k)  # object() compares by identity


# step as it was when the inconsistent-window denial and the mismatched-head
# denial each planned at their own site and a hold_plan flag told the fail-safe
# stop which ran, kept verbatim as the reference for the one denial rule.
def reference_step(
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
    hold_plan = False  # the fail-safe stop keeps this tick's new plan
    while True:
        waiting = trigger is not None
        if condition is None and (waiting or len(sequence) > 0):
            # Under an inconsistent window no condition can match this tick, so
            # replan once for the coming ticks and hold the fail-safe stop now.
            # The replan counter persists across ticks until a pair executes.
            denied.append(_WAIT_INCONSISTENT if waiting else sequence.pairs[0].condition.value)
            replans += 1
            if replans <= cfg.planner.replan_budget:
                sequence, trigger = _plan(env, history, backend, cfg)
                elapsed, rounds, hold_plan = 0, rounds + 1, True
            break
        # The stop pairs of a wait execute under either consistent
        # condition; a planned pair only under its own.
        if len(sequence) > 0 and (waiting or condition is sequence.pairs[0].condition):
            pair, sequence = sequence.pop_front()
            source = _PAIR
            break
        if waiting:
            if not (condition is trigger or elapsed >= cfg.planner.wait_cap):
                pair, source = STOP_PAIR, _STOP_WAIT
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


# The property's table: TEST_TABLE plus a move plan whose head guards the hazard
# and whose tail the quiet condition, an empty move plan (the planner's fallback
# wait), a wait of 0 and a wait longer than any generated cap, triggered by the
# hazard condition.
REFERENCE_TABLE = {
    "hazard_and_plan": {
        **TEST_TABLE["hazard_and_plan"],
        **{key: {"hazards": [], "strategy": "move"} for key in ("mixed", "empty")},
        **{key: {"hazards": [], "strategy": "stop_observe_move"} for key in ("wait0", "wait9")},
    },
    "short_term_motion": {
        **TEST_TABLE["short_term_motion"],
        "mixed": {"strategy": "move", "pairs": [pair_json(HAZ, "stop", "deceleration_to_zero"),
                                                pair_json(NO_HAZ)]},
        "empty": {"strategy": "move", "pairs": []},
        "wait0": {"strategy": "stop_observe_move", "wait": 0, "trigger": NO_HAZ},
        "wait9": {"strategy": "stop_observe_move", "wait": 9, "trigger": HAZ},
    },
    "safety_constraints": {},
}
# Each frame's front deficits. A change of count between two frames makes the
# window inconsistent until that break leaves it; a window of unchanged quiet or
# hazard frames is consistent, under or over the proximity bar.
FRAMES = {
    "quiet": [Box(0.45, 0.45, 0.5, 0.5)],
    "hazard": [Box(0.2, 0.2, 0.8, 0.7)],
    "two": [Box(0.45, 0.45, 0.5, 0.5), Box(0.1, 0.1, 0.15, 0.15)],
}
KEYS = [*REFERENCE_TABLE["short_term_motion"], "nope"]  # "nope": the unknown-key fallback
TICKS = st.lists(
    st.tuples(st.sampled_from(sorted(FRAMES)), st.sampled_from(KEYS)), min_size=1, max_size=24
)


class TestStepEqualsReference:
    @given(TICKS, st.integers(1, 3), st.integers(1, 5))
    # A wait past its stop pairs, then an inconsistent window; and a pending plan
    # denied on two inconsistent ticks in a row, the second past a budget of one.
    @example([("hazard", "wait0"), ("two", "move2")], 1, 5)
    @example([("quiet", "move2"), ("two", "cautious"), ("quiet", "cautious")], 1, 1)
    @settings(max_examples=150, deadline=None)
    def test_step_equals_the_two_site_loop(self, ticks, budget, cap):
        # Both loops run the same frames and keys, each carrying its own state;
        # every tick they emit the same action, record and next state.
        table = ScriptedBackend(REFERENCE_TABLE)
        new = old = engaged()
        history = []
        for tick, (frame, key) in enumerate(ticks):
            history = (history + [snapshot(tick=tick, front_deficits=FRAMES[frame])])[-5:]
            cfg = cfg_for(key, replan_budget=budget, wait_cap=cap)
            args = (history[-1], history, CALM, POSE, table, cfg)
            got, want = step(new, *args), reference_step(old, *args)
            assert (got.action, got.record, repr(got.state)) == (
                want.action, want.record, repr(want.state)
            )
            new, old = got.state, want.state
