"""Closed-loop episode semantics: handover, modes, scoring assembly."""

from __future__ import annotations

import inspect

import pytest
import test_simenv

from rco import metrics, orchestrator, runner, simenv
from rco.backend import ScriptedBackend
from rco.cli import bundled_scenario_dir
from rco.runner import STOP, Mode, Overrides, run_episode
from rco.simenv import Scenario, VehicleParams


def load(name: str) -> Scenario:
    return Scenario.load(str(bundled_scenario_dir() / f"{name}.json"))


def backend():
    return ScriptedBackend.bundled()


class TestHandover:
    def test_override_engages_only_while_deficit_present(self):
        sc = load("traffic_light_benign")  # mask window ends at tick 200
        out = run_episode(sc, Mode.RCO, backend())
        actives = [r["active"] for r in out.records]
        assert actives[0] is False  # light beyond camera range at start
        assert any(actives)
        first = actives.index(True)
        assert all(not a for a in actives[:first])
        # Base agent resumes after the deficit clears: the tail is inactive.
        last = len(actives) - 1 - actives[::-1].index(True)
        assert all(not a for a in actives[last + 1:])
        assert all(r["source"] == "base" for r in out.records if not r["active"])

    def test_base_agent_action_resumes_next_tick_after_release(self):
        sc = load("traffic_light_benign")
        out = run_episode(sc, Mode.RCO, backend())
        actives = [r["active"] for r in out.records]
        last_active = len(actives) - 1 - actives[::-1].index(True)
        resumed = out.records[last_active + 1]
        assert resumed["source"] == "base"
        assert resumed["action"]["throttle"] > 0.0

    def test_every_tick_has_a_record(self):
        sc = load("pedestrian_cross")
        out = run_episode(sc, Mode.RCO, backend())
        assert len(out.records) == round(out.result.game_time_s / 0.1)
        assert [r["tick"] for r in out.records] == list(range(len(out.records)))


class TestModes:
    def test_baseline_ticks_never_activate_override(self):
        out = run_episode(load("pedestrian_cross"), Mode.BASELINE, backend())
        assert all(not r["active"] for r in out.records)

    def test_always_stop_freezes_after_first_deficit(self):
        out = run_episode(load("pedestrian_cross"), Mode.ALWAYS_STOP, backend())
        assert out.result.rc == pytest.approx(0.0, abs=1.0)
        # braking action held for the entire remaining episode
        assert all(r["action"]["brake"] == 0.8 for r in out.records[1:])

    def test_rco_respects_step_limit_override(self):
        out = run_episode(load("traffic_light_benign"), Mode.RCO, backend(), Overrides(n_max=2))
        assert max(r["sequence_len"] for r in out.records) <= 2


class TestPolicies:
    def test_one_policy_per_mode(self):
        assert set(runner.POLICIES) == set(Mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_each_policy_is_a_generator_function(self, mode):
        assert inspect.isgeneratorfunction(runner.POLICIES[mode])

    def test_always_stop_halts_for_good_and_stops_looking(self, monkeypatch):
        halt = test_simenv.TestModeWork.HALT_TICK
        sc = load("stop_sign_hazard")
        perceived = []
        perceive = simenv.perceive

        def recording_perceive(w, deficits):
            perceived.append(w.tick)
            return perceive(w, deficits)

        monkeypatch.setattr(simenv, "perceive", recording_perceive)
        cfg = Overrides().orchestrator_config(sc.name, VehicleParams().dt)
        act = runner._always_stop(sc.deficit_policy, backend(), cfg)
        next(act)
        w = simenv.world_from_scenario(sc, VehicleParams())
        actions = []
        for _ in range(halt + 50):
            action, record = act.send(w)
            assert record == orchestrator.base_record(w.tick, action)
            actions.append(action)
            w = simenv.tick(w, action)
        assert actions.index(STOP) == halt
        assert actions[halt:] == [STOP] * 50
        assert perceived == list(range(halt + 1))


class TestPlanAheadEconomy:
    def test_planning_events_sparse_on_smoke_scenario(self):
        out = run_episode(load("traffic_light_benign"), Mode.RCO, backend())
        ticks = len(out.records)
        plans = sum(r["planning_events"] for r in out.records)
        assert plans < 0.2 * ticks

    def test_backend_calls_bounded_by_planning_rounds(self):
        # Two calls per planning round plus one per constraint refresh.
        out = run_episode(load("traffic_light_benign"), Mode.RCO, backend())
        calls = sum(r["backend_calls"] for r in out.records)
        plans = sum(r["planning_events"] for r in out.records)
        refreshes = sum(1 for r in out.records if r["sc_refreshed"])
        assert calls == 2 * plans + refreshes

    def test_sequence_length_monotone_between_planning_events(self):
        out = run_episode(load("traffic_light_benign"), Mode.RCO, backend())
        prev_len = 0
        for r in out.records:
            if not r["active"]:
                prev_len = 0
                continue
            if r["planning_events"] == 0 and r["source"] == "pair" and r["sequence_len"]:
                assert r["sequence_len"] <= max(prev_len - 1, 0) or prev_len == 0
            prev_len = r["sequence_len"]


class TestScoring:
    def test_game_time_matches_ticks(self):
        out = run_episode(load("pedestrian_cross"), Mode.BASELINE, backend())
        assert out.result.game_time_s == pytest.approx(len(out.records) * 0.1)

    def test_average_speed_uses_route_length_over_game_time(self):
        sc = load("pedestrian_cross")
        out = run_episode(sc, Mode.BASELINE, backend())
        assert out.result.as_speed == pytest.approx(
            sc.route.length / out.result.game_time_s
        )

    def test_infractions_attached_to_result(self):
        out = run_episode(load("pedestrian_cross"), Mode.BASELINE, backend())
        assert out.result.is_score == pytest.approx(0.5)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_route_completion_equals_trajectory_scoring(self, mode, monkeypatch):
        # RC is read from the ego progress each tick computes; it must equal,
        # bit for bit, the RC of the trajectory scored point by point.
        sc = load("stop_sign_hazard")
        trajectory = [sc.route.waypoints[0]]
        real_tick = simenv.tick

        def recording_tick(w, a):
            w_next = real_tick(w, a)
            trajectory.append((w_next.ego.x, w_next.ego.y))
            return w_next

        monkeypatch.setattr(simenv, "tick", recording_tick)
        out = run_episode(sc, mode, backend())
        assert len(trajectory) == len(out.records) + 1
        assert out.result.rc == metrics.route_completion(sc.route, trajectory)

    def test_episode_is_deterministic(self):
        sc = load("stop_sign_hazard")
        a = run_episode(sc, Mode.RCO, backend())
        b = run_episode(sc, Mode.RCO, backend())
        assert a.result == b.result
        assert a.records == b.records
