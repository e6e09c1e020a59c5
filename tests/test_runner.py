"""Closed-loop episode semantics: handover, modes, scoring assembly."""

from __future__ import annotations

import functools
import inspect
import json
import math

import pytest
import test_simenv

from rco import backend as backend_mod
from rco import controlmap, metrics, orchestrator, planner, runner, simenv, verifier
from rco.backend import ScriptedBackend
from rco.cli import bundled_scenario_dir
from rco.domain import Strategy
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

    def test_a_deficit_at_tick_zero_engages_from_rest(self):
        # traffic_light_hazard with its masked light 30 m ahead, in view on
        # tick 0, a plan that opens with acceleration and a yaw-rate limit of
        # 1e-9 rad/s. The first override tick then reads the starting state:
        # the previous throttle is 0, so acceleration gives 0.2, and the ego's
        # yaw rate is exactly 0, so even that limit does not fire.
        scenario = json.loads((bundled_scenario_dir() / "traffic_light_hazard.json").read_text())
        scenario["traffic_lights"][0].update(position=[30, 3.5], stop_line_s=30)
        table = backend().table
        table["short_term_motion"]["traffic_light_hazard"]["pairs"][0]["speed"] = "acceleration"
        table["safety_constraints"]["traffic_light_hazard"]["psi_max"] = 1e-9
        out = run_episode(Scenario.from_json(scenario), Mode.RCO, ScriptedBackend(table))
        assert out.records[0] == {
            "schema": 1, "tick": 0, "active": True,
            "classification": "consistent_no_immediate_hazard",
            "hazard_ratio": 0.0009595096528017758, "verdict": "execute", "source": "pair",
            "action": {"throttle": 0.2, "brake": 0.0, "steer": 0.0},
            "triggered_constraints": [], "planning_events": 1, "backend_calls": 3,
            "sc_refreshed": True, "denied": [], "direction_mismatch": False,
            "sequence_len": 4, "wait_elapsed": 0,
        }


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

    def test_history_len_one_keeps_the_verifiers_two_frames(self, monkeypatch):
        # --history-len 1 gives the planner a window of 1 frame and the
        # verifier, whose floor is 2, a window of 2. The rco policy keeps the
        # frames of the longer window, so once two exist the verifier judges two.
        cfg = Overrides(history_len=1).orchestrator_config("probe", 0.1)
        assert (cfg.planner.history_len, cfg.verifier.history_len) == (1, 2)
        judged, asked = [], []
        extend_run, hazard_request = verifier._extend_run, backend_mod.hazard_request

        def judging(window, *args):
            judged.append((window[-1].tick, len(window)))
            return extend_run(window, *args)

        def asking(history, *args):
            asked.append(len(history))
            return hazard_request(history, *args)

        monkeypatch.setattr(verifier, "_extend_run", judging)
        monkeypatch.setattr(backend_mod, "hazard_request", asking)
        run_episode(load("traffic_light_benign"), Mode.RCO, backend(), Overrides(history_len=1))
        assert judged and all(tick >= 1 for tick, _ in judged)
        assert {n for _, n in judged} == {2}
        assert asked and set(asked) == {1}


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


def spy_on(monkeypatch, seen, module, name, holds):
    """Wrap ``module.name`` so that each call appends ``holds(*args)`` to ``seen[name]``."""
    real = getattr(module, name)

    def spying(*args, **kwargs):
        seen.setdefault(name, []).append(holds(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spying)


def steers_in_domain(pose, target, prev_error, dt, *args, **kwargs):
    """compute_steer's assumption: a positive dt and a target off the ego."""
    return dt > 0.0 and tuple(target) != pose[:2]


class TestCalleePreconditions:
    def test_the_bundled_rco_suite_gives_each_callee_what_it_assumes(self, monkeypatch):
        # These callees do not check their arguments: the rco loop that calls
        # them guarantees what they assume. Spy on every call of the bundled
        # suite and check each call's arguments against that assumption.
        seen: dict[str, list[bool]] = {}
        tick = [None]  # the tick of the step in progress
        spy = functools.partial(spy_on, monkeypatch, seen)

        def engaged(state, env, *args):
            tick[0] = env.tick
            return state.active

        def increasing_to_now(history, *args):
            ticks = [s.tick for s in history]
            return bool(ticks) and ticks[-1] == tick[0] and all(
                a < b for a, b in zip(ticks, ticks[1:])
            )

        spy(orchestrator, "step", engaged)
        spy(verifier, "classify", increasing_to_now)
        spy(planner, "infer_hazards", lambda history, backend, cfg, *args: (
            len(history) == cfg.history_len
        ))
        spy(planner, "expand_stop_observe_move", lambda plan, *args: (
            plan.strategy is Strategy.STOP_OBSERVE_MOVE
        ))
        spy(simenv, "detect_infractions", lambda w_prev, w_next: w_next.tick == w_prev.tick + 1)
        spy(controlmap, "map_speed_control", lambda speed, prev_throttle: (
            0.0 <= prev_throttle <= 1.0
        ))
        for module in (controlmap, simenv):  # the override's steering and the base agent's
            spy(module, "compute_steer", steers_in_domain)

        for path in sorted(bundled_scenario_dir().glob("*.json")):
            result = run_episode(Scenario.load(str(path)), Mode.RCO, backend()).result
            assert 0.0 <= result.rc <= 100.0 and 0.0 <= result.is_score <= 1.0, path.name
            assert result.game_time_s > 0.0, path.name

        assert sorted(seen) == sorted([
            "step", "classify", "infer_hazards", "expand_stop_observe_move",
            "detect_infractions", "map_speed_control", "compute_steer",
        ])
        for name, holds in seen.items():
            assert all(holds), f"{name}: {holds.count(False)} of {len(holds)} calls"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_world_loop_gives_its_callees_what_they_assume_in_every_mode(
        self, mode, monkeypatch
    ):
        # The world loop, whatever the policy, guarantees these: the episode
        # ends before the base agent drives at the route end, infractions are
        # read from consecutive states, and the base agent steers with a
        # positive dt toward a target off the ego.
        seen: dict[str, list[bool]] = {}
        spy = functools.partial(spy_on, monkeypatch, seen)
        spy(simenv, "base_agent", lambda w, *args: w.ego_progress < w.scenario.route.length)
        spy(simenv, "detect_infractions", lambda w_prev, w_next: w_next.tick == w_prev.tick + 1)
        spy(simenv, "compute_steer", steers_in_domain)

        for path in sorted(bundled_scenario_dir().glob("*.json")):
            result = run_episode(Scenario.load(str(path)), mode, backend()).result
            assert 0.0 <= result.rc <= 100.0 and 0.0 <= result.is_score <= 1.0, path.name
            assert result.game_time_s > 0.0, path.name

        assert sorted(seen) == ["base_agent", "compute_steer", "detect_infractions"]
        for name, holds in seen.items():
            assert all(holds), f"{name}: {holds.count(False)} of {len(holds)} calls"

    def test_every_request_of_the_bundled_rco_suite_carries_its_scenario_key(
        self, monkeypatch
    ):
        # BackendRequest.scenario_key reads the key without a fallback: every
        # request the override builds routes by the name of its own scenario.
        keys: list = []
        real = ScriptedBackend.call
        monkeypatch.setattr(
            ScriptedBackend, "call", lambda self, req: keys.append(req.scenario_key()) or real(self, req)
        )
        for path in sorted(bundled_scenario_dir().glob("*.json")):
            sc = Scenario.load(str(path))
            keys.clear()
            run_episode(sc, Mode.RCO, backend())
            assert keys and set(keys) == {sc.name}, path.name


def one_tick_limit(d: dict) -> None:
    d["time_limit_ticks"] = 1


def one_centimetre_route(d: dict) -> None:
    (x0, y0), (x1, y1) = d["route"]["waypoints"][:2]
    scale = 0.01 / math.hypot(x1 - x0, y1 - y0)
    d["route"] = {
        "waypoints": [[x0, y0], [x0 + (x1 - x0) * scale, y0 + (y1 - y0) * scale]],
        "geometry": d["route"]["geometry"][:1],
    }


class TestEveryEpisodeRunsATick:
    # average_speed divides by the game time unchecked. A scenario's time limit
    # is at least one tick and its route, which the ego starts on, is longer
    # than 0 m, so the world loop runs at least one tick.
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("shorten", [one_tick_limit, one_centimetre_route])
    def test_the_shortest_episodes_have_positive_game_time(self, shorten, mode):
        d = json.loads((bundled_scenario_dir() / "pedestrian_cross.json").read_text())
        shorten(d)
        out = run_episode(Scenario.from_json(d), mode, backend())
        dt = VehicleParams().dt
        assert len(out.records) >= 1
        assert out.result.game_time_s == len(out.records) * dt
        assert out.result.as_speed == Scenario.from_json(d).route.length / out.result.game_time_s
        if shorten is one_tick_limit:
            assert len(out.records) == 1


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

    def test_zero_penalty_is_accepted_and_zeroes_the_score(self):
        # The light turns red too late for the base agent to stop, and no
        # deficit hides it, so the red light counts against IS.
        data = json.loads((bundled_scenario_dir() / "traffic_light_hazard.json").read_text())
        data["deficit_policy"] = {"classes": [], "window": [0, 0]}
        data["traffic_lights"][0]["schedule"] = [[0, "green"], [106, "red"]]
        sc = Scenario.from_json(data)
        counted = run_episode(sc, Mode.BASELINE, backend())
        assert [e.kind for e in counted.result.infractions] == [simenv.InfractionKind.RED_LIGHT]
        assert counted.result.is_score == pytest.approx(0.7)
        zeroed = run_episode(sc, Mode.BASELINE, backend(), Overrides(penalties={"red_light": 0.0}))
        assert zeroed.result.is_score == 0.0

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
