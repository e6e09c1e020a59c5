"""World dynamics, symbolic perception with deficit injection, infractions."""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rco
from rco import simenv
from rco.backend import ScriptedBackend
from rco.cli import bundled_scenario_dir
from rco.domain import (
    VIEW_ORDER,
    Action,
    Box,
    CameraView,
    EnvironmentSnapshot,
    Navigation,
    ObjectClass,
    RoadGeometry,
    Surrounding,
    ViewName,
    VisibleObject,
)
from rco.runner import STOP, Mode, Overrides, run_episode
from rco.simenv import (
    Actor,
    DeficitPolicy,
    InfractionKind,
    LightState,
    Route,
    Scenario,
    StopSign,
    TrafficLight,
    VehicleParams,
    WorldState,
    base_agent,
    detect_infractions,
    masked_ids,
    measurements,
    perceive,
    tick,
    world_from_scenario,
)

PARAMS = VehicleParams()


def straight_scenario(
    length=100.0,
    actors=(),
    lights=(),
    signs=(),
    policy=DeficitPolicy(),
    limit=600,
):
    return Scenario(
        name="test",
        route=Route(((0.0, 0.0), (length, 0.0)), (RoadGeometry.STRAIGHT,)),
        actors=tuple(actors),
        lights=tuple(lights),
        signs=tuple(signs),
        deficit_policy=policy,
        time_limit_ticks=limit,
    )


def standing(cls, x, y, actor_id=1):
    return Actor(id=actor_id, cls=cls, script=((0.0, x, y),))


class TestDynamics:
    def test_braking_monotone_to_zero_never_negative(self):
        w = world_from_scenario(straight_scenario())
        w = replace(w, ego=replace(w.ego, v=5.0))
        prev_v = w.ego.v
        for _ in range(100):
            w = tick(w, Action(0.0, 1.0, 0.0))
            assert w.ego.v <= prev_v
            assert w.ego.v >= 0.0
            prev_v = w.ego.v
        assert w.ego.v == 0.0

    def test_zero_steer_keeps_straight_line(self):
        w = world_from_scenario(straight_scenario())
        for _ in range(200):
            w = tick(w, Action(0.7, 0.0, 0.0))
        assert w.ego.y == pytest.approx(0.0, abs=1e-12)
        assert w.ego.heading == pytest.approx(0.0, abs=1e-12)

    def test_terminal_speed_closed_form(self):
        # Fixed point of the speed update: v* = k_throttle * throttle / drag.
        w = world_from_scenario(straight_scenario(length=10_000.0))
        for _ in range(2000):
            w = tick(w, Action(0.7, 0.0, 0.0))
        assert w.ego.v == pytest.approx(simenv.K_THROTTLE * 0.7 / simenv.DRAG, abs=1e-6)
        assert w.ego.v == pytest.approx(8.4, abs=1e-6)

    def test_left_steer_turns_left(self):
        w = world_from_scenario(straight_scenario())
        for _ in range(30):
            w = tick(w, Action(0.7, 0.0, -0.5))
        assert w.ego.heading > 0.0  # CCW
        assert w.ego.y > 0.0

    @given(
        throttle=st.floats(0, 1, allow_nan=False),
        brake=st.floats(0, 1, allow_nan=False),
        steer=st.floats(-1, 1, allow_nan=False),
        v0=st.floats(0, 20, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_heading_change_bounded_by_geometry(self, throttle, brake, steer, v0):
        w = world_from_scenario(straight_scenario())
        w = replace(w, ego=replace(w.ego, v=v0))
        w2 = tick(w, Action(throttle, brake, steer))
        bound = (w2.ego.v * PARAMS.dt / simenv.WHEELBASE) * math.tan(simenv.MAX_WHEEL_ANGLE)
        assert abs(w2.ego.heading - w.ego.heading) <= bound + 1e-12
        assert w2.ego.v >= 0.0

    def test_determinism_bit_identical(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 50, 4.0)])
        def run():
            w = world_from_scenario(sc)
            states = []
            for i in range(300):
                w = tick(w, Action(0.7, 0.0, 0.01 if i % 7 else -0.02))
                states.append((w.ego.x, w.ego.y, w.ego.heading, w.ego.v))
            return states
        assert run() == run()


class TestActors:
    def test_script_interpolation(self):
        a = Actor(id=1, cls=ObjectClass.PEDESTRIAN, script=((0.0, 0.0, 0.0), (10.0, 10.0, 0.0)))
        x, y, heading = a.state_at(5.0)
        assert (x, y) == (5.0, 0.0)
        assert heading == pytest.approx(0.0)

    def test_script_clamps_at_ends(self):
        a = Actor(id=1, cls=ObjectClass.CAR, script=((1.0, 2.0, 3.0), (2.0, 4.0, 3.0)))
        assert a.state_at(0.0)[:2] == (2.0, 3.0)
        assert a.state_at(99.0)[:2] == (4.0, 3.0)

    def test_monotone_script_required(self):
        with pytest.raises(ValueError):
            Actor(id=1, cls=ObjectClass.CAR, script=((2.0, 0, 0), (1.0, 1, 1)))


class TestPerception:
    def test_masked_signal_becomes_deficit(self):
        sc = straight_scenario(
            lights=[TrafficLight(10, (15.0, 0.5), 15.0, ((0, LightState.RED),))],
            policy=DeficitPolicy(frozenset({ObjectClass.TRAFFIC_LIGHT}), (0, 100)),
        )
        w = world_from_scenario(sc)
        snap = perceive(w, sc.deficit_policy)
        front = snap.view(ViewName.FRONT)
        assert all(o.cls is not ObjectClass.TRAFFIC_LIGHT for o in front.visible_objects)
        assert len(front.deficits) == 1
        # The deficit is the box the light would have been drawn in.
        unmasked = perceive(w, DeficitPolicy()).view(ViewName.FRONT)
        assert [o.box for o in unmasked.visible_objects] == list(front.deficits)

    def test_empty_policy_shows_everything(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 15.0, 0.5)])
        snap = perceive(world_from_scenario(sc), DeficitPolicy())
        front = snap.view(ViewName.FRONT)
        assert [o.cls for o in front.visible_objects] == [ObjectClass.PEDESTRIAN]
        assert front.deficits == ()

    def test_object_behind_is_absent_everywhere(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, -10.0, 0.0)])
        snap = perceive(world_from_scenario(sc), DeficitPolicy())
        assert all(not v.visible_objects and not v.deficits for v in snap.perception)

    def test_object_beyond_range_is_absent(self):
        sc = straight_scenario(actors=[standing(ObjectClass.CAR, 60.0, 0.0)])
        snap = perceive(world_from_scenario(sc), DeficitPolicy())
        assert all(not v.visible_objects for v in snap.perception)

    def test_side_objects_land_in_side_views(self):
        sc = straight_scenario(
            actors=[
                standing(ObjectClass.CAR, 5.0, 8.0, actor_id=1),   # left
                standing(ObjectClass.CAR, 5.0, -8.0, actor_id=2),  # right
            ]
        )
        snap = perceive(world_from_scenario(sc), DeficitPolicy())
        assert len(snap.view(ViewName.LEFT).visible_objects) == 1
        assert len(snap.view(ViewName.RIGHT).visible_objects) == 1
        assert not snap.view(ViewName.FRONT).visible_objects

    def test_nearer_objects_have_larger_boxes(self):
        near = straight_scenario(actors=[standing(ObjectClass.CAR, 8.0, 0.0)])
        far = straight_scenario(actors=[standing(ObjectClass.CAR, 30.0, 0.0)])
        near_box = perceive(world_from_scenario(near), DeficitPolicy()).view(ViewName.FRONT).visible_objects[0]
        far_box = perceive(world_from_scenario(far), DeficitPolicy()).view(ViewName.FRONT).visible_objects[0]
        assert near_box.box.area > far_box.box.area
        assert near_box.range_m < far_box.range_m

    def test_masking_does_not_touch_dynamics(self):
        policy = DeficitPolicy(frozenset({ObjectClass.PEDESTRIAN}), (0, 100))
        sc_masked = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 20, 0.5)], policy=policy)
        w1 = world_from_scenario(sc_masked)
        w2 = world_from_scenario(sc_masked)
        perceive(w1, policy)
        a = Action(0.6, 0.0, 0.1)
        assert tick(w1, a).ego == tick(w2, a).ego

    def test_window_controls_masking(self):
        policy = DeficitPolicy(frozenset({ObjectClass.PEDESTRIAN}), (5, 10))
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 15, 0.5)], policy=policy)
        w = world_from_scenario(sc)
        assert not masked_ids(w, policy)  # tick 0: window not active yet
        w5 = replace(w, tick=5)
        assert masked_ids(w5, policy) == frozenset({1})
        w10 = replace(w, tick=10)
        assert not masked_ids(w10, policy)

    def test_policy_rejects_non_critical_classes(self):
        with pytest.raises(ValueError):
            DeficitPolicy(frozenset({ObjectClass.CAR}), (0, 10))

    def test_navi_and_surrounding_filled(self):
        sc = straight_scenario(actors=[standing(ObjectClass.CAR, 12.0, 0.0)])
        snap = perceive(world_from_scenario(sc), DeficitPolicy())
        assert snap.navi.road_geometry is RoadGeometry.STRAIGHT
        assert snap.navi.target_point[0] == pytest.approx(8.0)
        assert snap.surrounding.nearest_obstacle_m == pytest.approx(12.0)


class TestMeasurements:
    def test_lead_vehicle_gap(self):
        sc = straight_scenario(actors=[standing(ObjectClass.CAR, 14.0, 0.2)])
        m = measurements(world_from_scenario(sc))
        assert m.d_follow == pytest.approx(14.0)

    def test_no_lead_vehicle_is_infinity(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 14.0, 0.0)])
        assert math.isinf(measurements(world_from_scenario(sc)).d_follow)

    def test_off_corridor_vehicle_ignored(self):
        sc = straight_scenario(actors=[standing(ObjectClass.CAR, 14.0, 5.0)])
        assert math.isinf(measurements(world_from_scenario(sc)).d_follow)


class TestInfractions:
    def drive_to_collision(self, sc):
        w = world_from_scenario(sc)
        events = []
        for _ in range(sc.time_limit_ticks):
            w2 = tick(w, Action(0.8, 0.0, 0.0))
            events += detect_infractions(w, w2)
            w = w2
            if w.ego_progress >= sc.route.length:
                break
        return events

    def test_pedestrian_overlap_is_one_event(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 30.0, 0.0)])
        events = self.drive_to_collision(sc)
        assert [e.kind for e in events] == [InfractionKind.COLLISION_PEDESTRIAN]
        assert events[0].actor_id == 1

    def test_vehicle_and_static_kinds(self):
        sc = straight_scenario(
            actors=[Actor(id=1, cls=ObjectClass.CAR, script=((0.0, 30.0, 0.0),), static=True)]
        )
        assert [e.kind for e in self.drive_to_collision(sc)] == [InfractionKind.COLLISION_STATIC]
        sc2 = straight_scenario(actors=[standing(ObjectClass.BICYCLE, 30.0, 0.0)])
        assert [e.kind for e in self.drive_to_collision(sc2)] == [InfractionKind.COLLISION_VEHICLE]

    def test_green_light_crossing_is_clean(self):
        sc = straight_scenario(lights=[TrafficLight(10, (30.0, 3.0), 30.0, ((0, LightState.GREEN),))])
        assert self.drive_to_collision(sc) == []

    def test_red_light_crossing_detected_once(self):
        sc = straight_scenario(lights=[TrafficLight(10, (30.0, 3.0), 30.0, ((0, LightState.RED),))])
        events = self.drive_to_collision(sc)
        assert [e.kind for e in events] == [InfractionKind.RED_LIGHT]

    def test_rolling_a_stop_sign(self):
        sc = straight_scenario(signs=[StopSign(20, (30.0, 3.0), 30.0)])
        events = self.drive_to_collision(sc)
        assert [e.kind for e in events] == [InfractionKind.STOP_SIGN]

    def test_stopping_in_zone_satisfies_sign(self):
        sc = straight_scenario(signs=[StopSign(20, (30.0, 3.0), 30.0)])
        w = world_from_scenario(sc)
        events = []
        for _ in range(1000):
            # Brake hard inside the approach zone, then proceed.
            in_zone = 25.0 <= w.ego_progress <= 30.0
            satisfied = 20 in w.sign_satisfied
            action = Action(0.0, 0.8, 0.0) if (in_zone and not satisfied) else Action(0.6, 0.0, 0.0)
            w2 = tick(w, action)
            events += detect_infractions(w, w2)
            w = w2
            if w.ego_progress >= sc.route.length:
                break
        assert events == []

    def test_separate_overlap_episodes_yield_separate_events(self):
        # A pedestrian that crosses the ego's path twice while the ego is
        # stopped: each contiguous overlap is one event.
        ped = Actor(
            id=1,
            cls=ObjectClass.PEDESTRIAN,
            script=(
                (0.0, 1.0, -8.0),
                (2.0, 1.0, 8.0),   # first pass through the ego footprint
                (4.0, 1.0, -8.0),  # second pass
            ),
        )
        sc = straight_scenario(actors=[ped])
        w = world_from_scenario(sc)
        events = []
        for _ in range(60):
            w2 = tick(w, Action(0.0, 0.0, 0.0))
            events += detect_infractions(w, w2)
            w = w2
        assert [e.kind for e in events] == [InfractionKind.COLLISION_PEDESTRIAN] * 2

    def test_consecutive_states_required(self):
        w = world_from_scenario(straight_scenario())
        with pytest.raises(ValueError):
            detect_infractions(w, w)


class TestBaseAgent:
    def test_clear_road_cruises(self):
        w = world_from_scenario(straight_scenario())
        action = base_agent(w)
        assert (action.throttle, action.brake) == (0.7, 0.0)
        assert abs(action.steer) < 1e-9

    def test_brakes_for_visible_pedestrian_in_corridor(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 8.0, 0.5)])
        action = base_agent(world_from_scenario(sc))
        assert action == Action(0.0, 0.8, 0.0)

    def test_ignores_masked_pedestrian(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 8.0, 0.5)])
        w = world_from_scenario(sc)
        action = base_agent(w, hidden=frozenset({1}))
        assert (action.throttle, action.brake) == (0.7, 0.0)

    def test_brakes_for_visible_red_light(self):
        sc = straight_scenario(lights=[TrafficLight(10, (8.0, 3.0), 8.0, ((0, LightState.RED),))])
        assert base_agent(world_from_scenario(sc)).brake == pytest.approx(0.8)

    def test_proceeds_on_green(self):
        sc = straight_scenario(lights=[TrafficLight(10, (8.0, 3.0), 8.0, ((0, LightState.GREEN),))])
        assert base_agent(world_from_scenario(sc)).throttle == pytest.approx(0.7)

    def test_pedestrian_off_corridor_ignored(self):
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 8.0, 5.0)])
        assert base_agent(world_from_scenario(sc)).throttle == pytest.approx(0.7)

    @pytest.mark.parametrize("offset,brakes", [(3.0, True), (3.01, False)])
    def test_corridor_edge_is_inclusive(self, offset, brakes):
        # 8 m ahead, on either side of the 3.0 m corridor half-width.
        sc = straight_scenario(actors=[standing(ObjectClass.PEDESTRIAN, 8.0, offset)])
        assert (base_agent(world_from_scenario(sc)) == Action(0.0, 0.8, 0.0)) is brakes


def bundled_dict(name: str) -> dict:
    return json.loads((bundled_scenario_dir() / f"{name}.json").read_text(encoding="utf-8"))


class TestScenarioIO:
    def test_unread_seed_key_is_ignored(self):
        # Generated scenario files still carry a "seed" key; nothing reads it.
        d = bundled_dict("pedestrian_cross")
        assert Scenario.from_json({**d, "seed": 3}) == Scenario.from_json(d)

    def test_unknown_actor_class_rejected(self):
        # ObjectClass.UNKNOWN is for hazard inference only: it has no
        # footprint, so the collision check could not place it.
        d = bundled_dict("pedestrian_cross")
        d["actors"][0]["class"] = "unknown"
        with pytest.raises(ValueError, match="class 'unknown' has no footprint"):
            Scenario.from_json(d)

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            straight_scenario(
                actors=[standing(ObjectClass.PEDESTRIAN, 10, 0, actor_id=7)],
                signs=[StopSign(7, (20.0, 3.0), 20.0)],
            )

    def test_route_validation(self):
        with pytest.raises(ValueError):
            Route(((0.0, 0.0),), ())
        with pytest.raises(ValueError):
            Route(((0.0, 0.0), (1.0, 0.0)), ())

    def test_duplicate_light_start_rejected(self):
        # ``state_at`` takes the last entry whose start has passed, in list order.
        schedule = ((0, LightState.RED), (0, LightState.GREEN))
        with pytest.raises(ValueError, match="strictly increasing"):
            TrafficLight(10, (30.0, 3.0), 30.0, schedule)

    @pytest.mark.parametrize("first_start", [50, -5])
    def test_schedule_must_start_at_tick_zero(self, first_start):
        # The first entry's state holds from tick 0 on, so a later first
        # start would apply that state early.
        schedule = ((first_start, LightState.RED), (80, LightState.GREEN))
        with pytest.raises(ValueError, match="start at tick 0"):
            TrafficLight(10, (30.0, 3.0), 30.0, schedule)

    @pytest.mark.parametrize("end", [(0.0, 0.0), (0.0, 1e-200)])
    def test_zero_length_segment_rejected(self, end):
        # 1e-200 squared underflows to 0, which progress_of would divide by.
        with pytest.raises(ValueError):
            Route(((0.0, 0.0), end), (RoadGeometry.STRAIGHT,))


class TestRouteGeometry:
    def test_progress_projection(self):
        r = Route(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),
                  (RoadGeometry.STRAIGHT, RoadGeometry.LEFT_CURVE))
        assert r.length == pytest.approx(20.0)
        assert r.progress_of((5.0, 1.0)) == pytest.approx(5.0)
        assert r.progress_of((10.0, 5.0)) == pytest.approx(15.0)
        assert r.progress_of((100.0, 100.0)) == pytest.approx(20.0)

    def test_geometry_at(self):
        r = Route(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)),
                  (RoadGeometry.STRAIGHT, RoadGeometry.LEFT_CURVE))
        assert r.geometry_at(3.0) is RoadGeometry.STRAIGHT
        assert r.geometry_at(15.0) is RoadGeometry.LEFT_CURVE


class TestDeficitWindow:
    @pytest.mark.parametrize(
        "window", [(5,), (10, 5), (-1, 5), (0.0, 5), (0, "5"), (True, 5), (1, 2, 3), [0, 5]]
    )
    def test_malformed_window_rejected(self, window):
        with pytest.raises(ValueError):
            DeficitPolicy(frozenset({ObjectClass.PEDESTRIAN}), window)

    def test_empty_window_never_masks(self):
        policy = DeficitPolicy(frozenset({ObjectClass.PEDESTRIAN}), (5, 5))
        assert not any(policy.active(t) for t in range(10))

    @pytest.mark.parametrize("window", [[5.0, 12], [5, "12"], [True, 12], [0.9, 150]])
    def test_from_json_rejects_non_integer_window(self, window):
        # A tick is a JSON integer; a float, a string or a bool is rejected,
        # not coerced.
        d = bundled_dict("pedestrian_cross")
        d["deficit_policy"]["window"] = window
        with pytest.raises(TypeError, match="JSON int"):
            Scenario.from_json(d)

    @pytest.mark.parametrize("window", [[5], [150, 0]])
    def test_from_json_rejects_malformed_window(self, window):
        d = bundled_dict("pedestrian_cross")
        d["deficit_policy"]["window"] = window
        with pytest.raises(ValueError, match="deficit window"):
            Scenario.from_json(d)


class TestWorldCost:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_each_world_quantity_computed_once(self, monkeypatch, mode):
        # Over one bundled episode, every world state (ticks + 1 of them)
        # computes each actor's state and its collision set once.
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(Actor, "state_at", counting("state_at", Actor.state_at))
        monkeypatch.setattr(simenv, "_collisions", counting("collisions", simenv._collisions))
        sc = Scenario.load(str(bundled_scenario_dir() / "pedestrian_cross.json"))
        worlds = len(run_episode(sc, mode, ScriptedBackend.bundled()).records) + 1
        assert sc.actors
        assert calls == {
            "state_at": len(sc.actors) * worlds,
            "collisions": worlds,
        }

    @staticmethod
    def near_count(w):
        # Actors that pass the collision broad phase, counted afresh.
        near = 0
        for actor, x, y, _h in w.actor_states:
            length = simenv._CLASS_DIMS[actor.cls][0]
            near += length != 0.0 and math.hypot(x - w.ego.x, y - w.ego.y) <= length + simenv.EGO_LENGTH
        return near

    @staticmethod
    def count_footprints(monkeypatch):
        calls = Counter()
        obb_corners = simenv._obb_corners

        def counting(*args):
            calls["obb_corners"] += 1
            return obb_corners(*args)

        monkeypatch.setattr(simenv, "_obb_corners", counting)
        return calls

    @pytest.mark.parametrize("mode", list(Mode))
    def test_ego_footprint_built_only_when_an_actor_is_near(self, monkeypatch, mode):
        # Over one bundled episode, a footprint is built for each actor that
        # passes the broad phase, plus the ego's once per world state that
        # has such an actor. bicycle_oncoming brings the bicycle near in
        # every mode.
        worlds = []
        collisions = simenv._collisions
        monkeypatch.setattr(simenv, "_collisions", lambda w: worlds.append(w) or collisions(w))
        calls = self.count_footprints(monkeypatch)
        sc = Scenario.load(str(bundled_scenario_dir() / "bicycle_oncoming.json"))
        run_episode(sc, mode, ScriptedBackend.bundled())
        near = [self.near_count(w) for w in worlds]
        assert sum(near) > 0
        assert calls["obb_corners"] == sum(near) + sum(1 for n in near if n)

    @pytest.mark.parametrize("near", [0, 1, 2])
    def test_ego_footprint_built_once_per_state(self, monkeypatch, near):
        actors = [standing(ObjectClass.CAR, 3.0 + 2.0 * i, 0.0, actor_id=i) for i in range(near)]
        actors.append(standing(ObjectClass.CAR, 60.0, 0.0, actor_id=9))  # far
        # The collision set is built with the state, so counting starts before it.
        calls = self.count_footprints(monkeypatch)
        w = world_from_scenario(straight_scenario(actors=actors))
        assert self.near_count(w) == near
        hit = w.collisions
        assert calls["obb_corners"] == near + (near > 0)
        assert hit == fresh_collisions(w, w.actor_states)

    def test_no_class_defines_a_cached_property(self):
        """On CPython 3.11 the first read of a ``functools.cached_property``
        creates the instance ``__dict__``; from then on every attribute read
        on that instance leaves the specialised fast path
        (``LOAD_ATTR_WITH_HINT`` instead of the inline-values read), which
        slows each later read on the per-tick path. Derived values are
        fields set in ``__post_init__`` instead."""
        found = []
        for info in pkgutil.iter_modules(rco.__path__):
            module = importlib.import_module(f"rco.{info.name}")
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    found.extend(
                        f"{cls.__qualname__}.{name}"
                        for name, attr in vars(cls).items()
                        if isinstance(attr, functools.cached_property)
                    )
        assert found == []


class TestPerceiveCost:
    @pytest.mark.parametrize("mode", [Mode.ALWAYS_STOP, Mode.RCO])
    def test_each_in_range_object_projected_once(self, monkeypatch, mode):
        # Over one bundled episode, perceive projects each object within
        # camera range once per tick; the nearest obstacle is placed by the
        # same projection.
        calls = Counter()
        bearing, project = simenv._bearing, simenv._project

        def counting_bearing(*args):
            seen = bearing(*args)
            calls["in_range"] += seen is not None
            return seen

        def counting_project(*args):
            calls["project"] += 1
            return project(*args)

        monkeypatch.setattr(simenv, "_bearing", counting_bearing)
        monkeypatch.setattr(simenv, "_project", counting_project)
        sc = Scenario.load(str(bundled_scenario_dir() / "stop_sign_hazard.json"))
        run_episode(sc, mode, ScriptedBackend.bundled())
        assert sc.actors and sc.signs
        assert calls["in_range"] > 0
        assert calls["project"] == calls["in_range"]

    @pytest.fixture(scope="class")
    def gen_dense_episode(self):
        # The benchmark's generator, imported as tests/test_bench_contract.py does.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import gen_dense

        scenarios, table = gen_dense.generate(1)
        return Scenario.from_json(scenarios[0]), ScriptedBackend(table), Overrides(n_max=1)

    @pytest.mark.parametrize("episode", ["bundled", "gen-dense"])
    def test_camera_view_built_only_for_a_view_with_a_box(
        self, monkeypatch, gen_dense_episode, episode
    ):
        # An empty view is the shared constant; only a view that draws a
        # visible object or a deficit region is built.
        built = Counter()
        camera_view, perceive = simenv.CameraView, simenv.perceive

        def counting_camera_view(*args):
            built["views"] += 1
            return camera_view(*args)

        def counting_perceive(*args):
            snap = perceive(*args)
            built["calls"] += 1
            for v in snap.perception:
                if v.visible_objects or v.deficits:
                    built["with_a_box"] += 1
                else:
                    assert v == CameraView(v.view, (), ())
            return snap

        monkeypatch.setattr(simenv, "CameraView", counting_camera_view)
        monkeypatch.setattr(simenv, "perceive", counting_perceive)
        if episode == "bundled":
            sc = Scenario.load(str(bundled_scenario_dir() / "stop_sign_hazard.json"))
            run_episode(sc, Mode.RCO, ScriptedBackend.bundled())
        else:
            sc, backend, overrides = gen_dense_episode
            run_episode(sc, Mode.RCO, backend, overrides)
        assert 0 < built["with_a_box"] < 3 * built["calls"]
        assert built["views"] == built["with_a_box"]

    def test_each_empty_view_equals_a_fresh_one(self):
        assert list(simenv._EMPTY_VIEWS) == list(VIEW_ORDER)
        for name, v in simenv._EMPTY_VIEWS.items():
            assert v == CameraView(name, (), ())


# Perception as it was when it built all three views on every call, kept
# verbatim as the reference for the version that builds only what it draws.
_REFERENCE_VIEW_SPANS = {
    ViewName.LEFT: (math.radians(30.0), math.radians(90.0)),
    ViewName.FRONT: (math.radians(-30.0), math.radians(30.0)),
    ViewName.RIGHT: (math.radians(-90.0), math.radians(-30.0)),
}


def reference_bearing(ego, pos):
    dx, dy = pos[0] - ego.x, pos[1] - ego.y
    rng = math.hypot(dx, dy)
    if rng < 1e-6 or rng > simenv.CAMERA_RANGE:
        return None
    return rng, simenv.wrap_angle(math.atan2(dy, dx) - ego.heading)


def reference_project(rng, rel, width, height):
    for view, (lo, hi) in _REFERENCE_VIEW_SPANS.items():
        if lo <= rel <= hi:
            span = hi - lo
            u = (hi - rel) / span
            half_w = math.atan2(width / 2.0, rng) / span
            half_h = math.atan2(height / 2.0, rng) / simenv.FOV_V
            x0, x1 = simenv.clamp(u - half_w, 0.0, 1.0), simenv.clamp(u + half_w, 0.0, 1.0)
            y0, y1 = simenv.clamp(0.5 - half_h, 0.0, 1.0), simenv.clamp(0.5 + half_h, 0.0, 1.0)
            if x1 - x0 < 1e-9 or y1 - y0 < 1e-9:
                return view, None
            return view, Box(x0, y0, x1, y1)
    return None


def reference_masked_ids(w, policy):
    if not policy.active(w.tick):
        return frozenset()
    classes = policy.classes
    out = {a.id for a in w.scenario.actors if a.cls in classes}
    if ObjectClass.TRAFFIC_LIGHT in classes:
        out.update(l.id for l in w.scenario.lights)
    if ObjectClass.STOP_SIGN in classes:
        out.update(s.id for s in w.scenario.signs)
    return frozenset(out)


def reference_perceive(w, policy):
    hidden = reference_masked_ids(w, policy)
    per_view = {v: ([], []) for v in VIEW_ORDER}

    def add(obj_id, cls, pos):
        seen = reference_bearing(w.ego, pos)
        if seen is None:
            return None
        dims = simenv._CLASS_DIMS[cls]
        projected = reference_project(*seen, dims[2], dims[3])
        if projected is None:
            return None
        view, box = projected
        if box is not None:
            visibles, deficits = per_view[view]
            if obj_id in hidden:
                deficits.append(box)
            else:
                visibles.append(VisibleObject(cls, box, seen[0]))
        return seen[0], view

    nearest = None
    for actor, x, y, _h in w.actor_states:
        placed = add(actor.id, actor.cls, (x, y))
        if placed is not None and placed[1] is ViewName.FRONT:
            if nearest is None or placed[0] < nearest:
                nearest = placed[0]
    for light in w.scenario.lights:
        add(light.id, ObjectClass.TRAFFIC_LIGHT, light.position)
    for sign in w.scenario.signs:
        add(sign.id, ObjectClass.STOP_SIGN, sign.position)

    views = []
    for name in VIEW_ORDER:
        visibles, deficits = per_view[name]
        kept = tuple(
            o for o in visibles if not any(d.contains(o.box) for d in deficits)
        )
        views.append(CameraView(name, kept, tuple(deficits)))

    progress = w.ego_progress
    navi = Navigation(
        target_point=w.scenario.route.target_point(progress),
        road_geometry=w.scenario.route.geometry_at(progress),
    )
    surrounding = Surrounding(
        weather=w.scenario.weather,
        daylight=w.scenario.daylight,
        traffic_density=w.scenario.traffic_density,
        nearest_obstacle_m=nearest,
    )
    return EnvironmentSnapshot(
        tick=w.tick, perception=tuple(views), navi=navi, surrounding=surrounding
    )


# Bearings on and next to each view edge, and straight behind.
_EDGES = [math.radians(d) for d in (30.0, -30.0, 90.0, -90.0)]
_bearings = st.one_of(
    st.sampled_from(_EDGES + [math.nextafter(e, math.inf) for e in _EDGES]
                    + [math.nextafter(e, -math.inf) for e in _EDGES] + [math.pi]),
    st.floats(-math.pi, math.pi),
)
# Ranges inside, on and beyond the 40 m camera range, and below its 1e-6 floor.
_ranges = st.one_of(st.sampled_from([1e-7, 0.3, 40.0, 40.000001, 55.0]), st.floats(0.0, 50.0))


@st.composite
def scenes(draw):
    """A world state with objects of every class around the ego, and a
    deficit policy whose window is active or not at its tick."""
    ego = simenv.EgoState(draw(_coords), draw(_coords), draw(st.floats(-math.pi, math.pi)))

    def placed():
        rng, rel = draw(_ranges), draw(_bearings)
        bearing = ego.heading + rel
        return ego.x + rng * math.cos(bearing), ego.y + rng * math.sin(bearing)

    n_actors = draw(st.integers(0, 8))
    actor_classes = st.sampled_from(sorted(simenv._CLASS_DIMS))
    actors = [Actor(i, draw(actor_classes), ((0.0, *placed()),)) for i in range(n_actors)]
    lights = [TrafficLight(100 + i, placed(), 10.0) for i in range(draw(st.integers(0, 2)))]
    signs = [StopSign(200 + i, placed(), 10.0) for i in range(draw(st.integers(0, 2)))]
    tick_at = draw(st.integers(0, 20))
    start = draw(st.integers(0, 20))
    policy = DeficitPolicy(
        draw(st.frozensets(st.sampled_from(sorted(DeficitPolicy._ALLOWED)))),
        (start, start + draw(st.integers(0, 20))),
    )
    sc = straight_scenario(actors=actors, lights=lights, signs=signs, policy=policy)
    w = WorldState(tick_at, ego, sc, ego_progress=draw(st.floats(0.0, 100.0)))
    return w, policy


class TestPerceiveEqualsReference:
    @given(scene=scenes())
    @settings(max_examples=300, deadline=None)
    def test_snapshot_equals_reference(self, scene):
        w, policy = scene
        snap, expected = perceive(w, policy), reference_perceive(w, policy)
        assert snap == expected
        assert snap.has_deficit == any(v.deficits for v in expected.perception)
        assert snap.has_deficit == any(v.deficits for v in snap.perception)

    @given(rng=_ranges, rel=_bearings, cls=st.sampled_from(sorted(simenv._CLASS_DIMS)))
    @settings(max_examples=300, deadline=None)
    def test_projection_equals_reference(self, rng, rel, cls):
        # Bearings exactly on an edge land in the first view in VIEW_ORDER.
        dims = simenv._CLASS_DIMS[cls]
        args = (max(rng, 1e-6), rel, dims[2], dims[3])
        assert simenv._project(*args) == reference_project(*args)


class TestModeWork:
    """Each mode computes only what it reads. On bundled stop_sign_hazard the
    stop protocol halts at tick 45."""

    HALT_TICK = 45

    @pytest.fixture
    def run_counted(self, monkeypatch):
        # Calls the loop makes; perceive's own masked_ids call is not counted.
        calls = Counter()
        perceive, masked_ids, base_agent = simenv.perceive, simenv.masked_ids, simenv.base_agent

        def counting_perceive(*args):
            calls["perceive"] += 1
            calls["inside_perceive"] += 1
            try:
                return perceive(*args)
            finally:
                calls["inside_perceive"] -= 1

        def counting_masked_ids(*args):
            calls["masked_ids"] += not calls["inside_perceive"]
            return masked_ids(*args)

        def counting_base_agent(*args):
            calls["base_agent"] += 1
            return base_agent(*args)

        monkeypatch.setattr(simenv, "perceive", counting_perceive)
        monkeypatch.setattr(simenv, "masked_ids", counting_masked_ids)
        monkeypatch.setattr(simenv, "base_agent", counting_base_agent)
        sc = Scenario.load(str(bundled_scenario_dir() / "stop_sign_hazard.json"))

        def run(mode):
            calls.clear()
            out = run_episode(sc, mode, ScriptedBackend.bundled())
            return out, calls

        return run

    def test_baseline_never_perceives(self, run_counted):
        out, calls = run_counted(Mode.BASELINE)
        assert calls["perceive"] == 0
        assert calls["masked_ids"] == calls["base_agent"] == len(out.records)

    def test_always_stop_perceives_until_the_halt(self, run_counted):
        out, calls = run_counted(Mode.ALWAYS_STOP)
        stop = STOP.to_json()
        assert [r["action"] == stop for r in out.records].index(True) == self.HALT_TICK
        assert all(r["action"] == stop for r in out.records[self.HALT_TICK:])
        assert len(out.records) > self.HALT_TICK + 1
        assert calls["perceive"] == self.HALT_TICK + 1
        assert calls["masked_ids"] == calls["base_agent"] == self.HALT_TICK

    def test_rco_perceives_every_tick_and_masks_only_for_the_base_agent(self, run_counted):
        out, calls = run_counted(Mode.RCO)
        base_ticks = sum(not r["active"] for r in out.records)
        assert 0 < base_ticks < len(out.records)
        assert calls["perceive"] == len(out.records)
        assert calls["masked_ids"] == calls["base_agent"] == base_ticks


# Uncached references: the per-call computations the memoised values replace.


def fresh_heading(script, i):
    if len(script) == 1:
        return 0.0
    i = max(0, min(i, len(script) - 2))
    dx = script[i + 1][1] - script[i][1]
    dy = script[i + 1][2] - script[i][2]
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return math.atan2(dy, dx)


def fresh_state_at(script, t_s):
    if t_s <= script[0][0] or len(script) == 1:
        return script[0][1], script[0][2], fresh_heading(script, 0)
    if t_s >= script[-1][0]:
        return script[-1][1], script[-1][2], fresh_heading(script, len(script) - 2)
    for i in range(len(script) - 1):
        t0, x0, y0 = script[i]
        t1, x1, y1 = script[i + 1]
        if t0 <= t_s <= t1 and t1 != t0:
            a = (t_s - t0) / (t1 - t0)
            return x0 + a * (x1 - x0), y0 + a * (y1 - y0), fresh_heading(script, i)
    raise AssertionError("no segment holds t_s")


def fresh_collisions(w, states):
    ego_quad = simenv._obb_corners(
        w.ego.x, w.ego.y, w.ego.heading, simenv.EGO_LENGTH, simenv.EGO_WIDTH
    )
    hit = set()
    for actor, x, y, heading in states:
        length, width, _pw, _ph = simenv._CLASS_DIMS[actor.cls]
        if length == 0.0 or math.hypot(x - w.ego.x, y - w.ego.y) > length + simenv.EGO_LENGTH:
            continue
        if simenv._obb_overlap(ego_quad, simenv._obb_corners(x, y, heading, length, width)):
            hit.add(actor.id)
    return hit


def fresh_segment_lengths(route):
    pts = route.waypoints
    return [math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]


def fresh_point_at(route, s):
    s = min(max(s, 0.0), sum(fresh_segment_lengths(route)))
    cum = 0.0
    for (x0, y0), (x1, y1), seg_len in zip(
        route.waypoints, route.waypoints[1:], fresh_segment_lengths(route)
    ):
        if s <= cum + seg_len:
            t = (s - cum) / seg_len
            return x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        cum += seg_len
    return route.waypoints[-1]


def fresh_geometry_at(route, progress):
    cum = 0.0
    for tag, seg_len in zip(route.geometry, fresh_segment_lengths(route)):
        cum += seg_len
        if progress <= cum:
            return tag
    return route.geometry[-1]


def fresh_progress_of(route, point):
    best_d2, best_s, cum = math.inf, 0.0, 0.0
    px, py = point
    for (x0, y0), (x1, y1) in zip(route.waypoints, route.waypoints[1:]):
        dx, dy = x1 - x0, y1 - y0
        seg_len2 = dx * dx + dy * dy
        t = min(max(((px - x0) * dx + (py - y0) * dy) / seg_len2, 0.0), 1.0)
        d2 = (px - (x0 + t * dx)) ** 2 + (py - (y0 + t * dy)) ** 2
        if d2 < best_d2:
            best_d2, best_s = d2, cum + t * math.sqrt(seg_len2)
        cum += math.sqrt(seg_len2)
    return best_s


# Small coordinate and time sets make repeated waypoints and ticks that land
# exactly on waypoint times common.
# Rounding keeps squared segment lengths clear of underflow.
_coords = st.one_of(
    st.sampled_from([0.0, 1.5, -2.0]), st.floats(-8.0, 8.0).map(lambda v: round(v, 6))
)
_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0))


@st.composite
def actor_scripts(draw):
    n = draw(st.integers(1, 5))
    times = sorted(draw(st.lists(_times, min_size=n, max_size=n)))
    return tuple((t, draw(_coords), draw(_coords)) for t in times)


@st.composite
def routes(draw):
    points = draw(st.lists(st.tuples(_coords, _coords), min_size=2, max_size=6))
    points = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    if len(points) < 2:
        points.append((points[0][0] + 1.0, points[0][1]))
    tags = draw(st.lists(st.sampled_from(list(RoadGeometry)), min_size=len(points) - 1,
                         max_size=len(points) - 1))
    return Route(tuple(points), tuple(tags))


_actor_classes = st.sampled_from(
    [ObjectClass.PEDESTRIAN, ObjectClass.CAR, ObjectClass.BICYCLE, ObjectClass.TRUCK]
)


class TestMemoisedEqualsFresh:
    @given(
        scripts=st.lists(st.tuples(_actor_classes, actor_scripts()), min_size=1, max_size=4),
        route=routes(),
        start_tick=st.integers(0, 40),
        ego=st.tuples(_coords, _coords, st.floats(-math.pi, math.pi)),
        steers=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_world_quantities(self, scripts, route, start_tick, ego, steers):
        actors = tuple(Actor(i, cls, script) for i, (cls, script) in enumerate(scripts))
        sc = Scenario("gen", route, actors)
        w = WorldState(start_tick, simenv.EgoState(*ego, v=2.0), sc)
        for steer in steers:
            for a in actors:
                assert a._headings == tuple(
                    fresh_heading(a.script, i) for i in range(max(1, len(a.script) - 1))
                )
            fresh = tuple((a, *fresh_state_at(a.script, w.tick * w.params.dt)) for a in actors)
            assert w.actor_states == fresh
            assert w.actor_states is w.actor_states
            assert w.collisions == fresh_collisions(w, fresh)
            w_next = tick(w, Action(0.5, 0.0, steer))
            assert [e.actor_id for e in detect_infractions(w, w_next)] == sorted(
                fresh_collisions(w_next, w_next.actor_states) - fresh_collisions(w, fresh)
            )
            w = w_next

    @given(
        scripts=st.lists(st.tuples(_actor_classes, actor_scripts()), min_size=1, max_size=4),
        route=routes(),
        start_tick=st.integers(0, 40),
        ego=st.tuples(_coords, _coords, st.floats(-math.pi, math.pi)),
        moved=st.tuples(_coords, _coords, st.floats(-math.pi, math.pi)),
    )
    @settings(max_examples=100, deadline=None)
    def test_replaced_state_recomputes(self, scripts, route, start_tick, ego, moved):
        # dataclasses.replace builds a new state, so nothing derived from the
        # old ego can be carried over.
        actors = tuple(Actor(i, cls, script) for i, (cls, script) in enumerate(scripts))
        w = WorldState(start_tick, simenv.EgoState(*ego), Scenario("gen", route, actors))
        w_moved = replace(w, ego=simenv.EgoState(*moved))
        fresh = tuple((a, *fresh_state_at(a.script, start_tick * PARAMS.dt)) for a in actors)
        assert w_moved.actor_states == fresh
        assert w_moved.collisions == fresh_collisions(w_moved, fresh)

    @given(route=routes(), s=st.floats(-5.0, 60.0), point=st.tuples(_coords, _coords))
    @settings(max_examples=100, deadline=None)
    def test_route_lengths(self, route, s, point):
        lengths = fresh_segment_lengths(route)
        assert route.length == sum(lengths)
        ends = [sum(lengths[: i + 1]) for i in range(len(lengths))]
        for arc in (s, *ends, *(e - 1e-9 for e in ends)):
            assert route.point_at(arc) == fresh_point_at(route, arc)
            assert route.geometry_at(arc) is fresh_geometry_at(route, arc)
        assert route.progress_of(point) == fresh_progress_of(route, point)
