"""Speed-token table, PID steering, and high-level action resolution."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from rco.controlmap import (
    KD,
    KP,
    aligns_with_navigation,
    compute_steer,
    map_speed_control,
    resolve_action,
)
from rco.domain import (
    Action,
    Behavior,
    HighLevelAction,
    Navigation,
    RoadGeometry,
    SpeedControl,
)

# Independent statement of the speed-control table, used as the oracle.
TABLE = {
    SpeedControl.CONSTANT_SPEED: lambda p: (0.7, 0.0),
    SpeedControl.DECELERATION: lambda p: (max(0.0, p - 0.2), 0.2),
    SpeedControl.QUICK_DECELERATION: lambda p: (max(0.0, p - 0.4), 0.4),
    SpeedControl.DECELERATION_TO_ZERO: lambda p: (0.0, 0.8),
    SpeedControl.ACCELERATION: lambda p: (min(1.0, p + 0.2), 0.0),
    SpeedControl.QUICK_ACCELERATION: lambda p: (min(1.0, p + 0.4), 0.0),
}


class TestSpeedControlTable:
    def test_constant_speed(self):
        assert map_speed_control(SpeedControl.CONSTANT_SPEED, 0.3) == (0.7, 0.0)

    def test_deceleration(self):
        assert map_speed_control(SpeedControl.DECELERATION, 0.5) == (0.3, 0.2)

    def test_quick_acceleration_clamps_at_one(self):
        assert map_speed_control(SpeedControl.QUICK_ACCELERATION, 0.9) == (1.0, 0.0)

    def test_deceleration_to_zero(self):
        assert map_speed_control(SpeedControl.DECELERATION_TO_ZERO, 0.7) == (0.0, 0.8)

    def test_full_table_66_cases(self):
        prevs = [round(0.1 * i, 1) for i in range(11)]
        checked = 0
        for speed in SpeedControl:
            for prev in prevs:
                assert map_speed_control(speed, prev) == TABLE[speed](prev)
                checked += 1
        assert checked == 66

    @given(
        speed=st.sampled_from(SpeedControl),
        prev=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_outputs_in_range(self, speed, prev):
        throttle, brake = map_speed_control(speed, prev)
        assert 0.0 <= throttle <= 1.0
        assert 0.0 <= brake <= 1.0

    @given(prev=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_deceleration_family_never_increases_throttle(self, prev):
        for speed in (
            SpeedControl.DECELERATION,
            SpeedControl.QUICK_DECELERATION,
            SpeedControl.DECELERATION_TO_ZERO,
        ):
            throttle, _ = map_speed_control(speed, prev)
            assert throttle <= prev

    @given(prev=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_acceleration_family_never_decreases_throttle(self, prev):
        for speed in (SpeedControl.ACCELERATION, SpeedControl.QUICK_ACCELERATION):
            throttle, _ = map_speed_control(speed, prev)
            assert throttle >= prev

    def test_prev_throttle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            map_speed_control(SpeedControl.CONSTANT_SPEED, 1.2)


class TestComputeSteer:
    def test_zero_heading_error_gives_zero_steer(self):
        steer, _ = compute_steer((0.0, 0.0, 0.0), (10.0, 0.0), 0.0, 0.1)
        assert steer == 0.0

    def test_target_left_steers_left(self):
        # x-east / y-north frame: +y from a +x heading is to the left, and
        # the package convention is negative steer = left.
        steer, _ = compute_steer((0.0, 0.0, 0.0), (10.0, 5.0), 0.0, 0.1)
        assert steer < 0.0

    def test_target_right_steers_right(self):
        steer, _ = compute_steer((0.0, 0.0, 0.0), (10.0, -5.0), 0.0, 0.1)
        assert steer > 0.0

    def test_p_only_step_response(self):
        # Heading error 0.3 rad with kd 0 (the base agent's steer): KP * 0.3.
        steer, _ = compute_steer((0.0, 0.0, 0.3), (10.0, 0.0), 0.0, 0.1, kd=0.0)
        assert steer == pytest.approx(KP * 0.3)

    def test_derivative_term(self):
        # The derivative acts on the change of heading error since the last
        # tick: no change leaves the proportional term alone.
        steer, _ = compute_steer((0.0, 0.0, 0.3), (10.0, 0.0), 0.3, 0.1)
        assert steer == pytest.approx(KP * 0.3)
        steer, _ = compute_steer((0.0, 0.0, 0.3), (10.0, 0.0), 0.25, 0.1)
        assert steer == pytest.approx(KP * 0.3 + KD * 0.05 / 0.1)

    def test_output_clamped(self):
        # The target lies square to the right: error pi/2, and KP alone
        # already asks for more than full lock.
        steer, _ = compute_steer((0.0, 0.0, 0.0), (0.0, -10.0), 0.0, 0.1, kd=0.0)
        assert steer == 1.0

    def test_degenerate_target_rejected(self):
        with pytest.raises(ValueError, match="coincides with ego position"):
            compute_steer((1.0, 2.0, 0.0), (1.0, 2.0), 0.0, 0.1)

    def test_bundled_rco_episode_steers_without_replace(self, monkeypatch):
        # The PD state is the last heading error, a plain float: no state
        # object is rebuilt, through dataclasses.replace or otherwise.
        from rco import controlmap
        from rco.backend import ScriptedBackend
        from rco.cli import bundled_scenario_dir
        from rco.runner import Mode, run_episode
        from rco.simenv import Scenario

        def no_replace(*args, **kwargs):
            raise AssertionError("compute_steer rebuilt its state through replace()")

        steps = []

        def counting(*args):
            steps.append(args)
            return real_compute(*args)

        real_compute = controlmap.compute_steer
        monkeypatch.setattr(controlmap, "replace", no_replace, raising=False)
        monkeypatch.setattr(controlmap, "compute_steer", counting)
        scenario = Scenario.load(str(bundled_scenario_dir() / "bicycle_oncoming.json"))
        run_episode(scenario, Mode.RCO, ScriptedBackend.bundled())
        assert steps
        assert all(type(args[2]) is float for args in steps)

    def test_controller_state_updates(self):
        _, error = compute_steer((0.0, 0.0, 0.3), (10.0, 0.0), 0.0, 0.1)
        assert error == pytest.approx(0.3)


class TestAlignment:
    @pytest.mark.parametrize(
        "behavior,geometry,expected",
        [
            (Behavior.TURN_LEFT, RoadGeometry.INTERSECTION, True),
            (Behavior.TURN_LEFT, RoadGeometry.LEFT_CURVE, True),
            (Behavior.TURN_LEFT, RoadGeometry.STRAIGHT, False),
            (Behavior.TURN_RIGHT, RoadGeometry.RIGHT_CURVE, True),
            (Behavior.TURN_RIGHT, RoadGeometry.LEFT_CURVE, False),
            (Behavior.CHANGE_LANE_LEFT, RoadGeometry.STRAIGHT, True),
            (Behavior.CHANGE_LANE_RIGHT, RoadGeometry.INTERSECTION, False),
            (Behavior.MOVE_FORWARD, RoadGeometry.INTERSECTION, True),
            (Behavior.STOP, RoadGeometry.STRAIGHT, True),
        ],
    )
    def test_alignment_predicate(self, behavior, geometry, expected):
        assert aligns_with_navigation(behavior, geometry) is expected


class TestResolveAction:
    def test_move_forward_constant_on_straight(self):
        navi = Navigation((10.0, 0.0), RoadGeometry.STRAIGHT)
        hla = HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED)
        action, _, mismatch = resolve_action(
            hla, Action(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), navi, 0.0, 0.1
        )
        assert (action.throttle, action.brake) == (0.7, 0.0)
        assert action.steer == pytest.approx(0.0, abs=1e-9)
        assert mismatch is False

    def test_stop_zeroes_steer(self):
        navi = Navigation((10.0, 5.0), RoadGeometry.STRAIGHT)
        hla = HighLevelAction(Behavior.STOP, SpeedControl.DECELERATION_TO_ZERO)
        action, error, _ = resolve_action(
            hla, Action(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), navi, 0.2, 0.1
        )
        assert action == Action(0.0, 0.8, 0.0)
        assert error == 0.2  # untouched while stopped

    def test_turn_left_at_left_turning_intersection(self):
        # Route turns left: target is ahead-left of the ego.
        navi = Navigation((8.0, 4.0), RoadGeometry.INTERSECTION)
        hla = HighLevelAction(Behavior.TURN_LEFT, SpeedControl.DECELERATION)
        action, _, mismatch = resolve_action(
            hla, Action(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), navi, 0.0, 0.1
        )
        assert mismatch is False
        assert (action.throttle, action.brake) == (max(0.0, 0.5 - 0.2), 0.2)
        assert action.steer < 0.0  # left turn steers left

    def test_direction_mismatch_demotes_to_move_forward(self):
        navi = Navigation((10.0, 0.0), RoadGeometry.STRAIGHT)
        hla = HighLevelAction(Behavior.TURN_LEFT, SpeedControl.CONSTANT_SPEED)
        action, _, mismatch = resolve_action(
            hla, Action(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), navi, 0.0, 0.1
        )
        assert mismatch is True
        assert (action.throttle, action.brake) == (0.7, 0.0)
        # Demoted to move-forward: steering still tracks the route target.
        assert abs(action.steer) < 0.05

    @given(
        heading=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        tx=st.floats(min_value=-20, max_value=20, allow_nan=False),
        ty=st.floats(min_value=-20, max_value=20, allow_nan=False),
        prev=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        behavior=st.sampled_from(Behavior),
        speed=st.sampled_from(SpeedControl),
    )
    def test_resolved_actions_always_in_range(self, heading, tx, ty, prev, behavior, speed):
        if tx == 0.0 and ty == 0.0:
            tx = 1.0
        navi = Navigation((tx, ty), RoadGeometry.STRAIGHT)
        action, _, _ = resolve_action(
            HighLevelAction(behavior, speed),
            Action(prev, 0.0, 0.0),
            (0.0, 0.0, heading),
            navi,
            0.0,
            0.1,
        )
        assert 0.0 <= action.throttle <= 1.0
        assert 0.0 <= action.brake <= 1.0
        assert -1.0 <= action.steer <= 1.0
