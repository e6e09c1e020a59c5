"""Domain type validation and normalization."""

from __future__ import annotations

import math

import pytest

from rco.domain import (
    Action,
    ActionSequence,
    Behavior,
    Box,
    CameraView,
    ConditionActionPair,
    EnvironmentSnapshot,
    ExecutionCondition,
    HighLevelAction,
    MotionPlan,
    ObjectClass,
    OutOfRangeError,
    SafetyConstraints,
    SpeedControl,
    Strategy,
    VehicleMeasurements,
    ViewName,
    VisibleObject,
)
from conftest import snapshot


class TestAction:
    def test_throttle_above_one_rejected(self):
        with pytest.raises(OutOfRangeError) as exc:
            Action(1.2, 0.0, 0.0)
        assert exc.value.field_name == "throttle"
        assert exc.value.value == 1.2

    @pytest.mark.parametrize(
        "throttle,brake,steer,field",
        [
            (-0.1, 0.0, 0.0, "throttle"),
            (0.0, 1.5, 0.0, "brake"),
            (0.0, 0.0, -1.01, "steer"),
            (0.0, 0.0, 1.01, "steer"),
            (math.nan, 0.0, 0.0, "throttle"),
        ],
    )
    def test_out_of_range_fields(self, throttle, brake, steer, field):
        with pytest.raises(OutOfRangeError) as exc:
            Action(throttle, brake, steer)
        assert exc.value.field_name == field

    def test_steer_extremes_allowed(self):
        Action(1.0, 1.0, -1.0)
        Action(0.0, 0.0, 1.0)


class TestHighLevelAction:
    def test_stop_forces_deceleration_to_zero(self):
        hla = HighLevelAction(Behavior.STOP, SpeedControl.ACCELERATION)
        assert hla.speed is SpeedControl.DECELERATION_TO_ZERO

    def test_non_stop_keeps_speed(self):
        hla = HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.ACCELERATION)
        assert hla.speed is SpeedControl.ACCELERATION


class TestExecutionCondition:
    def test_enumeration_is_closed(self):
        assert {c.value for c in ExecutionCondition} == {
            "consistent_no_immediate_hazard",
            "consistent_immediate_hazard",
        }

    def test_inconsistent_is_not_a_condition(self):
        with pytest.raises(ValueError):
            ExecutionCondition("inconsistent_deficit")


class TestActionSequence:
    def test_pop_front_is_fifo(self):
        a = ConditionActionPair(
            ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
            HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED),
        )
        b = ConditionActionPair(
            ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD,
            HighLevelAction(Behavior.STOP, SpeedControl.DECELERATION_TO_ZERO),
        )
        seq = ActionSequence((a, b), 0)
        head, rest = seq.pop_front()
        assert head == a
        assert rest.pairs == (b,)


class TestBoxAndViews:
    def test_box_bounds_validated(self):
        with pytest.raises(OutOfRangeError):
            Box(0.5, 0.1, 0.4, 0.2)  # x0 >= x1
        with pytest.raises(OutOfRangeError):
            Box(0.0, 0.0, 1.0, 1.2)

    def test_box_area(self):
        assert Box(0.2, 0.2, 0.5, 0.4).area == pytest.approx(0.06)

    def test_view_rejects_object_fully_inside_deficit(self):
        deficit = Box(0.1, 0.1, 0.6, 0.6)
        obj = VisibleObject(ObjectClass.CAR, Box(0.2, 0.2, 0.4, 0.4), 12.0)
        with pytest.raises(ValueError):
            CameraView(ViewName.FRONT, (obj,), (deficit,))

    def test_view_allows_partial_overlap(self):
        deficit = Box(0.1, 0.1, 0.3, 0.3)
        obj = VisibleObject(ObjectClass.CAR, Box(0.2, 0.2, 0.5, 0.5), 12.0)
        CameraView(ViewName.FRONT, (obj,), (deficit,))

    def test_snapshot_requires_view_order(self):
        good = snapshot(tick=0)
        assert good.view(ViewName.FRONT).view is ViewName.FRONT
        with pytest.raises(ValueError):
            EnvironmentSnapshot(
                0,
                (good.perception[1], good.perception[0], good.perception[2]),
                good.navi,
                good.surrounding,
            )


class TestMotionPlan:
    def test_move_requires_sequence_only(self):
        seq = ActionSequence((), 0)
        MotionPlan(Strategy.MOVE, sequence=seq)
        with pytest.raises(ValueError):
            MotionPlan(Strategy.MOVE, sequence=seq, wait_ticks=3)
        with pytest.raises(ValueError):
            MotionPlan(Strategy.MOVE)

    def test_wait_requires_wait_fields_only(self):
        MotionPlan(
            Strategy.STOP_OBSERVE_MOVE,
            wait_ticks=3,
            move_trigger=ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
        )
        with pytest.raises(ValueError):
            MotionPlan(Strategy.STOP_OBSERVE_MOVE, wait_ticks=3)
        with pytest.raises(OutOfRangeError):
            MotionPlan(
                Strategy.STOP_OBSERVE_MOVE,
                wait_ticks=-1,
                move_trigger=ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
            )


class TestSafetyTypes:
    def test_constraints_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            SafetyConstraints(0.0, 6.0, 2.5, 6.0, 0.5, 8.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_constraints_must_be_finite(self, bad):
        with pytest.raises(OutOfRangeError):
            SafetyConstraints(8.0, 6.0, 2.5, bad, 0.5, 8.0)

    def test_measurements_reject_negative_speed(self):
        with pytest.raises(OutOfRangeError):
            VehicleMeasurements(-1.0, 0.0, 0.0)

    def test_no_lead_vehicle_is_infinite_follow(self):
        m = VehicleMeasurements(5.0, 0.0, 0.0)
        assert math.isinf(m.d_follow)
        assert not (m.d_follow < 6.0)  # the following trigger stays false
