"""Deterministic mapping from high-level actions to actuator commands.

Speed tokens translate to throttle/brake by a fixed table; steering comes from
a PD controller on the heading error toward the next navigation target point.
Heading error is ``wrap(heading - bearing)``: positive when the vehicle points
left of the target, so the corrective steer is positive (right), matching the
package-wide steer convention (negative = left).
"""

from __future__ import annotations

import math

from .domain import (
    Action,
    Behavior,
    HighLevelAction,
    Navigation,
    RoadGeometry,
    SpeedControl,
)


def clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


# PD gains for waypoint steering; the base agent passes kd=0.0. The state the
# callers thread from tick to tick is the last heading error alone.
KP, KD = 0.9, 0.1


# Read per resolved action; CPython 3.11 does not specialise Enum member reads.
_CONSTANT_SPEED = SpeedControl.CONSTANT_SPEED
_DECELERATION = SpeedControl.DECELERATION
_QUICK_DECELERATION = SpeedControl.QUICK_DECELERATION
_DECELERATION_TO_ZERO = SpeedControl.DECELERATION_TO_ZERO
_ACCELERATION = SpeedControl.ACCELERATION
_STOP = Behavior.STOP
_MOVE_FORWARD = Behavior.MOVE_FORWARD


def map_speed_control(speed: SpeedControl, prev_throttle: float) -> tuple[float, float]:
    """Translate a speed token to (throttle, brake), both clamped to [0, 1]."""
    if not 0.0 <= prev_throttle <= 1.0:
        raise ValueError(f"prev_throttle out of range: {prev_throttle}")
    if speed is _CONSTANT_SPEED:
        return 0.7, 0.0
    if speed is _DECELERATION:
        return max(0.0, prev_throttle - 0.2), 0.2
    if speed is _QUICK_DECELERATION:
        return max(0.0, prev_throttle - 0.4), 0.4
    if speed is _DECELERATION_TO_ZERO:
        return 0.0, 0.8
    if speed is _ACCELERATION:
        return min(1.0, prev_throttle + 0.2), 0.0
    return min(1.0, prev_throttle + 0.4), 0.0  # QUICK_ACCELERATION, the last member


def compute_steer(
    ego_pose: tuple[float, float, float],
    target_point: tuple[float, float],
    prev_error: float,
    dt: float,
    kd: float = KD,
) -> tuple[float, float]:
    """One PD step toward ``target_point``; returns (steer, heading error)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x, y, heading = ego_pose
    dx = target_point[0] - x
    dy = target_point[1] - y
    if dx == 0.0 and dy == 0.0:
        raise ValueError(f"target {target_point} coincides with ego position")
    bearing = math.atan2(dy, dx)
    error = wrap_angle(heading - bearing)
    derivative = (error - prev_error) / dt
    steer = clamp(KP * error + kd * derivative, -1.0, 1.0)
    return steer, error


_DIRECTIONAL: dict[Behavior, tuple[RoadGeometry, ...]] = {
    Behavior.TURN_LEFT: (RoadGeometry.INTERSECTION, RoadGeometry.LEFT_CURVE),
    Behavior.TURN_RIGHT: (RoadGeometry.INTERSECTION, RoadGeometry.RIGHT_CURVE),
    Behavior.CHANGE_LANE_LEFT: (RoadGeometry.STRAIGHT,),
    Behavior.CHANGE_LANE_RIGHT: (RoadGeometry.STRAIGHT,),
}


def aligns_with_navigation(behavior: Behavior, geometry: RoadGeometry) -> bool:
    """Direction-change behaviors must match the road geometry; everything
    else is trivially aligned."""
    allowed = _DIRECTIONAL.get(behavior)
    return allowed is None or geometry in allowed


def resolve_action(
    hla: HighLevelAction,
    prev: Action,
    ego_pose: tuple[float, float, float],
    navi: Navigation,
    prev_error: float,
    dt: float,
) -> tuple[Action, float, bool]:
    """Resolve a high-level action to an actuator Action.

    Returns (action, heading error for the next tick, direction_mismatch); a
    stop keeps ``prev_error``. A directional behavior that contradicts the
    navigation geometry is demoted to move-forward and flagged; the caller
    records the flag in the episode log rather than failing.
    """
    behavior = hla.behavior
    mismatch = not aligns_with_navigation(behavior, navi.road_geometry)
    if mismatch:
        behavior = _MOVE_FORWARD
    throttle, brake = map_speed_control(hla.speed, prev.throttle)
    if behavior is _STOP:
        return Action(throttle, brake, 0.0), prev_error, mismatch
    steer, error = compute_steer(ego_pose, navi.target_point, prev_error, dt)
    return Action(throttle, brake, steer), error, mismatch
