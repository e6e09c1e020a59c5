"""Shared vocabulary types: actions, conditions, perception, hazards, constraints.

All types are immutable values with validating constructors; enums carry
lowercase string values. Convention fixed once, package-wide: steer is
negative for left, positive for right; the world frame is x-east / y-north
with heading measured counter-clockwise from +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class OutOfRangeError(ValueError):
    """A numeric field fell outside its declared closed range."""

    def __init__(self, field_name: str, value: float) -> None:
        super().__init__(f"{field_name} out of range: {value!r}")
        self.field_name = field_name
        self.value = value


# ---------------------------------------------------------------------------
# Enums (serialized as their lowercase string values)
# ---------------------------------------------------------------------------

class Behavior(str, Enum):
    MOVE_FORWARD = "move_forward"
    STOP = "stop"
    CHANGE_LANE_LEFT = "change_lane_left"
    CHANGE_LANE_RIGHT = "change_lane_right"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


class SpeedControl(str, Enum):
    CONSTANT_SPEED = "constant_speed"
    DECELERATION = "deceleration"
    QUICK_DECELERATION = "quick_deceleration"
    DECELERATION_TO_ZERO = "deceleration_to_zero"
    ACCELERATION = "acceleration"
    QUICK_ACCELERATION = "quick_acceleration"


class ExecutionCondition(str, Enum):
    """Guard attached to a planned action; inconsistent deficits are never a
    condition — they force replanning instead."""

    CONSISTENT_NO_IMMEDIATE_HAZARD = "consistent_no_immediate_hazard"
    CONSISTENT_IMMEDIATE_HAZARD = "consistent_immediate_hazard"


class ViewName(str, Enum):
    LEFT = "left"
    FRONT = "front"
    RIGHT = "right"


# The order of a snapshot's views.
VIEW_ORDER = (ViewName.LEFT, ViewName.FRONT, ViewName.RIGHT)


class ObjectClass(str, Enum):
    CAR = "car"
    TRUCK = "truck"
    BUS = "bus"
    BICYCLE = "bicycle"
    PEDESTRIAN = "pedestrian"
    MOTORCYCLE = "motorcycle"
    TRAFFIC_LIGHT = "traffic_light"
    STOP_SIGN = "stop_sign"
    UNKNOWN = "unknown"  # hazard inference only; never a visible object


# Read once per visible object: a member read off an Enum class is a class
# attribute lookup that CPython 3.11 does not specialise.
_UNKNOWN_CLASS = ObjectClass.UNKNOWN


class MotionKind(str, Enum):
    STATIONARY = "stationary"
    ONCOMING = "oncoming"
    CROSSING = "crossing"
    SAME_DIRECTION = "same_direction"
    UNKNOWN = "unknown"


class RoadGeometry(str, Enum):
    STRAIGHT = "straight"
    LEFT_CURVE = "left_curve"
    RIGHT_CURVE = "right_curve"
    INTERSECTION = "intersection"


class Weather(str, Enum):
    CLEAR = "clear"
    RAIN = "rain"
    FOG = "fog"
    SNOW = "snow"


class Daylight(str, Enum):
    DAY = "day"
    DUSK = "dusk"
    NIGHT = "night"


class TrafficDensity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Strategy(str, Enum):
    MOVE = "move"
    STOP_OBSERVE_MOVE = "stop_observe_move"


_MOVE = Strategy.MOVE  # read once per plan built


# ---------------------------------------------------------------------------
# Actuator action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Action:
    """Actuator triple executed each tick: throttle, brake in [0,1], steer in [-1,1]."""

    throttle: float
    brake: float
    steer: float

    def __post_init__(self) -> None:
        # Every comparison with NaN is false, so these reject it too.
        if not 0.0 <= self.throttle <= 1.0:
            raise OutOfRangeError("throttle", self.throttle)
        if not 0.0 <= self.brake <= 1.0:
            raise OutOfRangeError("brake", self.brake)
        if not -1.0 <= self.steer <= 1.0:
            raise OutOfRangeError("steer", self.steer)

    def to_json(self) -> dict[str, Any]:
        return {"throttle": self.throttle, "brake": self.brake, "steer": self.steer}


FAIL_SAFE_STOP = Action(0.0, 0.8, 0.0)


@dataclass(frozen=True)
class HighLevelAction:
    """Driving behavior plus speed-control token.

    Normalization rule: a stop behavior always carries deceleration-to-zero.
    """

    behavior: Behavior
    speed: SpeedControl

    def __post_init__(self) -> None:
        if self.behavior is Behavior.STOP and self.speed is not SpeedControl.DECELERATION_TO_ZERO:
            object.__setattr__(self, "speed", SpeedControl.DECELERATION_TO_ZERO)


STOP_ACTION = HighLevelAction(Behavior.STOP, SpeedControl.DECELERATION_TO_ZERO)


@dataclass(frozen=True)
class ConditionActionPair:
    condition: ExecutionCondition
    action: HighLevelAction


# Nominal stop pair: each waiting tick of a stop-observe-move episode.
STOP_PAIR = ConditionActionPair(ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, STOP_ACTION)


@dataclass(frozen=True)
class ActionSequence:
    """Plan-ahead queue of condition-action pairs, consumed strictly front-to-back."""

    pairs: tuple[ConditionActionPair, ...]
    created_tick: int

    def pop_front(self) -> tuple[ConditionActionPair, "ActionSequence"]:
        head = self.pairs[0]
        return head, ActionSequence(self.pairs[1:], self.created_tick)

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# Perception
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in normalized image fractions, x right, y down."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x0 < self.x1 <= 1.0):
            raise OutOfRangeError("box.x", (self.x0, self.x1))
        if not (0.0 <= self.y0 < self.y1 <= 1.0):
            raise OutOfRangeError("box.y", (self.y0, self.y1))

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def centroid(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, other: "Box") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and self.x1 >= other.x1
            and self.y1 >= other.y1
        )


@dataclass(frozen=True)
class VisibleObject:
    cls: ObjectClass
    box: Box
    range_m: float

    def __post_init__(self) -> None:
        if self.cls is _UNKNOWN_CLASS:
            raise ValueError("visible objects must have a concrete class")
        if self.range_m < 0:
            raise OutOfRangeError("range_m", self.range_m)


@dataclass(frozen=True)
class CameraView:
    """One camera's symbolic frame: detections plus deficit regions (the
    masked image boxes).

    An object fully covered by a deficit region cannot be visible.
    """

    view: ViewName
    visible_objects: tuple[VisibleObject, ...]
    deficits: tuple[Box, ...]

    def __post_init__(self) -> None:
        for d in self.deficits:
            for o in self.visible_objects:
                if d.contains(o.box):
                    raise ValueError(
                        f"visible {o.cls.value} box lies fully inside a deficit region"
                    )


@dataclass(frozen=True)
class Navigation:
    target_point: tuple[float, float]
    road_geometry: RoadGeometry


@dataclass(frozen=True)
class Surrounding:
    weather: Weather
    daylight: Daylight
    traffic_density: TrafficDensity
    nearest_obstacle_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nearest_obstacle_m is not None and self.nearest_obstacle_m < 0:
            raise OutOfRangeError("nearest_obstacle_m", self.nearest_obstacle_m)


@dataclass(frozen=True)
class EnvironmentSnapshot:
    """Per-tick symbolic perception: three camera views plus navigation and
    ambient context."""

    tick: int
    perception: tuple[CameraView, CameraView, CameraView]  # left, front, right
    navi: Navigation
    surrounding: Surrounding
    # Whether any view holds a deficit region; derived once, read every tick.
    has_deficit: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        views = []
        has_deficit = False
        for v in self.perception:
            views.append(v.view)
            if v.deficits:
                has_deficit = True
        got = tuple(views)
        if got != VIEW_ORDER:
            raise ValueError(f"perception views must be ordered left/front/right, got {got}")
        object.__setattr__(self, "has_deficit", has_deficit)

    def view(self, name: ViewName) -> CameraView:
        return self.perception[VIEW_ORDER.index(name)]


# ---------------------------------------------------------------------------
# Hazards and plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hazard:
    """Inferred object and its movement; either side may be unknown."""

    object: ObjectClass
    motion: MotionKind


@dataclass(frozen=True)
class MotionPlan:
    """Either a move sequence or a stop-observe-move wait; exactly the fields
    for the chosen strategy are present. The wait cap is applied where a
    wait becomes stop pairs (``planner.expand_stop_observe_move``), not here."""

    strategy: Strategy
    sequence: Optional[ActionSequence] = None
    wait_ticks: Optional[int] = None
    move_trigger: Optional[ExecutionCondition] = None

    def __post_init__(self) -> None:
        if self.strategy is _MOVE:
            if self.sequence is None or self.wait_ticks is not None or self.move_trigger is not None:
                raise ValueError("move plan carries a sequence and nothing else")
        else:
            if self.sequence is not None or self.wait_ticks is None or self.move_trigger is None:
                raise ValueError("stop-observe-move plan carries wait_ticks and move_trigger only")
            if self.wait_ticks < 0:
                raise OutOfRangeError("wait_ticks", self.wait_ticks)


# ---------------------------------------------------------------------------
# Safety envelope and measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SafetyConstraints:
    """Six-limit control envelope, SI units, all strictly positive and
    finite: an infinite limit never fires, so it would switch its trigger off."""

    v_max: float
    d_min: float
    ac_max: float
    de_max: float
    psi_max: float
    d_brake: float

    def __post_init__(self) -> None:
        for name in ("v_max", "d_min", "ac_max", "de_max", "psi_max", "d_brake"):
            v = getattr(self, name)
            if not 0 < v < math.inf:  # also rejects NaN
                raise OutOfRangeError(name, v)


# The rule-based envelope's limits before any context scaling.
BASE_CONSTRAINTS = SafetyConstraints(
    v_max=8.0, d_min=6.0, ac_max=2.5, de_max=6.0, psi_max=0.5, d_brake=8.0
)


@dataclass(frozen=True)
class VehicleMeasurements:
    """IMU/speedometer readout; ``d_follow`` is +inf when there is no lead
    vehicle so the following-distance trigger is simply false."""

    v: float
    a_x: float
    omega_z: float
    d_follow: float = math.inf

    def __post_init__(self) -> None:
        if self.v < 0:
            raise OutOfRangeError("v", self.v)
