"""Shared vocabulary types: actions, conditions, perception, hazards, constraints.

All types are immutable values; enums carry lowercase string values. A value
is checked once, where outside input can break it: ``Action`` (replayed log
lines) and ``SafetyConstraints`` (model answers) check their fields. The
perception values, ``VehicleMeasurements`` and ``MotionPlan`` check nothing:
``simenv.perceive`` and ``simenv.measurements`` build them valid, and
``backend._parse_plan`` refuses a bad plan before it builds one.

Convention fixed once, package-wide: steer is negative for left, positive for
right; the world frame is x-east / y-north with heading measured
counter-clockwise from +x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from typing import Any, Optional


class OutOfRangeError(ValueError):
    """A numeric field fell outside its declared closed range."""

    def __init__(self, field_name: str, value: float) -> None:
        super().__init__(f"{field_name} out of range: {value!r}")
        self.field_name = field_name
        self.value = value


_KINDS = {bool: "a JSON bool", str: "a JSON string", int: "a number (JSON int)", float: "a number",
          list: "a JSON list", dict: "a JSON object"}


def value_type(cls: type) -> type:
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` stores each field
    straight into its slot.

    A frozen dataclass's own ``__init__`` stores each field with one generic
    ``object.__setattr__`` call; here each store calls the field's slot descriptor,
    bound once per class: about half the cost per record on CPython 3.11. A default
    is one immutable value that every instance shares; a ``default_factory`` or a
    field's own ``hash`` is refused. ``__post_init__`` runs last: every check still
    runs, and it sets each derived field (``field(init=False)``, no default).

    ``__init__`` is the one method compiled per class. The five more that a frozen
    ``dataclass`` compiles (``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__``,
    ``__delattr__``), which no tick calls, are the shared ``_VALUE_METHODS``: each
    reads field names from a tuple set once per class and gives the equality, hash
    and ``repr`` text that ``dataclass(frozen=True)`` gives on CPython 3.11, and
    setting or deleting any name, as a copy or an unpickle would, raises
    ``FrozenInstanceError`` (``__dataclass_params__`` reads ``frozen=False``)."""
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    every = fields(cls)
    cls._compared = tuple(f.name for f in every if f.compare)
    cls._shown = tuple(f.name for f in every if f.repr)
    for name, method in _VALUE_METHODS.items():
        setattr(cls, name, method)
    namespace: dict[str, Any] = {}
    params, stores = [], []
    for f in every:
        name = f.name
        if f.hash is not None:
            raise TypeError(f"{cls.__name__}.{name}: a value type hashes its compared fields")
        if not f.init:
            continue  # derived: __post_init__ sets it
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{name}: a value type takes no default_factory")
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        if f.default is not MISSING:
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        stores.append(f"    _set_{name}(self, {name})\n")
    if hasattr(cls, "__post_init__"):
        stores.append("    self.__post_init__()\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(stores)}", namespace)
    cls.__init__ = namespace["__init__"]
    return cls


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        names = self._compared
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(tuple(getattr(self, n) for n in self._compared))


def _repr(self: Any) -> str:
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_VALUE_METHODS = {
    "__eq__": _eq, "__hash__": _hash, "__repr__": _repr, "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def typed(value: Any, kind: type, name: str) -> Any:
    """``value``, read from outside, if its JSON type is ``kind``: a bool is no
    number, an int is a float (returned as one), a float must be one a float
    holds (``json`` reads ``NaN``, ``Infinity``, ``1e999`` and ints of any size),
    and a list or an object is exactly that JSON type (no ``""`` or ``{}`` for a list)."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if kind is not float:
        return value
    if not -sys.float_info.max <= value <= sys.float_info.max:  # exact for ints, false for NaN
        raise ValueError(f"{name} must be a number and finite, got {value!r}")
    return float(value)


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
# Read in simenv per drawn object: CPython 3.11 does not specialise a member
# read off an Enum class.
_FRONT = ViewName.FRONT


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


_MOVE = Strategy.MOVE  # read per round in orchestrator and planner


# ---------------------------------------------------------------------------
# Actuator action
# ---------------------------------------------------------------------------

@value_type
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


@value_type
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


@value_type
class ConditionActionPair:
    """A planned action and the execution condition under which it may run."""

    condition: ExecutionCondition
    action: HighLevelAction


# Nominal stop pair: each waiting tick of a stop-observe-move episode.
STOP_PAIR = ConditionActionPair(ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, STOP_ACTION)


@value_type
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

@value_type
class Box:
    """Axis-aligned rectangle in normalized image fractions, x right, y down."""

    x0: float
    y0: float
    x1: float
    y1: float

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


@value_type
class VisibleObject:
    """A detected object: its concrete class, its image box and its range in metres."""

    cls: ObjectClass
    box: Box
    range_m: float


@value_type
class CameraView:
    """One camera's symbolic frame: detections plus deficit regions (the
    masked image boxes). No visible box lies inside a deficit box, each box is
    a non-empty part of the image and each range is >= 0: ``simenv.perceive``,
    the one producer, builds them so, and nothing here checks it."""

    view: ViewName
    visible_objects: tuple[VisibleObject, ...]
    deficits: tuple[Box, ...]


@value_type
class Navigation:
    """Route guidance: the target point ahead on the route and the road geometry there."""

    target_point: tuple[float, float]
    road_geometry: RoadGeometry


@value_type
class Surrounding:
    """Ambient context: weather, daylight, traffic density and the nearest obstacle's range."""

    weather: Weather
    daylight: Daylight
    traffic_density: TrafficDensity
    nearest_obstacle_m: Optional[float] = None


@value_type
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
        p = self.perception
        has_deficit = bool(p[0].deficits or p[1].deficits or p[2].deficits)
        object.__setattr__(self, "has_deficit", has_deficit)

    def view(self, name: ViewName) -> CameraView:
        return self.perception[VIEW_ORDER.index(name)]


# ---------------------------------------------------------------------------
# Hazards and plans
# ---------------------------------------------------------------------------

@value_type
class Hazard:
    """Inferred object and its movement; either side may be unknown."""

    object: ObjectClass
    motion: MotionKind


@value_type
class MotionPlan:
    """Either a move sequence or a stop-observe-move wait; exactly the fields
    for the chosen strategy are present, as ``backend._parse_plan`` and
    ``planner.plan_motion`` build them, and a wait is never negative
    (``_parse_plan`` refuses one). The wait cap is applied where a wait
    becomes stop pairs (``planner.expand_stop_observe_move``), not here."""

    strategy: Strategy
    sequence: Optional[ActionSequence] = None
    wait_ticks: Optional[int] = None
    move_trigger: Optional[ExecutionCondition] = None


# ---------------------------------------------------------------------------
# Safety envelope and measurements
# ---------------------------------------------------------------------------

# SafetyConstraints' six fields, in order.
ENVELOPE_LIMITS = ("v_max", "d_min", "ac_max", "de_max", "psi_max", "d_brake")


@value_type
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
        for name in ENVELOPE_LIMITS:
            v = getattr(self, name)
            if not 0 < v < math.inf:  # also rejects NaN
                raise OutOfRangeError(name, v)


# The rule-based envelope's limits before any context scaling.
BASE_CONSTRAINTS = SafetyConstraints(
    v_max=8.0, d_min=6.0, ac_max=2.5, de_max=6.0, psi_max=0.5, d_brake=8.0
)


@value_type
class VehicleMeasurements:
    """IMU/speedometer readout; ``d_follow`` is +inf when there is no lead
    vehicle so the following-distance trigger is simply false."""

    v: float
    a_x: float
    omega_z: float
    d_follow: float = math.inf
