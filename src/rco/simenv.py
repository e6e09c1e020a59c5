"""Deterministic 2D closed-loop driving world.

Ego follows a kinematic bicycle model; other actors replay timed waypoint
scripts, so the whole trajectory is a pure function of the scenario and the
action stream. Perception is symbolic: actors and signals inside a camera
sector project to normalized boxes sized by subtended angle, and the deficit
policy replaces masked detections with deficit regions without ever touching
the dynamics.

Units: world coordinates in meters (x east, y north), headings in radians
CCW from +x, actor scripts keyed by seconds, light schedules and deficit
windows by tick index.
"""

from __future__ import annotations

import json
import math
import re
import struct
from bisect import bisect_left
from dataclasses import field
from enum import Enum
from itertools import accumulate
from typing import Any, ClassVar, Optional

from .controlmap import clamp, compute_steer, wrap_angle
from .domain import (
    Action,
    Box,
    CameraView,
    Daylight,
    EnvironmentSnapshot,
    FAIL_SAFE_STOP,
    Navigation,
    ObjectClass,
    RoadGeometry,
    Surrounding,
    TrafficDensity,
    VIEW_ORDER,
    VehicleMeasurements,
    ViewName,
    VisibleObject,
    Weather,
    _FRONT,
    typed,
    value_type,
)

STOPPED_SPEED = 0.1  # below this the vehicle counts as stopped (stop-sign rule)
SIGN_ZONE_M = 5.0  # must have stopped within this distance before the line
BASE_AGENT_BRAKE_RANGE_M = 12.0
ROUTE_CORRIDOR_HALF_WIDTH_M = 3.0
TARGET_LOOKAHEAD_M = 8.0  # steering aims this far ahead along the route
# Plant and sensor constants: the ego cruises near 8 m/s at 0.7 throttle.
K_THROTTLE = 3.0  # m/s^2 per unit throttle
K_BRAKE = 8.0  # m/s^2 per unit brake
DRAG = 0.25  # 1/s
WHEELBASE = 2.5  # m
MAX_WHEEL_ANGLE = math.radians(35.0)
CAMERA_RANGE = 40.0  # m
FOV_V = math.radians(40.0)  # vertical field of view
EGO_LENGTH = 4.5  # m
EGO_WIDTH = 2.0  # m


@value_type
class VehicleParams:
    """The simulation step in seconds; the plant is fixed by the constants above."""

    dt: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:  # the dynamics divide by it; NaN fails too
            raise ValueError(f"dt must be a positive finite number of seconds, got {self.dt!r}")


# (footprint length, footprint width, projected width, projected height)
_CLASS_DIMS: dict[ObjectClass, tuple[float, float, float, float]] = {
    ObjectClass.CAR: (4.5, 2.0, 2.0, 1.5),
    ObjectClass.TRUCK: (8.0, 2.5, 2.5, 3.0),
    ObjectClass.BUS: (10.0, 2.5, 2.5, 3.2),
    ObjectClass.BICYCLE: (1.8, 0.6, 0.6, 1.6),
    ObjectClass.PEDESTRIAN: (0.5, 0.5, 0.5, 1.8),
    ObjectClass.MOTORCYCLE: (2.2, 0.8, 0.8, 1.4),
    ObjectClass.TRAFFIC_LIGHT: (0.0, 0.0, 0.8, 0.8),
    ObjectClass.STOP_SIGN: (0.0, 0.0, 0.75, 0.75),
}

LEAD_VEHICLE_CLASSES = frozenset(
    {ObjectClass.CAR, ObjectClass.TRUCK, ObjectClass.BUS, ObjectClass.MOTORCYCLE, ObjectClass.BICYCLE}
)


class LightState(str, Enum):
    RED = "red"
    YELLOW = "yellow"
    GREEN = "green"


class InfractionKind(str, Enum):
    COLLISION_PEDESTRIAN = "collision_pedestrian"
    COLLISION_VEHICLE = "collision_vehicle"
    COLLISION_STATIC = "collision_static"
    RED_LIGHT = "red_light"
    STOP_SIGN = "stop_sign"


@value_type
class InfractionEvent:
    """One infraction: its tick, its kind and the actor involved, if any."""

    tick: int
    kind: InfractionKind
    actor_id: Optional[int] = None

    def to_json(self) -> dict[str, Any]:
        return {"tick": self.tick, "kind": self.kind.value, "actor_id": self.actor_id}


# ---------------------------------------------------------------------------
# Static scenario pieces
# ---------------------------------------------------------------------------

@value_type
class Actor:
    """Scripted actor: position replayed from timed waypoints (seconds)."""

    id: int
    cls: ObjectClass
    script: tuple[tuple[float, float, float], ...]  # (t_s, x, y), times monotone
    static: bool = False  # True => collisions score as layout/static
    # Derived once per actor: waypoint times, one heading per segment, and the
    # collision broad phase's reach (-inf for a zero-length footprint, which
    # never collides).
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _headings: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cls not in _CLASS_DIMS:
            raise ValueError(f"actor {self.id}: class {self.cls.value!r} has no footprint")
        if not self.script:
            raise ValueError("actor script must contain at least one waypoint")
        times = tuple(p[0] for p in self.script)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"actor {self.id} script times must be monotone")
        headings = tuple(_heading(p, q) for p, q in zip(self.script, self.script[1:]))
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_headings", headings or (0.0,))
        length = _CLASS_DIMS[self.cls][0]
        object.__setattr__(self, "_reach", length + EGO_LENGTH if length != 0.0 else -math.inf)

    def state_at(self, t_s: float) -> tuple[float, float, float]:
        """(x, y, heading) at time ``t_s`` by linear interpolation."""
        pts = self.script
        if t_s <= pts[0][0] or len(pts) == 1:
            return pts[0][1], pts[0][2], self._headings[0]
        if t_s >= pts[-1][0]:
            return pts[-1][1], pts[-1][2], self._headings[-1]
        # The first segment whose closed time span holds t_s and is not empty.
        i = bisect_left(self._times, t_s) - 1
        t0, x0, y0 = pts[i]
        t1, x1, y1 = pts[i + 1]
        a = (t_s - t0) / (t1 - t0)
        return x0 + a * (x1 - x0), y0 + a * (y1 - y0), self._headings[i]


def _heading(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
    dx, dy = q[1] - p[1], q[2] - p[2]
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return math.atan2(dy, dx)


@value_type
class TrafficLight:
    """A traffic light: its position, its stop line's arc length on the route and its schedule."""

    cls: ClassVar[ObjectClass] = ObjectClass.TRAFFIC_LIGHT  # the class perceive draws
    id: int
    position: tuple[float, float]
    stop_line_s: float  # arc length along the route
    schedule: tuple[tuple[int, LightState], ...] = ((0, LightState.GREEN),)

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValueError(f"traffic light {self.id}: schedule must not be empty")
        starts = [start for start, _ in self.schedule]
        # state_at holds the first entry's state from tick 0 on, so a later
        # first start would show that state before it begins.
        if starts[0] != 0:
            raise ValueError(f"traffic light {self.id}: schedule must start at tick 0")
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError(f"traffic light {self.id}: schedule starts must be strictly increasing")

    def state_at(self, tick: int) -> LightState:
        state = self.schedule[0][1]
        for start, s in self.schedule:
            if tick >= start:
                state = s
        return state


@value_type
class StopSign:
    """A stop sign: its position and its stop line's arc length along the route."""

    cls: ClassVar[ObjectClass] = ObjectClass.STOP_SIGN
    id: int
    position: tuple[float, float]
    stop_line_s: float


@value_type
class Route:
    """The ego's path: waypoints and one road-geometry tag per segment, with derived lengths."""

    waypoints: tuple[tuple[float, float], ...]
    geometry: tuple[RoadGeometry, ...]  # one tag per segment
    # Derived once per route: total arc length, and each segment's length and
    # the arc length at its end.
    length: float = field(init=False, repr=False, compare=False)
    _lengths: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _ends: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # Per segment for progress_of: (x0, y0, dx, dy, squared length, length,
    # arc length at its start). These lengths are square roots of the squared
    # lengths, which can differ from the hypot lengths above in the last bit;
    # each method keeps the arithmetic it has always used.
    _projection: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("route needs at least two waypoints")
        if len(self.geometry) != len(self.waypoints) - 1:
            raise ValueError("route needs one geometry tag per segment")
        projection = []
        lengths = []
        start = 0.0
        for (x0, y0), (x1, y1) in zip(self.waypoints, self.waypoints[1:]):
            dx, dy = x1 - x0, y1 - y0
            seg_len2 = dx * dx + dy * dy
            # progress_of divides by it: distinct points whose squared
            # distance underflows are rejected too.
            if seg_len2 == 0.0:
                raise ValueError("route waypoints must be strictly ordered")
            seg_len = math.sqrt(seg_len2)
            projection.append((x0, y0, dx, dy, seg_len2, seg_len, start))
            lengths.append(math.hypot(dx, dy))
            start += seg_len
        object.__setattr__(self, "_projection", tuple(projection))
        object.__setattr__(self, "_lengths", tuple(lengths))
        object.__setattr__(self, "_ends", tuple(accumulate(lengths)))
        object.__setattr__(self, "length", self._ends[-1])

    def progress_of(self, point: tuple[float, float]) -> float:
        """Arc length of the closest point on the polyline."""
        best_d2 = math.inf
        best_s = 0.0
        px, py = point
        for x0, y0, dx, dy, seg_len2, seg_len, start in self._projection:
            t = ((px - x0) * dx + (py - y0) * dy) / seg_len2
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            cx, cy = x0 + t * dx, y0 + t * dy
            d2 = (px - cx) ** 2 + (py - cy) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best_s = start + t * seg_len
        return best_s

    def point_at(self, s: float) -> tuple[float, float]:
        s = clamp(s, 0.0, self.length)
        i = bisect_left(self._ends, s)  # the first segment ending at or past s (s <= length)
        start = self._ends[i - 1] if i else 0.0
        (x0, y0), (x1, y1) = self.waypoints[i], self.waypoints[i + 1]
        t = (s - start) / self._lengths[i]
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0)

    def target_point(self, progress: float) -> tuple[float, float]:
        return self.point_at(min(progress + TARGET_LOOKAHEAD_M, self.length))

    def geometry_at(self, progress: float) -> RoadGeometry:
        i = bisect_left(self._ends, progress)
        return self.geometry[min(i, len(self.geometry) - 1)]

    def initial_heading(self) -> float:
        (x0, y0), (x1, y1) = self.waypoints[0], self.waypoints[1]
        return math.atan2(y1 - y0, x1 - x0)


@value_type
class DeficitPolicy:
    """The object classes perception masks, and the ticks over which it masks them."""

    classes: frozenset[ObjectClass] = frozenset()
    window: tuple[int, int] = (0, 0)  # [start_tick, end_tick)

    _ALLOWED = frozenset(
        {
            ObjectClass.TRAFFIC_LIGHT,
            ObjectClass.STOP_SIGN,
            ObjectClass.PEDESTRIAN,
            ObjectClass.BICYCLE,
        }
    )

    def __post_init__(self) -> None:
        bad = self.classes - self._ALLOWED
        if bad:
            raise ValueError(f"deficit classes must be safety-critical categories, got {bad}")
        w = self.window
        if not (
            isinstance(w, tuple)
            and len(w) == 2
            and all(type(t) is int for t in w)
            and 0 <= w[0] <= w[1]
        ):
            raise ValueError(f"deficit window must be two ints with 0 <= start <= end, got {w!r}")

    def active(self, tick: int) -> bool:
        return bool(self.classes) and self.window[0] <= tick < self.window[1]


def _point(xy: Any) -> tuple[float, float]:
    x, y = xy
    return typed(x, float, "x"), typed(y, float, "y")


_SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


@value_type
class Scenario:
    """A closed-loop scenario: route, actors, signals, masked classes, conditions and time limit."""

    name: str
    route: Route
    actors: tuple[Actor, ...]
    lights: tuple[TrafficLight, ...] = ()
    signs: tuple[StopSign, ...] = ()
    deficit_policy: DeficitPolicy = DeficitPolicy()
    weather: Weather = Weather.CLEAR
    daylight: Daylight = Daylight.DAY
    traffic_density: TrafficDensity = TrafficDensity.LOW
    time_limit_ticks: int = 600
    # Derived once: each light and sign shaped as a WorldState.actor_states entry (object,
    # x, y, heading), so perceive draws them in the same loop; the ids of each class's actors,
    # lights and signs, which masked_ids reads; and perceive's surrounding with none in front.
    signals: tuple[tuple[Any, float, float, None], ...] = field(
        init=False, repr=False, compare=False
    )
    ids_by_class: dict[ObjectClass, frozenset[int]] = field(init=False, repr=False, compare=False)
    surrounding: Surrounding = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The name keys the scripted table and is the stem of the output
        # files and a summary.csv cell, so it must be one plain file name.
        if not _SCENARIO_NAME.fullmatch(self.name):
            raise ValueError(
                "scenario name must be ASCII letters, digits, '_', '-' and '.', not starting"
                f" with '.', got {self.name!r}"
            )
        objects = (*self.actors, *self.lights, *self.signs)
        ids = [o.id for o in objects]
        if len(ids) != len(set(ids)):
            raise ValueError(f"scenario {self.name}: actor/signal ids must be unique")
        # An always_stop episode runs to the limit and keeps a record per tick.
        if not 1 <= self.time_limit_ticks <= 100_000:
            raise ValueError(f"scenario {self.name}: time_limit_ticks out of [1,100000]")
        signals = tuple((s, *s.position, None) for s in (*self.lights, *self.signs))
        object.__setattr__(self, "signals", signals)
        by_class = {c: frozenset(o.id for o in objects if o.cls is c) for c in ObjectClass}
        object.__setattr__(self, "ids_by_class", by_class)
        surrounding = Surrounding(self.weather, self.daylight, self.traffic_density)
        object.__setattr__(self, "surrounding", surrounding)

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "Scenario":
        """The scenario a JSON object describes; a value of the wrong JSON
        type is rejected, never coerced."""
        policy = d.get("deficit_policy", {})
        return cls(
            name=typed(d["name"], str, "name"),
            route=Route(
                tuple(_point(p) for p in typed(d["route"]["waypoints"], list, "waypoints")),
                tuple(RoadGeometry(g) for g in typed(d["route"]["geometry"], list, "geometry")),
            ),
            actors=tuple(
                Actor(
                    id=typed(a["id"], int, "id"),
                    cls=ObjectClass(a["class"]),
                    script=tuple((typed(t, float, "time"), *_point(xy))
                                 for t, *xy in typed(a["script"], list, "script")),
                    static=typed(a.get("static", False), bool, "static"),
                )
                for a in typed(d.get("actors", []), list, "actors")
            ),
            lights=tuple(
                TrafficLight(
                    id=typed(l["id"], int, "id"),
                    position=_point(l["position"]),
                    stop_line_s=typed(l["stop_line_s"], float, "stop_line_s"),
                    schedule=tuple((typed(t, int, "tick"), LightState(s))
                                   for t, s in typed(l["schedule"], list, "schedule")),
                )
                for l in typed(d.get("traffic_lights", []), list, "traffic_lights")
            ),
            signs=tuple(
                StopSign(
                    id=typed(s["id"], int, "id"),
                    position=_point(s["position"]),
                    stop_line_s=typed(s["stop_line_s"], float, "stop_line_s"),
                )
                for s in typed(d.get("stop_signs", []), list, "stop_signs")
            ),
            deficit_policy=DeficitPolicy(
                classes=frozenset(
                    ObjectClass(c) for c in typed(policy.get("classes", []), list, "classes")
                ),
                window=tuple(  # type: ignore[arg-type]
                    typed(t, int, "tick") for t in typed(policy.get("window", [0, 0]), list, "window")
                ),
            ),
            weather=Weather(d.get("weather", "clear")),
            daylight=Daylight(d.get("daylight", "day")),
            traffic_density=TrafficDensity(d.get("traffic_density", "low")),
            time_limit_ticks=typed(d.get("time_limit_ticks", 600), int, "time_limit_ticks"),
        )

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# World state and dynamics
# ---------------------------------------------------------------------------

@value_type
class EgoState:
    """The ego vehicle's pose, speed, longitudinal acceleration and yaw rate."""

    x: float
    y: float
    heading: float
    v: float = 0.0
    a_x: float = 0.0
    omega_z: float = 0.0

    @property
    def pose(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.heading)


@value_type
class WorldState:
    """The simulated world at one tick: ego, scenario, progress and satisfied stop signs."""

    tick: int
    ego: EgoState
    scenario: Scenario
    params: VehicleParams = VehicleParams()
    ego_progress: float = 0.0
    sign_satisfied: frozenset[int] = frozenset()
    # Derived once per state, as every state is read by detect_infractions:
    # (actor, x, y, heading) of every actor at this tick, and the ids of the
    # actors whose footprint overlaps the ego's. Fields, not cached_property,
    # which needs the instance __dict__ that a slotted value type lacks.
    actor_states: tuple[tuple[Actor, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    collisions: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.tick * self.params.dt
        states = tuple([(a, *a.state_at(t)) for a in self.scenario.actors])
        object.__setattr__(self, "actor_states", states)
        object.__setattr__(self, "collisions", _collisions(self))


def world_from_scenario(scenario: Scenario, params: VehicleParams = VehicleParams()) -> WorldState:
    x0, y0 = scenario.route.waypoints[0]
    ego = EgoState(x=x0, y=y0, heading=scenario.route.initial_heading())
    return WorldState(tick=0, ego=ego, scenario=scenario, params=params, ego_progress=0.0)


def _standing(ego: EgoState) -> bool:
    """Whether a tick that ends at rest gives ``ego`` back bit for bit. At rest the dynamics
    wrap the heading, add a signed zero to each coordinate and write 0.0 speed, acceleration
    and yaw rate; so the ego is kept when its heading is a fixed point of ``wrap_angle``, no
    coordinate is -0.0 (``x + 0.0`` is 0.0) and the other three fields are already 0.0.
    The packed bytes tell -0.0 from 0.0, as ``==`` does not."""
    x, y, h = ego.x, ego.y, ego.heading
    kept = struct.pack("6d", x + 0.0, y + 0.0, h + 0.0, 0.0, 0.0, 0.0)
    return wrap_angle(h) == h and struct.pack("6d", x, y, h, ego.v, ego.a_x, ego.omega_z) == kept


def tick(w: WorldState, a: Action) -> WorldState:
    """Advance one step under the kinematic bicycle model.

    Relies on one invariant: a state's ``ego_progress`` is
    ``route.progress_of`` of its ego position. ``world_from_scenario`` starts
    at 0.0 on the first waypoint and every state returned here keeps it, so an
    ego that does not move keeps its progress without a new projection. An ego
    at rest that the dynamics would rebuild bit for bit is kept as it is.
    """
    dt = w.params.dt
    ego = w.ego
    accel = K_THROTTLE * a.throttle - K_BRAKE * a.brake - DRAG * ego.v
    v_new = max(0.0, ego.v + accel * dt)
    if v_new == 0.0 and _standing(ego):
        ego_new = ego
    else:
        # Positive steer turns right (clockwise), so heading decreases.
        heading_new = wrap_angle(
            ego.heading - (v_new / WHEELBASE) * math.tan(a.steer * MAX_WHEEL_ANGLE) * dt
        )
        x_new = ego.x + v_new * math.cos(heading_new) * dt
        y_new = ego.y + v_new * math.sin(heading_new) * dt
        a_x = (v_new - ego.v) / dt
        omega_z = wrap_angle(heading_new - ego.heading) / dt
        ego_new = EgoState(x_new, y_new, heading_new, v_new, a_x, omega_z)
    scenario = w.scenario
    if v_new == 0.0:
        progress = w.ego_progress
    else:
        progress = scenario.route.progress_of((ego_new.x, ego_new.y))

    satisfied = w.sign_satisfied
    if scenario.signs and v_new <= STOPPED_SPEED:
        satisfied = satisfied.union(
            sign.id
            for sign in scenario.signs
            if sign.stop_line_s - SIGN_ZONE_M <= progress <= sign.stop_line_s
        )
    return WorldState(w.tick + 1, ego_new, scenario, w.params, progress, satisfied)


# ---------------------------------------------------------------------------
# Perception
# ---------------------------------------------------------------------------

# (view, lo, hi) bearing spans in VIEW_ORDER; an object on a shared edge
# lands in the first view that holds it.
_VIEW_SPANS = (
    (ViewName.LEFT, math.radians(30.0), math.radians(90.0)),
    (ViewName.FRONT, math.radians(-30.0), math.radians(30.0)),
    (ViewName.RIGHT, math.radians(-90.0), math.radians(-30.0)),
)
# A view that draws nothing. Views are immutable, so every snapshot shares
# these; nothing relies on a view's identity.
_EMPTY_VIEWS = {v: CameraView(v, (), ()) for v in VIEW_ORDER}
# Enum members read per object, held as module constants: a member read off
# an Enum class is a class attribute lookup CPython 3.11 does not specialise.
_PEDESTRIAN = ObjectClass.PEDESTRIAN


def _project(
    rng: float, rel: float, width: float, height: float
) -> Optional[tuple[ViewName, Box]]:
    """Project an object seen at (range, bearing) to (view, normalized box),
    or None if the object is outside every camera sector."""
    for view, lo, hi in _VIEW_SPANS:
        if lo <= rel <= hi:
            span = hi - lo
            u = (hi - rel) / span
            half_w = math.atan2(width / 2.0, rng) / span
            half_h = math.atan2(height / 2.0, rng) / FOV_V
            x0, x1, y0, y1 = u - half_w, u + half_w, 0.5 - half_h, 0.5 + half_h
            x0 = 0.0 if x0 < 0.0 else 1.0 if x0 > 1.0 else x0
            x1 = 0.0 if x1 < 0.0 else 1.0 if x1 > 1.0 else x1
            y0 = 0.0 if y0 < 0.0 else 1.0 if y0 > 1.0 else y0
            y1 = 0.0 if y1 < 0.0 else 1.0 if y1 > 1.0 else y1
            # Never degenerate: u lies in [0, 1], and within CAMERA_RANGE (40 m)
            # the narrowest class (0.5 m) gives a half_w of at least 0.006.
            return view, Box(x0, y0, x1, y1)
    return None


def masked_ids(w: WorldState, policy: DeficitPolicy) -> frozenset[int]:
    """Ids of actors and signals hidden by the policy at the current tick."""
    if not policy.active(w.tick):
        return frozenset()
    hidden, ids = frozenset(), w.scenario.ids_by_class
    for cls in policy.classes:
        hidden |= ids[cls]
    return hidden


def perceive(w: WorldState, policy: DeficitPolicy) -> EnvironmentSnapshot:
    """Project world contents into the three camera views, applying the
    deficit policy. Masking alters only the snapshot, never the world."""
    ego = w.ego
    ex, ey, heading = ego.x, ego.y, ego.heading
    hidden = masked_ids(w, policy)
    scenario = w.scenario
    # (visible objects, deficit boxes) of each view that receives a box.
    drawn: dict[ViewName, tuple[list[VisibleObject], list[Box]]] = {}
    # The nearest actor in the front view, masked or not, is the nearest
    # obstacle; lights and signs are drawn by the same loop but not counted.
    nearest = None
    for objects, are_actors in ((w.actor_states, True), (scenario.signals, False)):
        for obj, x, y, _h in objects:
            dx, dy = x - ex, y - ey
            rng = math.hypot(dx, dy)
            if rng > CAMERA_RANGE or rng < 1e-6:
                continue
            cls = obj.cls
            dims = _CLASS_DIMS[cls]
            rel = wrap_angle(math.atan2(dy, dx) - heading)
            projected = _project(rng, rel, dims[2], dims[3])
            if projected is None:
                continue
            view, box = projected
            visibles, deficits = drawn.get(view) or drawn.setdefault(view, ([], []))
            if obj.id in hidden:
                deficits.append(box)
            else:
                visibles.append(VisibleObject(cls, box, rng))
            if are_actors and view is _FRONT and (nearest is None or rng < nearest):
                nearest = rng

    views = []
    for name in VIEW_ORDER:
        lists = drawn.get(name)
        if lists is None:
            views.append(_EMPTY_VIEWS[name])
            continue
        visibles, deficits = lists
        if deficits:
            # Anything fully behind a mask cannot be detected.
            visibles = [o for o in visibles if not any(d.contains(o.box) for d in deficits)]
        views.append(CameraView(name, tuple(visibles), tuple(deficits)))

    route, progress = scenario.route, w.ego_progress
    return EnvironmentSnapshot(
        w.tick,
        tuple(views),  # type: ignore[arg-type]
        Navigation(route.target_point(progress), route.geometry_at(progress)),
        scenario.surrounding if nearest is None
        else Surrounding(scenario.weather, scenario.daylight, scenario.traffic_density, nearest),
    )


def measurements(w: WorldState) -> VehicleMeasurements:
    """IMU/speedometer readout plus lead-vehicle gap in the ego corridor."""
    d_follow = math.inf
    cos_h, sin_h = math.cos(w.ego.heading), math.sin(w.ego.heading)
    for actor, x, y, _h in w.actor_states:
        if actor.cls not in LEAD_VEHICLE_CLASSES:
            continue
        dx, dy = x - w.ego.x, y - w.ego.y
        lon = dx * cos_h + dy * sin_h
        lat = -dx * sin_h + dy * cos_h
        if 0.0 < lon <= 60.0 and abs(lat) <= 1.5:
            d_follow = min(d_follow, lon)
    return VehicleMeasurements(
        v=w.ego.v, a_x=w.ego.a_x, omega_z=w.ego.omega_z, d_follow=d_follow
    )


# ---------------------------------------------------------------------------
# Infractions
# ---------------------------------------------------------------------------

def _obb_corners(
    cx: float, cy: float, heading: float, length: float, width: float
) -> list[tuple[float, float]]:
    hl, hw = length / 2.0, width / 2.0
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    return [
        (cx + dx * cos_h - dy * sin_h, cy + dx * sin_h + dy * cos_h)
        for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    ]


def _obb_overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> bool:
    """Separating-axis test for two convex quads."""
    for quad in (a, b):
        for i in range(4):
            x0, y0 = quad[i]
            x1, y1 = quad[(i + 1) % 4]
            ax, ay = y1 - y0, x0 - x1  # edge normal
            proj_a = [ax * px + ay * py for px, py in a]
            proj_b = [ax * px + ay * py for px, py in b]
            if max(proj_a) < min(proj_b) or max(proj_b) < min(proj_a):
                return False
    return True


def _collisions(w: WorldState) -> frozenset[int]:
    # The broad phase rejects every actor on most ticks, so the ego's quad is
    # built only once an actor passes it.
    ego = w.ego
    ex, ey = ego.x, ego.y
    ego_quad = None
    hit = set()
    for actor, x, y, heading in w.actor_states:
        if math.hypot(x - ex, y - ey) > actor._reach:
            continue
        if ego_quad is None:
            ego_quad = _obb_corners(ex, ey, ego.heading, EGO_LENGTH, EGO_WIDTH)
        length, width, _pw, _ph = _CLASS_DIMS[actor.cls]
        if _obb_overlap(ego_quad, _obb_corners(x, y, heading, length, width)):
            hit.add(actor.id)
    return frozenset(hit)


def _collision_kind(actor: Actor) -> InfractionKind:
    if actor.cls is _PEDESTRIAN:
        return InfractionKind.COLLISION_PEDESTRIAN
    if actor.static:
        return InfractionKind.COLLISION_STATIC
    return InfractionKind.COLLISION_VEHICLE


def detect_infractions(w_prev: WorldState, w_next: WorldState) -> list[InfractionEvent]:
    """Infractions that started during the step from ``w_prev`` to ``w_next``.

    Collisions are reported once per contiguous overlap episode (at its first
    tick); line crossings are instantaneous and naturally deduplicated.
    """
    if w_next.tick != w_prev.tick + 1:
        raise ValueError("detect_infractions needs consecutive states")
    events: list[InfractionEvent] = []
    # w_prev's set was computed when it was the previous step's w_next.
    started = w_next.collisions - w_prev.collisions
    if started:
        actors_by_id = {a.id: a for a in w_next.scenario.actors}
        for actor_id in sorted(started):
            kind = _collision_kind(actors_by_id[actor_id])
            events.append(InfractionEvent(w_next.tick, kind, actor_id))

    p_prev, p_next = w_prev.ego_progress, w_next.ego_progress
    for light in w_next.scenario.lights:
        if p_prev < light.stop_line_s <= p_next and light.state_at(w_next.tick) is LightState.RED:
            events.append(InfractionEvent(w_next.tick, InfractionKind.RED_LIGHT, light.id))
    for sign in w_next.scenario.signs:
        if (
            p_prev < sign.stop_line_s <= p_next
            and w_next.ego.v > STOPPED_SPEED
            and sign.id not in w_next.sign_satisfied
        ):
            events.append(InfractionEvent(w_next.tick, InfractionKind.STOP_SIGN, sign.id))
    return events


# ---------------------------------------------------------------------------
# Base agent
# ---------------------------------------------------------------------------

def base_agent(w: WorldState, hidden: frozenset[int] = frozenset()) -> Action:
    """Waypoint following with visible-hazard braking.

    Brakes for red lights, unsatisfied stop signs, and pedestrians in the
    route corridor within braking range; anything in ``hidden`` is invisible
    to it, which reproduces the unprotected failure under deficits.
    """
    progress = w.ego_progress
    route = w.scenario.route

    def ahead(line_s: float) -> bool:
        return 0.0 < line_s - progress <= BASE_AGENT_BRAKE_RANGE_M

    brake = False
    creep = False
    for light in w.scenario.lights:
        if light.id not in hidden and ahead(light.stop_line_s):
            if light.state_at(w.tick) is not LightState.GREEN:
                brake = True
    for sign in w.scenario.signs:
        if sign.id in hidden or sign.id in w.sign_satisfied or not ahead(sign.stop_line_s):
            continue
        # Brake inside the satisfaction zone; creep toward it when stopped
        # short of it, so the stop-and-go cycle always completes.
        if sign.stop_line_s - progress <= SIGN_ZONE_M:
            brake = True
        elif w.ego.v > 1.5:
            brake = True
        else:
            creep = True
    for actor, x, y, _h in w.actor_states:
        if actor.cls is not _PEDESTRIAN or actor.id in hidden:
            continue
        s = route.progress_of((x, y))
        if 0.0 < s - progress <= BASE_AGENT_BRAKE_RANGE_M:
            cx, cy = route.point_at(s)
            if math.hypot(x - cx, y - cy) <= ROUTE_CORRIDOR_HALF_WIDTH_M:
                brake = True
    if brake:
        return FAIL_SAFE_STOP

    target = route.target_point(progress)
    if (target[0], target[1]) == (w.ego.x, w.ego.y):
        return FAIL_SAFE_STOP  # at route end
    steer, _ = compute_steer(w.ego.pose, target, 0.0, w.params.dt, kd=0.0)
    if creep:
        return Action(0.25, 0.0, steer)
    return Action(0.7, 0.0, steer)
