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
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Any, Optional

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


@dataclass(frozen=True)
class VehicleParams:
    """The simulation step in seconds; the plant is fixed by the constants above."""

    dt: float = 0.1


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


@dataclass(frozen=True)
class InfractionEvent:
    tick: int
    kind: InfractionKind
    actor_id: Optional[int] = None

    def to_json(self) -> dict[str, Any]:
        return {"tick": self.tick, "kind": self.kind.value, "actor_id": self.actor_id}


# ---------------------------------------------------------------------------
# Static scenario pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Actor:
    """Scripted actor: position replayed from timed waypoints (seconds)."""

    id: int
    cls: ObjectClass
    script: tuple[tuple[float, float, float], ...]  # (t_s, x, y), times monotone
    static: bool = False  # True => collisions score as layout/static
    # Derived once per actor: waypoint times and one heading per segment.
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _headings: tuple[float, ...] = field(init=False, repr=False, compare=False)

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


@dataclass(frozen=True)
class TrafficLight:
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


@dataclass(frozen=True)
class StopSign:
    id: int
    position: tuple[float, float]
    stop_line_s: float


@dataclass(frozen=True)
class Route:
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
            t = clamp(t, 0.0, 1.0)
            cx, cy = x0 + t * dx, y0 + t * dy
            d2 = (px - cx) ** 2 + (py - cy) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best_s = start + t * seg_len
        return best_s

    def point_at(self, s: float) -> tuple[float, float]:
        s = clamp(s, 0.0, self.length)
        i = bisect_left(self._ends, s)  # the first segment ending at or past s
        if i == len(self._ends):
            return self.waypoints[-1]
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


@dataclass(frozen=True)
class DeficitPolicy:
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


def _typed(value: Any, kind: type) -> Any:
    """``value`` if its JSON type is ``kind``; a bool is no number, and an
    int is a float (returned as one). A number must be one a float holds:
    ``json`` reads ``NaN``, ``Infinity``, ``1e999`` and ints of any size."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    if kind is not float:
        return value
    # Exact for ints too, and false for NaN.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _point(xy: Any) -> tuple[float, float]:
    x, y = xy
    return _typed(x, float), _typed(y, float)


_SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


@dataclass(frozen=True)
class Scenario:
    name: str
    route: Route
    actors: tuple[Actor, ...]
    lights: tuple[TrafficLight, ...] = ()
    signs: tuple[StopSign, ...] = ()
    deficit_policy: DeficitPolicy = field(default_factory=DeficitPolicy)
    weather: Weather = Weather.CLEAR
    daylight: Daylight = Daylight.DAY
    traffic_density: TrafficDensity = TrafficDensity.LOW
    time_limit_ticks: int = 600

    def __post_init__(self) -> None:
        # The name keys the scripted table and is the stem of the output
        # files and a summary.csv cell, so it must be one plain file name.
        if not _SCENARIO_NAME.fullmatch(self.name):
            raise ValueError(
                "scenario name must be ASCII letters, digits, '_', '-' and '.', not starting"
                f" with '.', got {self.name!r}"
            )
        ids = [a.id for a in self.actors] + [l.id for l in self.lights] + [s.id for s in self.signs]
        if len(ids) != len(set(ids)):
            raise ValueError(f"scenario {self.name}: actor/signal ids must be unique")
        if self.time_limit_ticks < 1:
            raise ValueError(f"scenario {self.name}: time_limit_ticks must be >= 1")

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "Scenario":
        """The scenario a JSON object describes; a value of the wrong JSON
        type is rejected, never coerced."""
        return cls(
            name=_typed(d["name"], str),
            route=Route(
                tuple(_point(p) for p in d["route"]["waypoints"]),
                tuple(RoadGeometry(g) for g in d["route"]["geometry"]),
            ),
            actors=tuple(
                Actor(
                    id=_typed(a["id"], int),
                    cls=ObjectClass(a["class"]),
                    script=tuple((_typed(t, float), *_point(xy)) for t, *xy in a["script"]),
                    static=_typed(a.get("static", False), bool),
                )
                for a in d.get("actors", [])
            ),
            lights=tuple(
                TrafficLight(
                    id=_typed(l["id"], int),
                    position=_point(l["position"]),
                    stop_line_s=_typed(l["stop_line_s"], float),
                    schedule=tuple((_typed(t, int), LightState(s)) for t, s in l["schedule"]),
                )
                for l in d.get("traffic_lights", [])
            ),
            signs=tuple(
                StopSign(
                    id=_typed(s["id"], int),
                    position=_point(s["position"]),
                    stop_line_s=_typed(s["stop_line_s"], float),
                )
                for s in d.get("stop_signs", [])
            ),
            deficit_policy=DeficitPolicy(
                classes=frozenset(
                    ObjectClass(c) for c in d.get("deficit_policy", {}).get("classes", [])
                ),
                window=tuple(  # type: ignore[arg-type]
                    _typed(t, int) for t in d.get("deficit_policy", {}).get("window", [0, 0])
                ),
            ),
            weather=Weather(d.get("weather", "clear")),
            daylight=Daylight(d.get("daylight", "day")),
            traffic_density=TrafficDensity(d.get("traffic_density", "low")),
            time_limit_ticks=_typed(d.get("time_limit_ticks", 600), int),
        )

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# World state and dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EgoState:
    x: float
    y: float
    heading: float
    v: float = 0.0
    a_x: float = 0.0
    omega_z: float = 0.0

    @property
    def pose(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.heading)


@dataclass(frozen=True)
class WorldState:
    tick: int
    ego: EgoState
    scenario: Scenario
    params: VehicleParams = field(default_factory=VehicleParams)
    ego_progress: float = 0.0
    sign_satisfied: frozenset[int] = frozenset()
    # Derived once per state, as every state is read by detect_infractions:
    # (actor, x, y, heading) of every actor at this tick, and the ids of the
    # actors whose footprint overlaps the ego's. Fields, not cached_property:
    # on CPython 3.11 its first read creates the instance __dict__, and every
    # later attribute read on the state then leaves the specialised fast path.
    actor_states: tuple[tuple[Actor, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    collisions: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.tick * self.params.dt
        states = tuple((a, *a.state_at(t)) for a in self.scenario.actors)
        object.__setattr__(self, "actor_states", states)
        object.__setattr__(self, "collisions", _collisions(self))


def world_from_scenario(scenario: Scenario, params: VehicleParams = VehicleParams()) -> WorldState:
    x0, y0 = scenario.route.waypoints[0]
    ego = EgoState(x=x0, y=y0, heading=scenario.route.initial_heading())
    return WorldState(tick=0, ego=ego, scenario=scenario, params=params, ego_progress=0.0)


def tick(w: WorldState, a: Action) -> WorldState:
    """Advance one step under the kinematic bicycle model."""
    dt = w.params.dt
    ego = w.ego
    accel = K_THROTTLE * a.throttle - K_BRAKE * a.brake - DRAG * ego.v
    v_new = max(0.0, ego.v + accel * dt)
    # Positive steer turns right (clockwise), so heading decreases.
    heading_new = wrap_angle(
        ego.heading - (v_new / WHEELBASE) * math.tan(a.steer * MAX_WHEEL_ANGLE) * dt
    )
    x_new = ego.x + v_new * math.cos(heading_new) * dt
    y_new = ego.y + v_new * math.sin(heading_new) * dt
    a_x = (v_new - ego.v) / dt
    omega_z = wrap_angle(heading_new - ego.heading) / dt
    ego_new = EgoState(x_new, y_new, heading_new, v_new, a_x, omega_z)
    progress = w.scenario.route.progress_of((x_new, y_new))

    satisfied = w.sign_satisfied
    if v_new <= STOPPED_SPEED:
        satisfied = satisfied.union(
            sign.id
            for sign in w.scenario.signs
            if sign.stop_line_s - SIGN_ZONE_M <= progress <= sign.stop_line_s
        )
    return WorldState(w.tick + 1, ego_new, w.scenario, w.params, progress, satisfied)


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
_FRONT = ViewName.FRONT
_TRAFFIC_LIGHT = ObjectClass.TRAFFIC_LIGHT
_STOP_SIGN = ObjectClass.STOP_SIGN
_PEDESTRIAN = ObjectClass.PEDESTRIAN


def _bearing(ego: EgoState, pos: tuple[float, float]) -> Optional[tuple[float, float]]:
    """(range, bearing relative to the ego heading) of a world position; None
    if it is out of camera range."""
    dx, dy = pos[0] - ego.x, pos[1] - ego.y
    rng = math.hypot(dx, dy)
    if rng < 1e-6 or rng > CAMERA_RANGE:
        return None
    return rng, wrap_angle(math.atan2(dy, dx) - ego.heading)


def _project(
    rng: float, rel: float, width: float, height: float
) -> Optional[tuple[ViewName, Optional[Box]]]:
    """Project an object seen at (range, bearing) to (view, normalized box);
    the box is None if it is too small to draw, and the result None if the
    object is outside every camera sector."""
    for view, lo, hi in _VIEW_SPANS:
        if lo <= rel <= hi:
            span = hi - lo
            u = (hi - rel) / span
            half_w = math.atan2(width / 2.0, rng) / span
            half_h = math.atan2(height / 2.0, rng) / FOV_V
            x0, x1 = clamp(u - half_w, 0.0, 1.0), clamp(u + half_w, 0.0, 1.0)
            y0, y1 = clamp(0.5 - half_h, 0.0, 1.0), clamp(0.5 + half_h, 0.0, 1.0)
            if x1 - x0 < 1e-9 or y1 - y0 < 1e-9:
                return view, None
            return view, Box(x0, y0, x1, y1)
    return None


def masked_ids(w: WorldState, policy: DeficitPolicy) -> frozenset[int]:
    """Ids of actors and signals hidden by the policy at the current tick."""
    if not policy.active(w.tick):
        return frozenset()
    classes = policy.classes
    out = {a.id for a in w.scenario.actors if a.cls in classes}
    if _TRAFFIC_LIGHT in classes:
        out.update(l.id for l in w.scenario.lights)
    if _STOP_SIGN in classes:
        out.update(s.id for s in w.scenario.signs)
    return frozenset(out)


def perceive(w: WorldState, policy: DeficitPolicy) -> EnvironmentSnapshot:
    """Project world contents into the three camera views, applying the
    deficit policy. Masking alters only the snapshot, never the world."""
    ego = w.ego
    hidden = masked_ids(w, policy)
    # (visible objects, deficit boxes) of each view that receives a box.
    drawn: dict[ViewName, tuple[list[VisibleObject], list[Box]]] = {}

    def add(
        obj_id: int, cls: ObjectClass, pos: tuple[float, float]
    ) -> Optional[tuple[float, ViewName]]:
        """Draw one object into its view; (range, view) if it lies in one."""
        seen = _bearing(ego, pos)
        if seen is None:
            return None
        dims = _CLASS_DIMS[cls]
        projected = _project(seen[0], seen[1], dims[2], dims[3])
        if projected is None:
            return None
        view, box = projected
        if box is not None:
            visibles, deficits = drawn.get(view) or drawn.setdefault(view, ([], []))
            if obj_id in hidden:
                deficits.append(box)
            else:
                visibles.append(VisibleObject(cls, box, seen[0]))
        return seen[0], view

    # The nearest actor in the front view, masked or not, is the nearest
    # obstacle.
    nearest = None
    for actor, x, y, _h in w.actor_states:
        placed = add(actor.id, actor.cls, (x, y))
        if placed is not None and placed[1] is _FRONT:
            if nearest is None or placed[0] < nearest:
                nearest = placed[0]
    scenario = w.scenario
    for light in scenario.lights:
        add(light.id, _TRAFFIC_LIGHT, light.position)
    for sign in scenario.signs:
        add(sign.id, _STOP_SIGN, sign.position)

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
        Surrounding(scenario.weather, scenario.daylight, scenario.traffic_density, nearest),
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
    ego_quad = None
    hit = set()
    for actor, x, y, heading in w.actor_states:
        length, width, _pw, _ph = _CLASS_DIMS[actor.cls]
        if length == 0.0:
            continue
        if math.hypot(x - w.ego.x, y - w.ego.y) > (length + EGO_LENGTH):
            continue
        if ego_quad is None:
            ego_quad = _obb_corners(w.ego.x, w.ego.y, w.ego.heading, EGO_LENGTH, EGO_WIDTH)
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
