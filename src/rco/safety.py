"""Context-dependent safety constraints and the trigger/transformation algebra.

The envelope has six limits; each triggered limit transforms one actuator
channel. Throttle terms are summed before a single final clamp, likewise
brake. The deceleration-limit transform reduces brake in proportion to the
excess deceleration (the excess ``-de_max - a_x`` is positive exactly when
the trigger fires).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from . import backend as backend_mod
from .controlmap import clamp
from .domain import (
    BASE_CONSTRAINTS,
    Action,
    Daylight,
    Navigation,
    RoadGeometry,
    SafetyConstraints,
    Surrounding,
    TrafficDensity,
    VehicleMeasurements,
    Weather,
    typed,
    value_type,
)


@value_type
class SafetyGains:
    """Transformation step sizes for throttle and brake, each in (0, 1]."""

    delta_throttle: float = 0.1
    delta_brake: float = 0.1

    def __post_init__(self) -> None:
        for name in ("delta_throttle", "delta_brake"):
            value = typed(getattr(self, name), float, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} out of (0,1]: {value}")


# Per-factor (speed multiplier, distance multiplier). The most restrictive
# factor wins: combined v_max multiplier is the min, d_min multiplier the max.
_WEATHER_MULT = {
    Weather.CLEAR: (1.0, 1.0),
    Weather.RAIN: (0.8, 1.25),
    Weather.FOG: (0.7, 1.4),
    Weather.SNOW: (0.6, 1.5),
}
_DAYLIGHT_MULT = {
    Daylight.DAY: (1.0, 1.0),
    Daylight.DUSK: (0.9, 1.1),
    Daylight.NIGHT: (0.8, 1.25),
}
_TRAFFIC_MULT = {
    TrafficDensity.LOW: (1.0, 1.0),
    TrafficDensity.MEDIUM: (0.9, 1.1),
    TrafficDensity.HIGH: (0.8, 1.25),
}
_GEOMETRY_MULT = {
    RoadGeometry.STRAIGHT: (1.0, 1.0),
    RoadGeometry.LEFT_CURVE: (0.9, 1.1),
    RoadGeometry.RIGHT_CURVE: (0.9, 1.1),
    RoadGeometry.INTERSECTION: (0.6, 1.5),
}


def default_constraints(navi: Navigation, surrounding: Surrounding) -> SafetyConstraints:
    """Rule-based envelope: base limits with v_max/d_min scaled by the most
    restrictive context factor."""
    factors = (
        _WEATHER_MULT[surrounding.weather],
        _DAYLIGHT_MULT[surrounding.daylight],
        _TRAFFIC_MULT[surrounding.traffic_density],
        _GEOMETRY_MULT[navi.road_geometry],
    )
    v_mult = min(f[0] for f in factors)
    d_mult = max(f[1] for f in factors)
    base = BASE_CONSTRAINTS
    return replace(base, v_max=base.v_max * v_mult, d_min=base.d_min * d_mult)


def generate_constraints(
    navi: Navigation,
    surrounding: Surrounding,
    nearest_obstacle_m: Optional[float],
    backend: backend_mod.Backend,
    scenario_key: str = "",
) -> SafetyConstraints:
    """Ask the reasoning backend for an envelope; fall back to the rule-based
    default table on any backend failure or invalid record. Never raises."""
    req = backend_mod.constraints_request(navi, surrounding, nearest_obstacle_m, scenario_key)
    answer = backend_mod.ask(backend, req)
    return default_constraints(navi, surrounding) if answer is None else answer


# Names of the six envelope limits, in the order ``_fired`` evaluates them.
_TRIGGER_NAMES = (
    "max_speed",
    "min_following_distance",
    "max_acceleration",
    "max_deceleration",
    "max_yaw_rate",
    "min_braking_distance",
)


def _fired(m: VehicleMeasurements, sc: SafetyConstraints) -> tuple[bool, ...]:
    """Whether each envelope limit's trigger fires, in ``_TRIGGER_NAMES`` order."""
    return (
        m.v >= sc.v_max,
        m.d_follow < sc.d_min,
        m.a_x > sc.ac_max,
        m.a_x < -sc.de_max,
        abs(m.omega_z) > sc.psi_max,
        m.v * m.v / (2.0 * sc.de_max) > sc.d_brake,
    )


def constrain(
    a: Action, m: VehicleMeasurements, sc: SafetyConstraints, g: SafetyGains
) -> tuple[Action, tuple[str, ...]]:
    """Clamp an action into the safety envelope, and name the limits whose
    triggers fired (for logging). Untriggered limits leave the corresponding
    channel untouched; the result is always a valid Action."""
    fired = _fired(m, sc)
    if not any(fired):
        # Clamping a valid Action is the identity, so ``a`` is the result.
        return a, ()
    speed, follow, accel, decel, yaw, braking = fired
    throttle = a.throttle
    if speed:
        throttle -= g.delta_throttle
    if follow:
        throttle -= g.delta_throttle
    if accel:
        throttle -= g.delta_throttle * (m.a_x - sc.ac_max)

    brake = a.brake
    if braking:
        brake += g.delta_brake
    if decel:
        brake -= g.delta_brake * (-sc.de_max - m.a_x)

    steer = a.steer
    if yaw:
        steer = steer * (sc.psi_max / abs(m.omega_z))

    action = Action(clamp(throttle, 0.0, 1.0), clamp(brake, 0.0, 1.0), clamp(steer, -1.0, 1.0))
    return action, tuple(name for name, hit in zip(_TRIGGER_NAMES, fired) if hit)


def apply_constraints(
    a: Action, m: VehicleMeasurements, sc: SafetyConstraints, g: SafetyGains
) -> Action:
    """The action of ``constrain``, without the names of the fired limits."""
    return constrain(a, m, sc, g)[0]
