"""Episode scoring: route completion, infraction score, driving score,
average speed.

The infraction score multiplies one penalty coefficient per event; a
violation of a signal whose class the deficit policy masks at the violation's
tick is excluded from scoring (the agent could not have seen it).
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Iterable, Mapping, Sequence

from .controlmap import clamp
from .domain import ObjectClass, value_type
from .simenv import DeficitPolicy, InfractionEvent, InfractionKind, Route


DEFAULT_PENALTIES: dict[InfractionKind, float] = {
    InfractionKind.COLLISION_PEDESTRIAN: 0.50,
    InfractionKind.COLLISION_VEHICLE: 0.60,
    InfractionKind.COLLISION_STATIC: 0.65,
    InfractionKind.RED_LIGHT: 0.70,
    InfractionKind.STOP_SIGN: 0.80,
}


def route_completion(route: Route, ego_trajectory: Sequence[tuple[float, float]]) -> float:
    """Percent of the route's arc length covered by the ego's best progress."""
    if not ego_trajectory:
        raise ValueError("trajectory must be nonempty")
    return completion_pct(route, max(route.progress_of(p) for p in ego_trajectory))


def completion_pct(route: Route, best_progress: float) -> float:
    """Route completion for the ego's best arc-length progress along ``route``."""
    return clamp(best_progress / route.length * 100.0, 0.0, 100.0)


# The signal class whose masking excuses each kind of signal violation.
_SIGNAL_CLASS = {InfractionKind.RED_LIGHT: ObjectClass.TRAFFIC_LIGHT,
                 InfractionKind.STOP_SIGN: ObjectClass.STOP_SIGN}


def _excluded(e: InfractionEvent, deficit_policy: DeficitPolicy) -> bool:
    """Whether ``e`` violates a signal whose class is masked at ``e``'s tick."""
    return _SIGNAL_CLASS.get(e.kind) in deficit_policy.classes and deficit_policy.active(e.tick)


def infraction_score(
    events: Iterable[InfractionEvent],
    deficit_policy: DeficitPolicy = DeficitPolicy(),
    penalties: Mapping[InfractionKind, float] = DEFAULT_PENALTIES,
) -> float:
    score = 1.0
    for e in events:
        if _excluded(e, deficit_policy):
            continue
        score *= penalties[e.kind]
    return score


def driving_score(rc: float, is_score: float) -> float:
    if not 0.0 <= rc <= 100.0:
        raise ValueError(f"rc out of [0,100]: {rc}")
    if not 0.0 <= is_score <= 1.0:
        raise ValueError(f"is_score out of [0,1]: {is_score}")
    return rc * is_score


def average_speed(route_length_m: float, game_time_s: float) -> float:
    if game_time_s <= 0.0:
        raise ValueError(f"game time must be positive, got {game_time_s}")
    return route_length_m / game_time_s


@value_type
class EpisodeResult:
    """Scores for one episode; ds is derived as rc * is_score."""

    scenario: str
    mode: str
    rc: float
    is_score: float
    ds: float = field(init=False)
    as_speed: float
    infractions: tuple[InfractionEvent, ...] = ()
    game_time_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ds", driving_score(self.rc, self.is_score))

    @classmethod
    def build(
        cls,
        scenario: str,
        mode: str,
        rc: float,
        is_score: float,
        as_speed: float,
        infractions: tuple[InfractionEvent, ...] = (),
        game_time_s: float = 0.0,
    ) -> "EpisodeResult":
        return cls(scenario, mode, rc, is_score, as_speed, infractions, game_time_s)

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "rc": self.rc,
            "is_score": self.is_score,
            "ds": self.ds,
            "as_speed": self.as_speed,
            "infractions": [e.to_json() for e in self.infractions],
            "game_time_s": self.game_time_s,
        }


@value_type
class Summary:
    """A run's episode results in row order, with their means and CSV form."""

    rows: tuple[EpisodeResult, ...]

    def aggregate(self) -> dict[str, float]:
        """Arithmetic means over episodes, accumulated in row order; zeros when empty."""
        totals = dict.fromkeys(("rc", "is_score", "ds", "as_speed"), 0.0)
        for r in self.rows:
            for key in totals:
                totals[key] += getattr(r, key)
        return {key: total / max(len(self.rows), 1) for key, total in totals.items()}

    def to_csv(self) -> str:
        lines = ["scenario,mode,rc,is,ds,as"]
        for r in self.rows:
            lines.append(
                f"{r.scenario},{r.mode},{r.rc:.6f},{r.is_score:.6f},{r.ds:.6f},{r.as_speed:.6f}"
            )
        agg = self.aggregate()
        lines.append(
            f"mean,,{agg['rc']:.6f},{agg['is_score']:.6f},{agg['ds']:.6f},{agg['as_speed']:.6f}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict[str, Any]:
        return {"episodes": [r.to_json() for r in self.rows], "aggregate": self.aggregate()}
