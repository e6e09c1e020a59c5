"""Shared builders for perception snapshots and backend stubs."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from rco.backend import (
    BackendRequest,
    BackendResponse,
    BackendTimeout,
    SchemaViolation,
    TransportFailure,
)
from rco.domain import (
    Box,
    CameraView,
    Daylight,
    EnvironmentSnapshot,
    Navigation,
    ObjectClass,
    RoadGeometry,
    Surrounding,
    TrafficDensity,
    ViewName,
    VisibleObject,
    Weather,
)

DEFAULT_NAVI = Navigation((50.0, 0.0), RoadGeometry.STRAIGHT)
DEFAULT_SURROUNDING = Surrounding(Weather.CLEAR, Daylight.DAY, TrafficDensity.LOW)


def view(
    name: ViewName,
    objects: Iterable[tuple[ObjectClass, Box]] = (),
    deficits: Iterable[Box] = (),
) -> CameraView:
    return CameraView(
        name,
        tuple(VisibleObject(cls, box, 10.0) for cls, box in objects),
        tuple(deficits),
    )


def snapshot(
    tick: int = 0,
    front_deficits: Sequence[Box] = (),
    front_objects: Sequence[tuple[ObjectClass, Box]] = (),
    left_deficits: Sequence[Box] = (),
    right_deficits: Sequence[Box] = (),
    navi: Optional[Navigation] = None,
    surrounding: Optional[Surrounding] = None,
) -> EnvironmentSnapshot:
    return EnvironmentSnapshot(
        tick=tick,
        perception=(
            view(ViewName.LEFT, deficits=left_deficits),
            view(ViewName.FRONT, objects=front_objects, deficits=front_deficits),
            view(ViewName.RIGHT, deficits=right_deficits),
        ),
        navi=navi or DEFAULT_NAVI,
        surrounding=surrounding or DEFAULT_SURROUNDING,
    )


def history_of_counts(counts: Sequence[int], start_tick: int = 0) -> list[EnvironmentSnapshot]:
    """Snapshots whose front view carries the given deficit counts, with
    stable non-overlapping boxes so only quantity varies."""
    frames = []
    for i, n in enumerate(counts):
        boxes = [Box(0.1 + 0.11 * j, 0.4, 0.15 + 0.11 * j, 0.5) for j in range(n)]
        frames.append(snapshot(tick=start_tick + i, front_deficits=boxes))
    return frames


class StubBackend:
    """Returns a canned parsed response, or raises the given error."""

    def __init__(self, parsed=None, error: Optional[Exception] = None, raw: str = "{}"):
        self.parsed = parsed
        self.error = error
        self.raw = raw
        self.requests: list[BackendRequest] = []

    def call(self, req: BackendRequest) -> BackendResponse:
        self.requests.append(req)
        if self.error is not None:
            raise self.error
        return BackendResponse(raw=self.raw, parsed=self.parsed, latency_ms=0.0)


class TimeoutBackend(StubBackend):
    def __init__(self):
        super().__init__(error=BackendTimeout("simulated timeout"))


class UnreachableBackend(StubBackend):
    def __init__(self):
        super().__init__(error=TransportFailure("simulated transport failure"))


# Each way one backend call can leave its caller without a usable answer.
FAILURE_KINDS = ("timeout", "transport", "schema", "parsed_none", "wrong_type")


def failing_backend(kind: str, wrong_answer: object) -> StubBackend:
    """A backend that fails in the given way; ``wrong_answer`` is the parsed
    value of another purpose's type that ``wrong_type`` returns."""
    if kind == "timeout":
        return TimeoutBackend()
    if kind == "transport":
        return UnreachableBackend()
    if kind == "schema":
        return StubBackend(error=SchemaViolation("simulated schema violation"))
    if kind == "parsed_none":
        return StubBackend(parsed=None)
    if kind == "wrong_type":
        return StubBackend(parsed=wrong_answer)
    raise ValueError(f"unknown failure kind: {kind}")
