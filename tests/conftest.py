"""Shared builders for perception snapshots, backend stubs and model answers,
the full-scan consistency reference, and the list of the program's value types."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from hypothesis import strategies as st

from rco.backend import (
    ANSWER_FIELDS,
    ENVELOPE_SLACK,
    BackendRequest,
    BackendResponse,
    BackendTimeout,
    Purpose,
    SchemaViolation,
    TransportFailure,
)
from rco.domain import (
    BASE_CONSTRAINTS,
    Box,
    CameraView,
    Daylight,
    EnvironmentSnapshot,
    Navigation,
    ObjectClass,
    RoadGeometry,
    Strategy,
    Surrounding,
    TrafficDensity,
    ViewName,
    VisibleObject,
    Weather,
)
from rco.verifier import ConsistencyReason, VerifierConfig, check_transition

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


def check_deficit_consistency(
    history: Sequence[EnvironmentSnapshot], cfg: VerifierConfig
) -> ConsistencyReason:
    """The full-scan reference for the consistency run ``verifier.classify``
    carries: the window's first inconsistent transition, oldest first, or
    ``CONSISTENT``."""
    window = history[-cfg.history_len:]
    for prev, cur in zip(window, window[1:]):
        reason = check_transition(prev, cur, cfg.shift_threshold)
        if reason is not ConsistencyReason.CONSISTENT:
            return reason
    return ConsistencyReason.CONSISTENT


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


# The motion fields that a plan of each strategy leaves unread.
_UNREAD_PLAN_FIELDS = {
    Strategy.MOVE.value: ("wait", "trigger"),
    Strategy.STOP_OBSERVE_MOVE.value: ("pairs",),
}


def _field_values(key: str, kind: Any) -> st.SearchStrategy:
    if kind is int:
        return st.integers(0, 10**6)
    if kind is float:
        base = getattr(BASE_CONSTRAINTS, key)
        return st.floats(base / ENVELOPE_SLACK, base * ENVELOPE_SLACK)
    if isinstance(kind, type):
        return st.sampled_from([member.value for member in kind])
    return st.lists(_objects(kind), max_size=4)


def _objects(fields: dict[str, Any]) -> st.SearchStrategy:
    return st.fixed_dictionaries({key: _field_values(key, kind) for key, kind in fields.items()})


def answers(purpose: Purpose) -> st.SearchStrategy:
    """Schema-valid answers for ``purpose``, drawn from ``backend.ANSWER_FIELDS``:
    any token of each vocabulary, waits from 0 to 10**6 and envelope limits
    within ``ENVELOPE_SLACK`` of the base. A plan holds only the fields its
    strategy reads."""
    drawn = _objects(ANSWER_FIELDS[purpose])
    if purpose is not Purpose.SHORT_TERM_MOTION:
        return drawn
    return drawn.map(
        lambda a: {k: v for k, v in a.items() if k not in _UNREAD_PLAN_FIELDS[a["strategy"]]}
    )


SRC = Path(__file__).resolve().parents[1] / "src" / "rco"


def value_types() -> list[type]:
    """Every dataclass the ``src/rco`` modules define."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"rco.{path.stem}")
        found += [
            obj for _, obj in inspect.getmembers(module, inspect.isclass)
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
        ]
    return found
