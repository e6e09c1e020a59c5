"""Pluggable reasoning backend: deterministic scripted tables for tests and a
chat-completions HTTP client for real models.

Every response goes through strict structured-output parsing: the first JSON
object embedded in the raw text is extracted and validated against the
purpose's schema. Unknown tokens are rejections, never coercions, so a caller
either sees a fully-parsed value or a SchemaViolation. ``ask`` is the one
place a backend is called: it maps every failure to None, and each caller
maps None to its risk-averse fallback.

A request carries what the model is asked about, not the text of the
question: one frozen record of structured inputs per purpose (the hazard frame
window; hazards, strategy and road geometry; the driving context), plus a
payload holding only the routing field, the scenario key. ``HttpBackend`` is
the only backend that renders the prompt, with ``req.inputs.render()``, and
the only one that reads the inputs; ``ScriptedBackend`` reads the purpose
and the payload alone. Prompt templates are read from the package once per
process.
"""

from __future__ import annotations

import json
import logging
import os
import time
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from functools import cache
from importlib import resources
from typing import Any, Callable, Optional, Protocol, Sequence, Union

from .domain import (
    BASE_CONSTRAINTS,
    ActionSequence,
    Behavior,
    ConditionActionPair,
    Daylight,
    EnvironmentSnapshot,
    ExecutionCondition,
    Hazard,
    HighLevelAction,
    MotionKind,
    MotionPlan,
    Navigation,
    ObjectClass,
    OutOfRangeError,
    RoadGeometry,
    SafetyConstraints,
    SpeedControl,
    Strategy,
    Surrounding,
    TrafficDensity,
    Weather,
)

log = logging.getLogger(__name__)

ENV_URL = "RCO_BACKEND_URL"
ENV_MODEL = "RCO_BACKEND_MODEL"
ENV_TOKEN = "RCO_BACKEND_TOKEN"
HTTP_TIMEOUT_S = 2.0  # per request

# A backend's envelope may loosen each base limit by at most this factor:
# raise v_max, ac_max, de_max, psi_max and d_brake, or lower d_min.
ENVELOPE_SLACK = 4.0


class BackendError(Exception):
    """Base for transport and parsing failures; callers map these to
    risk-averse fallbacks."""


class BackendTimeout(BackendError):
    pass


class TransportFailure(BackendError):
    pass


class SchemaViolation(BackendError):
    def __init__(self, message: str, field: Optional[str] = None):
        detail = message
        if field is not None:
            detail += f" (field: {field})"
        super().__init__(detail)
        self.field = field


class Purpose(str, Enum):
    HAZARD_AND_PLAN = "hazard_and_plan"
    SHORT_TERM_MOTION = "short_term_motion"
    SAFETY_CONSTRAINTS = "safety_constraints"


@dataclass(frozen=True)
class BackendRequest:
    purpose: Purpose
    inputs: Inputs  # the purpose's structured inputs
    payload: str  # canonical JSON of the routing field: scenario_key

    def scenario_key(self) -> str:
        """The payload's routing key; "" when it is missing or not a string."""
        try:
            key = json.loads(self.payload).get("scenario_key")
        except (json.JSONDecodeError, AttributeError):
            return ""
        return key if isinstance(key, str) else ""


@dataclass(frozen=True)
class HazardAndPlan:
    hazards: tuple[Hazard, ...]
    strategy: Strategy


Parsed = Union[HazardAndPlan, MotionPlan, SafetyConstraints]


@dataclass(frozen=True)
class BackendResponse:
    raw: str
    parsed: Optional[Parsed]
    latency_ms: float = 0.0


class Backend(Protocol):
    def call(self, req: BackendRequest) -> BackendResponse: ...


# ---------------------------------------------------------------------------
# Structured-output parsing
# ---------------------------------------------------------------------------

def extract_first_json_object(raw: str) -> dict[str, Any]:
    """Return the first balanced JSON object in ``raw``."""
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _end = decoder.raw_decode(raw, idx)
        except json.JSONDecodeError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = raw.find("{", idx + 1)
    raise SchemaViolation("no JSON object found in response")


def _enum_field(d: dict[str, Any], key: str, enum_cls: type, *, where: str) -> Any:
    if key not in d:
        raise SchemaViolation(f"missing field in {where}", field=key)
    try:
        return enum_cls(d[key])
    except ValueError:
        raise SchemaViolation(f"unknown {key} token: {d[key]!r}", field=key) from None


def _parse_hazard_and_plan(obj: dict[str, Any]) -> HazardAndPlan:
    hazards_raw = obj.get("hazards")
    if not isinstance(hazards_raw, list):
        raise SchemaViolation("hazards must be a list", field="hazards")
    hazards = []
    for h in hazards_raw:
        if not isinstance(h, dict):
            raise SchemaViolation("hazard entries must be objects", field="hazards")
        hazards.append(
            Hazard(
                _enum_field(h, "object", ObjectClass, where="hazard"),
                _enum_field(h, "motion", MotionKind, where="hazard"),
            )
        )
    strategy = _enum_field(obj, "strategy", Strategy, where="hazard_and_plan")
    return HazardAndPlan(tuple(hazards), strategy)


def _parse_plan(obj: dict[str, Any]) -> MotionPlan:
    """The plan as sent: uncapped, with ``created_tick`` 0; the planner
    applies the step limit, and the wait expansion the wait cap."""
    strategy = _enum_field(obj, "strategy", Strategy, where="plan")
    if strategy is Strategy.MOVE:
        pairs_raw = obj.get("pairs")
        if not isinstance(pairs_raw, list):
            raise SchemaViolation("move plan requires a pairs list", field="pairs")
        pairs = []
        for p in pairs_raw:
            if not isinstance(p, dict):
                raise SchemaViolation("pair entries must be objects", field="pairs")
            pairs.append(
                ConditionActionPair(
                    _enum_field(p, "condition", ExecutionCondition, where="pair"),
                    HighLevelAction(
                        _enum_field(p, "behavior", Behavior, where="pair"),
                        _enum_field(p, "speed", SpeedControl, where="pair"),
                    ),
                )
            )
        return MotionPlan(strategy, sequence=ActionSequence(tuple(pairs), 0))
    wait = obj.get("wait")
    if not isinstance(wait, int) or isinstance(wait, bool) or wait < 0:
        raise SchemaViolation("wait must be a non-negative integer", field="wait")
    trigger = _enum_field(obj, "trigger", ExecutionCondition, where="plan")
    return MotionPlan(strategy, wait_ticks=wait, move_trigger=trigger)


def _parse_constraints(obj: dict[str, Any]) -> SafetyConstraints:
    fields = ("v_max", "d_min", "ac_max", "de_max", "psi_max", "d_brake")
    values = {}
    for f in fields:
        v = obj.get(f)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaViolation("constraint fields must be numbers", field=f)
        base = getattr(BASE_CONSTRAINTS, f)
        if (v < base / ENVELOPE_SLACK) if f == "d_min" else (v > base * ENVELOPE_SLACK):
            raise SchemaViolation(f"constraint looser than {ENVELOPE_SLACK}x base", field=f)
        values[f] = float(v)
    try:
        return SafetyConstraints(**values)
    except OutOfRangeError as exc:
        raise SchemaViolation(f"constraint out of range: {exc}", field=exc.field_name) from None


# Each purpose's parser and the type of the answer it yields.
_SCHEMAS: dict[Purpose, tuple[Callable[[dict[str, Any]], Parsed], type]] = {
    Purpose.HAZARD_AND_PLAN: (_parse_hazard_and_plan, HazardAndPlan),
    Purpose.SHORT_TERM_MOTION: (_parse_plan, MotionPlan),
    Purpose.SAFETY_CONSTRAINTS: (_parse_constraints, SafetyConstraints),
}


def parse_structured(raw: str, purpose: Purpose) -> Parsed:
    """Extract and validate the first JSON object of ``raw`` per purpose."""
    return _SCHEMAS[purpose][0](extract_first_json_object(raw))


def ask(backend: Backend, req: BackendRequest) -> Optional[Parsed]:
    """The backend's answer to ``req``, or None when the call raises or the
    answer is not of the purpose's type. The caller falls back on None."""
    try:
        parsed = backend.call(req).parsed
    except BackendError as exc:
        log.info("%s fell back: %s", req.purpose.value, exc)
        return None
    if not isinstance(parsed, _SCHEMAS[req.purpose][1]):
        log.info("%s fell back: unusable answer %r", req.purpose.value, parsed)
        return None
    return parsed


# ---------------------------------------------------------------------------
# Structured inputs, their rendering, and the request builders (shared by
# planner and safety)
# ---------------------------------------------------------------------------

@cache
def _template(name: str) -> str:
    return resources.files("rco").joinpath(f"prompts/{name}.txt").read_text(encoding="utf-8")


def _render_prompt(name: str, **subs: str) -> str:
    text = _template(name)
    for key, value in subs.items():
        text = text.replace("{" + key + "}", value)
    return text


@cache
def _routing_payload(scenario_key: str) -> str:
    return json.dumps({"scenario_key": scenario_key})


def _history_text(history: Sequence[EnvironmentSnapshot]) -> str:
    lines = []
    for snap in history:
        parts = []
        for view in snap.perception:
            objs = ", ".join(
                f"{o.cls.value}@{o.range_m:.0f}m" for o in view.visible_objects
            ) or "nothing"
            defs = f"{len(view.deficits)} deficit region(s)" if view.deficits else "no deficits"
            parts.append(f"{view.view.value}: {objs}; {defs}")
        lines.append(f"tick {snap.tick}: " + " | ".join(parts))
    return "\n".join(lines)


@dataclass(frozen=True)
class HazardInputs:
    """What hazard inference reads: the frame window, oldest first."""

    frames: tuple[EnvironmentSnapshot, ...]

    def render(self) -> str:
        return _render_prompt("hazard_inference", history=_history_text(self.frames))


@dataclass(frozen=True)
class MotionInputs:
    """What the short-term motion planner reads."""

    hazards: tuple[Hazard, ...]
    strategy: Strategy
    geometry: RoadGeometry

    def render(self) -> str:
        hazards = ", ".join(f"{h.object.value} ({h.motion.value})" for h in self.hazards)
        return _render_prompt(
            "short_term_motion",
            hazards=hazards or "none",
            strategy=self.strategy.value,
            geometry=self.geometry.value,
        )


@dataclass(frozen=True)
class ConstraintsInputs:
    """What the safety-constraint generator reads: the driving context."""

    weather: Weather
    daylight: Daylight
    traffic: TrafficDensity
    geometry: RoadGeometry
    nearest_obstacle_m: Optional[float]

    def render(self) -> str:
        obstacle = self.nearest_obstacle_m
        return _render_prompt(
            "safety_constraints",
            weather=self.weather.value,
            daylight=self.daylight.value,
            traffic=self.traffic.value,
            geometry=self.geometry.value,
            obstacle="none" if obstacle is None else f"{obstacle:.1f} m",
        )


Inputs = Union[HazardInputs, MotionInputs, ConstraintsInputs]

# Read every planning round; CPython 3.11 does not specialise Enum member reads.
_HAZARD_AND_PLAN = Purpose.HAZARD_AND_PLAN
_SHORT_TERM_MOTION = Purpose.SHORT_TERM_MOTION


def hazard_request(
    history: Sequence[EnvironmentSnapshot], scenario_key: str
) -> BackendRequest:
    inputs = HazardInputs(tuple(history))
    return BackendRequest(_HAZARD_AND_PLAN, inputs, _routing_payload(scenario_key))


def motion_request(
    hazards: tuple[Hazard, ...],
    strategy: Strategy,
    navi: Navigation,
    snapshot: EnvironmentSnapshot,
    scenario_key: str,
) -> BackendRequest:
    inputs = MotionInputs(hazards, strategy, navi.road_geometry)
    return BackendRequest(_SHORT_TERM_MOTION, inputs, _routing_payload(scenario_key))


def constraints_request(
    navi: Navigation,
    surrounding: Surrounding,
    nearest_obstacle_m: Optional[float],
    scenario_key: str,
) -> BackendRequest:
    inputs = ConstraintsInputs(
        surrounding.weather,
        surrounding.daylight,
        surrounding.traffic_density,
        navi.road_geometry,
        nearest_obstacle_m,
    )
    return BackendRequest(Purpose.SAFETY_CONSTRAINTS, inputs, _routing_payload(scenario_key))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Deterministic table lookup keyed by (purpose, scenario key).

    Table shape: ``{purpose_value: {scenario_key: response_object}}``. The
    key is read from the request's routing payload; the structured inputs are
    never read, so no prompt is rendered. The response object is serialized
    and parsed through the same structured parser as real model output, so
    both paths share one schema. The first successful answer is memoised per
    ``(purpose, payload)``: the builders pass the same cached payload string
    every time, so a repeated call decodes no JSON. A missing or malformed
    entry raises SchemaViolation on every call. ``table`` stays the raw dict.
    """

    def __init__(self, table: dict[str, dict[str, Any]]):
        self.table = table
        self._answers: dict[tuple[Purpose, str], BackendResponse] = {}

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        """The table a JSON file holds; ValueError unless it is an object
        whose values are objects, the shape every call looks a key up in."""
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        if not isinstance(table, dict) or not all(isinstance(v, dict) for v in table.values()):
            raise ValueError("scripted table must be a JSON object whose values are objects")
        return cls(table)

    @classmethod
    def bundled(cls) -> "ScriptedBackend":
        text = resources.files("rco").joinpath("data/scripted_responses.json").read_text(
            encoding="utf-8"
        )
        return cls(json.loads(text))

    def call(self, req: BackendRequest) -> BackendResponse:
        memo_key = (req.purpose, req.payload)
        answer = self._answers.get(memo_key)
        if answer is None:
            key = req.scenario_key()
            entry = self.table.get(req.purpose.value, {}).get(key)
            if entry is None:
                raise SchemaViolation(f"no scripted response for key {key!r}", field="scenario_key")
            raw = json.dumps(entry, sort_keys=True, separators=(",", ":"))
            answer = BackendResponse(raw=raw, parsed=parse_structured(raw, req.purpose))
            self._answers[memo_key] = answer
        return answer


_SYSTEM_PREAMBLES = {
    Purpose.HAZARD_AND_PLAN: (
        "You are a driving hazard analyst. Respond with a single JSON object: "
        '{"hazards": [{"object": ..., "motion": ...}], "strategy": "move"|"stop_observe_move"}.'
    ),
    Purpose.SHORT_TERM_MOTION: (
        "You are a short-term motion planner. Respond with a single JSON object, either "
        '{"strategy": "move", "pairs": [{"condition": ..., "behavior": ..., "speed": ...}]} or '
        '{"strategy": "stop_observe_move", "wait": <int>, "trigger": ...}.'
    ),
    Purpose.SAFETY_CONSTRAINTS: (
        "You set vehicle safety limits. Respond with a single JSON object with numeric fields "
        "v_max, d_min, ac_max, de_max, psi_max, d_brake (SI units)."
    ),
}


class HttpBackend:
    """Chat-completions client: POST {model, messages, temperature=0} with a
    bearer token, parse the first completion's content."""

    def __init__(self, url: str, model: str, token: str = ""):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"backend url must be http(s)://host/..., got {url!r}")
        self.url = url
        self.model = model
        self.token = token

    @classmethod
    def from_env(cls) -> "HttpBackend":
        return cls(
            url=os.environ.get(ENV_URL, ""),
            model=os.environ.get(ENV_MODEL, "default"),
            token=os.environ.get(ENV_TOKEN, ""),
        )

    def call(self, req: BackendRequest) -> BackendResponse:
        # Imported here, not at module top: urllib.request loads ssl, which
        # costs every run tens of milliseconds and megabytes even when it
        # never makes an HTTP call.
        import http.client
        import urllib.request
        from urllib.error import HTTPError, URLError

        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": _SYSTEM_PREAMBLES[req.purpose]},
                {"role": "user", "content": req.inputs.render()},
            ],
            "temperature": 0,
        }
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        start = time.perf_counter()
        try:
            post = urllib.request.Request(self.url, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(post, timeout=HTTP_TIMEOUT_S) as resp:
                status = resp.status
                text = resp.read()
        except HTTPError as exc:  # 4xx and 5xx
            raise TransportFailure(f"HTTP {exc.code}: {exc.reason}") from exc
        except TimeoutError as exc:  # read timeout
            raise BackendTimeout(str(exc)) from exc
        except URLError as exc:  # connect failures; a connect timeout is its reason
            if isinstance(exc.reason, TimeoutError):
                raise BackendTimeout(str(exc.reason)) from exc
            raise TransportFailure(str(exc)) from exc
        # A truncated body raises IncompleteRead, an HTTPException; a token
        # containing a newline raises ValueError (invalid header value).
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportFailure(f"{type(exc).__name__}: {exc}") from exc
        latency_ms = (time.perf_counter() - start) * 1000.0
        if status != 200:
            raise TransportFailure(f"HTTP {status}")
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise SchemaViolation(f"malformed completion envelope: {exc}") from exc
        if not isinstance(content, str):
            raise SchemaViolation(f"completion content is {type(content).__name__}", field="content")
        parsed = parse_structured(content, req.purpose)
        return BackendResponse(raw=content, parsed=parsed, latency_ms=latency_ms)
