"""Structured-output parsing, scripted lookup, and the HTTP client."""

from __future__ import annotations

import ast
import contextlib
import copy
import hashlib
import json
import re
import threading
import time
from collections import Counter
from enum import Enum
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.error import URLError

import pytest
from hypothesis import given, settings, strategies as st

from rco import backend as backend_mod
from rco.backend import (
    ANSWER_FIELDS,
    BackendRequest,
    BackendTimeout,
    ConstraintsInputs,
    HazardAndPlan,
    HazardInputs,
    HttpBackend,
    MotionInputs,
    Purpose,
    SchemaViolation,
    ScriptedBackend,
    TransportFailure,
    constraints_request,
    hazard_request,
    motion_request,
    parse_structured,
)
import rco
from rco import simenv
from rco.cli import bundled_scenario_dir, main
from rco.domain import (
    Behavior,
    Box,
    CameraView,
    Daylight,
    EnvironmentSnapshot,
    ExecutionCondition,
    Hazard,
    MotionKind,
    MotionPlan,
    Navigation,
    ObjectClass,
    RoadGeometry,
    SafetyConstraints,
    SpeedControl,
    Strategy,
    Surrounding,
    TrafficDensity,
    ViewName,
    VisibleObject,
    Weather,
)
from rco.runner import Mode, run_episode
from conftest import DEFAULT_NAVI, DEFAULT_SURROUNDING, answers, snapshot


def payload_for(key: str) -> str:
    return json.dumps({"scenario_key": key})


# One inputs record per purpose; the scripted backend answers by key alone.
INPUTS = {
    Purpose.HAZARD_AND_PLAN: HazardInputs((snapshot(),)),
    Purpose.SHORT_TERM_MOTION: MotionInputs((), Strategy.MOVE, RoadGeometry.STRAIGHT),
    Purpose.SAFETY_CONSTRAINTS: ConstraintsInputs(
        Weather.CLEAR, Daylight.DAY, TrafficDensity.LOW, RoadGeometry.STRAIGHT, None
    ),
}


def request_for(purpose: Purpose, payload: str) -> BackendRequest:
    return BackendRequest(purpose, INPUTS[purpose], payload)


class TestParseStructured:
    def test_nesting_past_the_recursion_limit_stops_the_scan(self):
        # Scanning on from each inner "{" would re-read the nesting each time.
        raw = '{"a": ' + '{"a": ' * 100_000 + '{"strategy": "stop_observe_move"}'
        with pytest.raises(SchemaViolation, match="nested too deep"):
            parse_structured(raw, Purpose.SHORT_TERM_MOTION)

    def test_scan_resumes_at_the_next_brace(self):
        # The first "{" opens no object; the object opens at the very next one.
        assert backend_mod.extract_first_json_object('{{"a": 1}') == {"a": 1}

    def test_move_plan(self):
        raw = (
            '{"strategy":"move","pairs":[{"condition":"consistent_no_immediate_hazard",'
            '"behavior":"move_forward","speed":"constant_speed"}]}'
        )
        plan = parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert isinstance(plan, MotionPlan)
        assert plan.strategy is Strategy.MOVE
        assert len(plan.sequence.pairs) == 1
        assert plan.sequence.pairs[0].condition is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD
        assert plan.sequence.pairs[0].action.behavior is Behavior.MOVE_FORWARD
        assert plan.sequence.pairs[0].action.speed is SpeedControl.CONSTANT_SPEED

    def test_wait_plan(self):
        raw = '{"strategy":"stop_observe_move","wait":3,"trigger":"consistent_no_immediate_hazard"}'
        plan = parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert plan.strategy is Strategy.STOP_OBSERVE_MOVE
        assert plan.wait_ticks == 3
        assert plan.move_trigger is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD

    def test_hazards(self):
        raw = '{"hazards":[{"object":"pedestrian","motion":"crossing"}],"strategy":"stop_observe_move"}'
        parsed = parse_structured(raw, Purpose.HAZARD_AND_PLAN)
        assert isinstance(parsed, HazardAndPlan)
        assert parsed.hazards[0].object is ObjectClass.PEDESTRIAN
        assert parsed.hazards[0].motion is MotionKind.CROSSING
        assert parsed.strategy is Strategy.STOP_OBSERVE_MOVE

    def test_constraints(self):
        raw = '{"v_max":10,"d_min":5,"ac_max":3,"de_max":5,"psi_max":0.6,"d_brake":10}'
        parsed = parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert parsed == SafetyConstraints(10.0, 5.0, 3.0, 5.0, 0.6, 10.0)

    def test_prose_with_no_json_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_structured("the vehicle should proceed with caution", Purpose.SHORT_TERM_MOTION)

    def test_unknown_tokens_rejected_not_coerced(self):
        raw = '{"strategy":"move","pairs":[{"condition":"always","behavior":"fly","speed":"warp"}]}'
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert exc.value.field == "condition"

    def test_negative_wait_rejected(self):
        # The one check of a wait's sign: MotionPlan itself checks nothing.
        raw = '{"strategy":"stop_observe_move","wait":-1,"trigger":"consistent_no_immediate_hazard"}'
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert exc.value.field == "wait"

    def test_nonpositive_constraint_rejected(self):
        raw = '{"v_max":0,"d_min":5,"ac_max":3,"de_max":5,"psi_max":0.6,"d_brake":10}'
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == "v_max"

    def test_infinite_constraints_rejected(self):
        # The JSON parser accepts Infinity and 1e999; an infinite limit never
        # fires, so a backend could switch the envelope off with it.
        raw = (
            '{"v_max": Infinity, "d_min": 1e999, "ac_max": 1e999, "de_max": 1e999, '
            '"psi_max": Infinity, "d_brake": 1e999}'
        )
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == "v_max"

    @pytest.mark.parametrize("field", ["v_max", "d_min", "ac_max", "de_max", "psi_max", "d_brake"])
    def test_each_infinite_constraint_names_its_field(self, field):
        obj = {"v_max": 10, "d_min": 5, "ac_max": 3, "de_max": 5, "psi_max": 0.6, "d_brake": 10}
        raw = json.dumps(obj).replace(f'"{field}": {obj[field]}', f'"{field}": 1e999')
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == field

    # Each limit just past four times its base value in the loosening
    # direction (base: v_max 8, d_min 6, ac_max 2.5, de_max 6, psi_max 0.5,
    # d_brake 8), and the same limit exactly at the bound.
    LOOSE = {"v_max": 32.5, "d_min": 1.4, "ac_max": 10.5, "de_max": 24.5, "psi_max": 2.1,
             "d_brake": 32.5}
    AT_BOUND = {"v_max": 32, "d_min": 1.5, "ac_max": 10, "de_max": 24, "psi_max": 2.0,
                "d_brake": 32}

    @pytest.mark.parametrize("field", sorted(LOOSE))
    def test_each_loosened_constraint_names_its_field(self, field):
        obj = {"v_max": 10, "d_min": 5, "ac_max": 3, "de_max": 5, "psi_max": 0.6, "d_brake": 10}
        raw = json.dumps({**obj, field: self.LOOSE[field]})
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == field

    def test_constraints_at_the_loosening_bound_accepted(self):
        parsed = parse_structured(json.dumps(self.AT_BOUND), Purpose.SAFETY_CONSTRAINTS)
        assert parsed == SafetyConstraints(**self.AT_BOUND)

    def test_first_json_object_extracted_from_prose(self):
        raw = 'Sure! Here is the plan:\n```json\n{"strategy":"stop_observe_move","wait":2,"trigger":"consistent_immediate_hazard"}\n```\nthanks'
        plan = parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert plan.wait_ticks == 2

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200), st.sampled_from(Purpose))
    def test_never_panics_on_arbitrary_text(self, raw, purpose):
        try:
            parse_structured(raw, purpose)
        except SchemaViolation:
            pass  # the only acceptable failure mode


def _flat(text: str) -> str:
    return " ".join(text.split())


def _keys(text: str) -> set[str]:
    """The keys of the JSON examples in ``text``."""
    return set(re.findall(r'"(\w+)":', text))


def _strategies(text: str) -> set[str]:
    """The tokens that ``text``'s JSON examples give "strategy"."""
    spelled = " ".join(re.findall(r'"strategy": ((?:"\w+" ?\|? ?)+)', text))
    return set(re.findall(r'"(\w+)"', spelled))


def _listed(text: str, start: str, end: str, sep: str) -> set[str]:
    """The tokens listed, separated by ``sep``, between ``start`` and ``end``."""
    return set(text.split(start, 1)[1].split(end, 1)[0].split(sep))


def hand_spelled() -> list[tuple[str, Purpose, str, set[str]]]:
    """(source, purpose, vocabulary, tokens) for every vocabulary that a prompt
    template or a system preamble spells by hand, after normalising whitespace.
    "fields" names the field names; any other vocabulary is a field's tokens.
    The hazard prompt lists no object or motion tokens."""
    hazard, motion, envelope = (
        _flat(backend_mod._template(name))
        for name in ("hazard_inference", "short_term_motion", "safety_constraints")
    )
    preamble = {p: _flat(text) for p, text in backend_mod._SYSTEM_PREAMBLES.items()}
    h, m, s = Purpose.HAZARD_AND_PLAN, Purpose.SHORT_TERM_MOTION, Purpose.SAFETY_CONSTRAINTS
    return [
        ("hazard prompt", h, "fields", _keys(hazard)),
        ("hazard prompt", h, "strategy", _strategies(hazard)),
        ("hazard preamble", h, "fields", _keys(preamble[h])),
        ("hazard preamble", h, "strategy", _strategies(preamble[h])),
        ("motion prompt", m, "fields", _keys(motion)),
        ("motion prompt", m, "strategy", _strategies(motion)),
        ("motion prompt", m, "behavior", _listed(motion, "driving behavior (", ")", ", ")),
        ("motion prompt", m, "speed", _listed(motion, "speed token (", ")", ", ")),
        ("motion prompt", m, "condition", _listed(motion, "may run: ", ".", " or ")),
        ("motion preamble", m, "fields", _keys(preamble[m])),
        ("motion preamble", m, "strategy", _strategies(preamble[m])),
        ("envelope prompt", s, "fields", _keys(envelope)),
        ("envelope preamble", s, "fields", _listed(preamble[s], "numeric fields ", " (SI", ", ")),
    ]


def _walk(fields: dict):
    """(key, kind) of every declared field, an entry's fields included."""
    for key, kind in fields.items():
        yield key, kind
        if isinstance(kind, dict):
            yield from _walk(kind)


def _is_enum(kind) -> bool:
    return isinstance(kind, type) and issubclass(kind, Enum)


def declared(purpose: Purpose) -> dict[str, set[str]]:
    """The vocabularies ``backend.ANSWER_FIELDS`` declares for ``purpose``:
    "fields" (every field name, an entry's included) and each Enum field's tokens."""
    walked = list(_walk(backend_mod.ANSWER_FIELDS[purpose]))
    tokens = {key: {member.value for member in kind} for key, kind in walked if _is_enum(kind)}
    return {"fields": {key for key, _kind in walked}, **tokens}


def assert_prompts_spell_the_declaration():
    mismatches = [
        f"{source} spells {vocabulary} as {sorted(tokens)}, declared {sorted(want)}"
        for source, purpose, vocabulary, tokens in hand_spelled()
        if tokens != (want := declared(purpose)[vocabulary])
    ]
    assert mismatches == []


# Values of each JSON type, by name.
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=8),
    "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _json_type(kind) -> str:
    if kind is int or kind is float:
        return "number"
    return "list" if isinstance(kind, dict) else "string"


def _drawn_fields(answer: dict, fields: dict):
    """(path, kind) of every field of ``answer``: its key, or (list key,
    index, key) for an entry's field."""
    for key, value in answer.items():
        yield (key,), fields[key]
        if isinstance(fields[key], dict):
            for i, _entry in enumerate(value):
                for sub, kind in fields[key].items():
                    yield (key, i, sub), kind


class TestAnswerSchema:
    PARSED = {
        Purpose.HAZARD_AND_PLAN: HazardAndPlan,
        Purpose.SHORT_TERM_MOTION: MotionPlan,
        Purpose.SAFETY_CONSTRAINTS: SafetyConstraints,
    }

    def test_prompts_and_preambles_spell_the_declared_vocabularies(self):
        assert_prompts_spell_the_declaration()

    @pytest.mark.parametrize(
        "purpose, key",
        [
            (Purpose.HAZARD_AND_PLAN, "strategy"),
            (Purpose.SHORT_TERM_MOTION, "strategy"),
            (Purpose.SHORT_TERM_MOTION, "behavior"),
            (Purpose.SHORT_TERM_MOTION, "speed"),
            (Purpose.SHORT_TERM_MOTION, "condition"),
        ],
    )
    def test_guard_fails_on_a_declared_token_no_prompt_spells(self, monkeypatch, purpose, key):
        declaration = copy.deepcopy(ANSWER_FIELDS)
        fields = declaration[purpose]
        owner = fields if key in fields else fields["pairs"]
        tokens = {member.name: member.value for member in owner[key]}
        owner[key] = Enum(owner[key].__name__, {**tokens, "WARP": "warp"}, type=str)
        monkeypatch.setattr(backend_mod, "ANSWER_FIELDS", declaration)
        with pytest.raises(AssertionError, match=f"spells {key} as"):
            assert_prompts_spell_the_declaration()

    @pytest.mark.parametrize("purpose", list(Purpose))
    def test_guard_fails_on_a_declared_field_no_prompt_spells(self, monkeypatch, purpose):
        declaration = copy.deepcopy(ANSWER_FIELDS)
        declaration[purpose]["jerk_max"] = float
        monkeypatch.setattr(backend_mod, "ANSWER_FIELDS", declaration)
        with pytest.raises(AssertionError, match="spells fields as"):
            assert_prompts_spell_the_declaration()

    def test_no_answer_enum_is_called_outside_the_reader(self):
        # The reader calls each answer Enum through the declaration, by kind.
        enums = {
            kind.__name__
            for fields in ANSWER_FIELDS.values() for _key, kind in _walk(fields) if _is_enum(kind)
        }
        assert enums == {
            "ObjectClass", "MotionKind", "Strategy", "ExecutionCondition", "Behavior", "SpeedControl"
        }
        tree = ast.parse(Path(backend_mod.__file__).read_text(encoding="utf-8"))
        calls = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in enums
        ]
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("purpose", list(Purpose))
    def test_every_drawn_answer_parses_to_its_type(self, purpose, data):
        answer = data.draw(answers(purpose))
        assert isinstance(parse_structured(json.dumps(answer), purpose), self.PARSED[purpose])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("purpose", list(Purpose))
    def test_one_changed_field_is_the_field_named(self, purpose, data):
        answer = data.draw(answers(purpose))
        path, kind = data.draw(st.sampled_from(list(_drawn_fields(answer, ANSWER_FIELDS[purpose]))))
        changes = ["type", "missing", "token"] if _is_enum(kind) else ["type", "missing"]
        change = data.draw(st.sampled_from(changes))
        *to_owner, key = path
        owner = answer
        for step in to_owner:
            owner = owner[step]
        if change == "missing":
            del owner[key]
        elif change == "type":
            others = [values for name, values in JSON_VALUES.items() if name != _json_type(kind)]
            owner[key] = data.draw(st.one_of(*others))
        else:
            tokens = {member.value for member in kind}
            owner[key] = data.draw(st.text().filter(lambda t: t not in tokens))
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(json.dumps(answer), purpose)
        assert exc.value.field == key


class TestScriptedBackend:
    TABLE = {
        "hazard_and_plan": {
            "pedestrian_cross": {
                "hazards": [{"object": "pedestrian", "motion": "crossing"}],
                "strategy": "stop_observe_move",
            },
            "bicycle_oncoming": {
                "hazards": [{"object": "bicycle", "motion": "oncoming"}],
                "strategy": "move",
            },
        },
        "short_term_motion": {
            "pedestrian_cross": {
                "strategy": "stop_observe_move",
                "wait": 3,
                "trigger": "consistent_no_immediate_hazard",
            }
        },
    }

    def test_lookup_is_pure_and_deterministic(self):
        backend = ScriptedBackend(self.TABLE)
        req = request_for(Purpose.HAZARD_AND_PLAN, payload_for("pedestrian_cross"))
        r1, r2 = backend.call(req), backend.call(req)
        assert r1.raw == r2.raw
        assert r1.parsed == r2.parsed
        assert r1.parsed.hazards[0].object is ObjectClass.PEDESTRIAN
        assert r1.parsed.strategy is Strategy.STOP_OBSERVE_MOVE

    def test_move_key(self):
        backend = ScriptedBackend(self.TABLE)
        req = request_for(Purpose.HAZARD_AND_PLAN, payload_for("bicycle_oncoming"))
        parsed = backend.call(req).parsed
        assert parsed.hazards[0].object is ObjectClass.BICYCLE
        assert parsed.strategy is Strategy.MOVE

    def test_unknown_key_is_schema_violation(self):
        backend = ScriptedBackend(self.TABLE)
        req = request_for(Purpose.HAZARD_AND_PLAN, payload_for("nope"))
        with pytest.raises(SchemaViolation):
            backend.call(req)

    def test_bundled_table_loads(self):
        backend = ScriptedBackend.bundled()
        req = request_for(Purpose.SHORT_TERM_MOTION, payload_for("pedestrian_cross"))
        parsed = backend.call(req).parsed
        assert parsed.strategy is Strategy.STOP_OBSERVE_MOVE
        assert parsed.wait_ticks == 30

    def test_every_bundled_entry_parses(self):
        backend = ScriptedBackend.bundled()
        for purpose_value, entries in backend.table.items():
            purpose = Purpose(purpose_value)
            for key in entries:
                req = request_for(purpose, payload_for(key))
                assert backend.call(req).parsed is not None

    @pytest.mark.parametrize(
        "table, named",
        [([], "the table must be a JSON object"),
         ({"hazard_and_plan": []}, "the table's 'hazard_and_plan' must be a JSON object")],
    )
    def test_malformed_table_fails_where_it_is_built(self, table, named):
        # Every call looks a key up in a purpose's object; a table of another
        # shape would raise AttributeError on the first call, inside an episode.
        with pytest.raises(TypeError, match=re.escape(named)):
            ScriptedBackend(table)

    def test_zero_latency_for_reproducibility(self):
        backend = ScriptedBackend(self.TABLE)
        req = request_for(Purpose.SHORT_TERM_MOTION, payload_for("pedestrian_cross"))
        assert backend.call(req).latency_ms == 0.0


REQUEST_SCENARIO = "stop_sign_hazard"


def _bundled_requests() -> list[BackendRequest]:
    """One request per purpose, built from the first five frames of a bundled
    scenario that show a deficit and a visible object, with the scripted
    table's hazard answer feeding the motion request."""
    name = REQUEST_SCENARIO
    sc = simenv.Scenario.load(str(bundled_scenario_dir() / f"{name}.json"))
    w = simenv.world_from_scenario(sc)
    history = []
    while len(history) < 5:
        assert w.tick < sc.time_limit_ticks, f"{name} has too few frames to build requests"
        snap = simenv.perceive(w, sc.deficit_policy)
        if snap.has_deficit and any(v.visible_objects for v in snap.perception):
            history.append(snap)
        w = simenv.tick(w, simenv.base_agent(w, simenv.masked_ids(w, sc.deficit_policy)))
    last = history[-1]
    nearest = min(o.range_m for v in last.perception for o in v.visible_objects)
    hazard_req = hazard_request(history, name)
    answer = ScriptedBackend.bundled().call(hazard_req).parsed
    return [
        hazard_req,
        motion_request(answer.hazards, answer.strategy, last.navi, last, name),
        constraints_request(last.navi, last.surrounding, nearest, name),
    ]


class TestScriptedMemo:
    TABLE = {
        "short_term_motion": {
            "valid": {"strategy": "stop_observe_move", "wait": 3, "trigger": "consistent_immediate_hazard"},
            "malformed": {"strategy": "stop_observe_move", "wait": -1, "trigger": "warp"},
        },
        "hazard_and_plan": {
            "valid": {"hazards": [], "strategy": "move"},
        },
    }

    def request(self, key: str, purpose: Purpose = Purpose.SHORT_TERM_MOTION) -> BackendRequest:
        return request_for(purpose, payload_for(key))

    def test_construction_does_not_raise(self):
        ScriptedBackend(self.TABLE)

    def test_repeated_calls_return_equal_values(self):
        backend = ScriptedBackend(self.TABLE)
        first = backend.call(self.request("valid"))
        for _ in range(3):
            again = backend.call(self.request("valid"))
            assert again.parsed == first.parsed
            assert again.raw == first.raw
        assert first.parsed.wait_ticks == 3

    def test_memo_is_per_purpose(self):
        backend = ScriptedBackend(self.TABLE)
        backend.call(self.request("valid"))
        parsed = backend.call(self.request("valid", Purpose.HAZARD_AND_PLAN)).parsed
        assert parsed == HazardAndPlan((), Strategy.MOVE)

    @pytest.mark.parametrize("key", ["malformed", "missing"])
    def test_failures_raise_on_every_call(self, key):
        backend = ScriptedBackend(self.TABLE)
        backend.call(self.request("valid"))
        for _ in range(3):
            with pytest.raises(SchemaViolation):
                backend.call(self.request(key))
        assert backend.call(self.request("valid")).parsed.wait_ticks == 3

    def test_built_requests_carry_routing_fields_only(self):
        backend = ScriptedBackend.bundled()
        for req in _bundled_requests():
            assert json.loads(req.payload) == {"scenario_key": REQUEST_SCENARIO}
            if REQUEST_SCENARIO in backend.table[req.purpose.value]:
                assert backend.call(req).parsed is not None


# The eager rendering that built every prompt before requests carried
# structured inputs, restated from the template files so that the prompt
# ``req.inputs.render()`` builds is checked against an independent copy.
_PROMPT_DIR = Path(rco.__file__).parent / "prompts"


def _reference_fill(name: str, **subs: str) -> str:
    text = (_PROMPT_DIR / f"{name}.txt").read_text(encoding="utf-8")
    for key, value in subs.items():
        text = text.replace("{" + key + "}", value)
    return text


def _reference_history_text(history) -> str:
    lines = []
    for snap in history:
        parts = []
        for v in snap.perception:
            objs = ", ".join(
                f"{o.cls.value}@{o.range_m:.0f}m" for o in v.visible_objects
            ) or "nothing"
            defs = f"{len(v.deficits)} deficit region(s)" if v.deficits else "no deficits"
            parts.append(f"{v.view.value}: {objs}; {defs}")
        lines.append(f"tick {snap.tick}: " + " | ".join(parts))
    return "\n".join(lines)


_CLASSES = [c for c in ObjectClass if c is not ObjectClass.UNKNOWN]
_RANGES = st.floats(0.0, 120.0, allow_nan=False)


@st.composite
def _camera_view(draw, name: ViewName) -> CameraView:
    objects = draw(st.lists(st.tuples(st.sampled_from(_CLASSES), _RANGES), max_size=3))
    deficits = draw(st.integers(0, 3))
    return CameraView(
        name,
        tuple(VisibleObject(cls, Box(0.1, 0.1, 0.2, 0.2), rng) for cls, rng in objects),
        (Box(0.5, 0.5, 0.7, 0.7),) * deficits,
    )


_SNAPSHOTS = st.builds(
    EnvironmentSnapshot,
    tick=st.integers(0, 100_000),
    perception=st.tuples(
        _camera_view(ViewName.LEFT), _camera_view(ViewName.FRONT), _camera_view(ViewName.RIGHT)
    ),
    navi=st.just(DEFAULT_NAVI),
    surrounding=st.just(DEFAULT_SURROUNDING),
)


class TestStructuredRequests:
    @settings(max_examples=100, deadline=None)
    @given(history=st.lists(_SNAPSHOTS, min_size=1, max_size=6), later=_SNAPSHOTS)
    def test_hazard_prompt_equals_eager_rendering(self, history, later):
        want = _reference_fill("hazard_inference", history=_reference_history_text(history))
        req = hazard_request(history, "k")
        history.pop(0)  # the runner slides its window in place
        history.append(later)
        assert req.inputs.render() == want

    @settings(max_examples=100, deadline=None)
    @given(
        hazards=st.lists(
            st.builds(Hazard, st.sampled_from(ObjectClass), st.sampled_from(MotionKind)), max_size=4
        ),
        strategy=st.sampled_from(Strategy),
        geometry=st.sampled_from(RoadGeometry),
    )
    def test_motion_prompt_equals_eager_rendering(self, hazards, strategy, geometry):
        navi = Navigation((50.0, 0.0), geometry)
        want = _reference_fill(
            "short_term_motion",
            hazards=", ".join(f"{h.object.value} ({h.motion.value})" for h in hazards) or "none",
            strategy=strategy.value,
            geometry=geometry.value,
        )
        req = motion_request(tuple(hazards), strategy, navi, snapshot(navi=navi), "k")
        assert req.inputs.render() == want

    @settings(max_examples=100, deadline=None)
    @given(
        weather=st.sampled_from(Weather),
        daylight=st.sampled_from(Daylight),
        traffic=st.sampled_from(TrafficDensity),
        geometry=st.sampled_from(RoadGeometry),
        nearest=st.none() | _RANGES,
    )
    def test_constraints_prompt_equals_eager_rendering(
        self, weather, daylight, traffic, geometry, nearest
    ):
        navi = Navigation((50.0, 0.0), geometry)
        want = _reference_fill(
            "safety_constraints",
            weather=weather.value,
            daylight=daylight.value,
            traffic=traffic.value,
            geometry=geometry.value,
            obstacle="none" if nearest is None else f"{nearest:.1f} m",
        )
        req = constraints_request(navi, Surrounding(weather, daylight, traffic), nearest, "k")
        assert req.inputs.render() == want

    def test_scripted_episode_renders_no_prompt(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("a scripted episode rendered prompt text")

        monkeypatch.setattr(backend_mod, "_template", forbidden)
        monkeypatch.setattr(backend_mod, "_history_text", forbidden)
        sc = simenv.Scenario.load(str(bundled_scenario_dir() / f"{REQUEST_SCENARIO}.json"))
        out = run_episode(sc, Mode.RCO, ScriptedBackend.bundled())
        assert sum(r["planning_events"] for r in out.records) > 0

    def test_scenario_key_decoded_once_per_distinct_payload(self, monkeypatch):
        decoded = []
        real = BackendRequest.scenario_key

        def counting(req):
            decoded.append((req.purpose, req.payload))
            return real(req)

        monkeypatch.setattr(BackendRequest, "scenario_key", counting)
        # The one bundled scenario whose every purpose has a scripted entry,
        # so no call fails (a failure decodes its key again on every call).
        sc = simenv.Scenario.load(str(bundled_scenario_dir() / "traffic_light_hazard.json"))
        out = run_episode(sc, Mode.RCO, ScriptedBackend.bundled())
        assert sum(r["backend_calls"] for r in out.records) > len(Purpose)
        assert Counter(decoded) == Counter(
            (p, backend_mod._routing_payload(sc.name)) for p in Purpose
        )

    def test_failures_decode_on_every_call(self, monkeypatch):
        decoded = []
        real = BackendRequest.scenario_key
        monkeypatch.setattr(
            BackendRequest, "scenario_key", lambda req: decoded.append(1) or real(req)
        )
        backend = ScriptedBackend({})
        for _ in range(3):
            with pytest.raises(SchemaViolation):
                backend.call(request_for(Purpose.HAZARD_AND_PLAN, payload_for("k")))
        assert len(decoded) == 3

    def test_non_canonical_payload_gets_the_canonical_answer(self):
        backend = ScriptedBackend.bundled()
        for purpose_value, entries in backend.table.items():
            purpose = Purpose(purpose_value)
            for key in entries:
                canonical = backend.call(
                    request_for(purpose, backend_mod._routing_payload(key))
                )
                compact = json.dumps({"scenario_key": key}, separators=(",", ":"))
                loose = backend.call(request_for(purpose, compact))
                assert loose == canonical


# Deeper than any interpreter's recursion limit lets ``json`` read.
_DEEP = 100_000
_NESTED = "[" * _DEEP + "]" * _DEEP


class _Handler(BaseHTTPRequestHandler):
    """Chat-completions stub; behavior keyed by the requested model name.
    Every request body received is appended to ``bodies``."""

    bodies: list[bytes] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.bodies.append(raw)
        body = json.loads(raw)
        model = body.get("model", "")
        if model == "malformed":
            out = {"nonsense": True}
        elif model == "prose":
            out = {"choices": [{"message": {"content": "no json here"}}]}
        elif model == "null_content":
            out = {"choices": [{"message": {"content": None, "tool_calls": []}}]}
        elif model == "nested_content":
            content = '{"hazards": %s, "strategy": "move"}' % _NESTED
            out = {"choices": [{"message": {"content": content}}]}
        elif model == "nested_envelope":
            out = '{"choices": [{"message": {"content": "{}", "extra": %s}}]}' % _NESTED
        elif model == "http500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        elif model == "http204":
            self.send_response(204)
            self.end_headers()
            return
        elif model == "truncated":  # a body shorter than its Content-Length
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choices": [')
            return
        elif model == "slow":  # answers nothing until past the patched timeout
            time.sleep(0.5)
            return
        else:
            content = json.dumps(
                {"strategy": "stop_observe_move", "wait": 4, "trigger": "consistent_no_immediate_hazard"}
            )
            out = {"choices": [{"message": {"content": content}}]}
        data = (out if isinstance(out, str) else json.dumps(out)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture(scope="module")
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def request(self):
        inputs = MotionInputs((), Strategy.MOVE, RoadGeometry.STRAIGHT)
        return BackendRequest(Purpose.SHORT_TERM_MOTION, inputs, payload_for("x"))

    def test_parses_first_completion(self, chat_server):
        backend = HttpBackend(chat_server, model="good", token="secret")
        resp = backend.call(self.request())
        assert resp.parsed.wait_ticks == 4
        assert resp.latency_ms >= 0.0

    def test_malformed_envelope_is_schema_violation(self, chat_server):
        backend = HttpBackend(chat_server, model="malformed")
        with pytest.raises(SchemaViolation):
            backend.call(self.request())

    def test_prose_content_is_schema_violation(self, chat_server):
        backend = HttpBackend(chat_server, model="prose")
        with pytest.raises(SchemaViolation):
            backend.call(self.request())

    def test_null_content_is_schema_violation(self, chat_server):
        # Tool-call answers carry ``content: null``; it must fall back, not crash.
        backend = HttpBackend(chat_server, model="null_content")
        with pytest.raises(SchemaViolation) as info:
            backend.call(self.request())
        assert info.value.field == "content"
        assert backend_mod.ask(backend, self.request()) is None

    @pytest.mark.parametrize("model", ["nested_content", "nested_envelope"])
    def test_nesting_past_the_recursion_limit_is_schema_violation(self, chat_server, model):
        backend = HttpBackend(chat_server, model=model)
        with pytest.raises(SchemaViolation, match="nested too deep|envelope"):
            backend.call(self.request())
        assert backend_mod.ask(backend, self.request()) is None

    def test_run_on_a_nested_answer_falls_back(self, chat_server, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("RCO_BACKEND_URL", chat_server)
        monkeypatch.setenv("RCO_BACKEND_MODEL", "nested_content")
        scenario = str(bundled_scenario_dir() / "pedestrian_cross.json")
        argv = ["run", "--mode", "rco", "--backend", "http", "--scenarios", scenario]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_http_error_is_transport_failure(self, chat_server):
        backend = HttpBackend(chat_server, model="http500")
        with pytest.raises(TransportFailure, match="HTTP 500"):
            backend.call(self.request())
        assert backend_mod.ask(backend, self.request()) is None

    @pytest.mark.parametrize("model", ["http204", "truncated"])
    def test_bad_answer_is_transport_failure(self, chat_server, model):
        backend = HttpBackend(chat_server, model=model)
        with pytest.raises(TransportFailure):
            backend.call(self.request())
        assert backend_mod.ask(backend, self.request()) is None

    def test_slow_server_is_timeout(self, chat_server, monkeypatch):
        monkeypatch.setattr(backend_mod, "HTTP_TIMEOUT_S", 0.2)
        backend = HttpBackend(chat_server, model="slow")
        start = time.perf_counter()
        with pytest.raises(BackendTimeout):
            backend.call(self.request())
        assert time.perf_counter() - start < 0.45

    def test_unreachable_endpoint_fails_within_timeout(self):
        # Connection refused on a closed local port maps to TransportFailure.
        backend = HttpBackend("http://127.0.0.1:9/v1/chat/completions", model="x")
        start = time.perf_counter()
        with pytest.raises(TransportFailure):
            backend.call(self.request())
        assert time.perf_counter() - start < backend_mod.HTTP_TIMEOUT_S

    @pytest.mark.parametrize(
        "url",
        [
            "", "localhost/v1/chat/completions", "localhost:8000/v1/chat/completions",
            "127.0.0.1:9/v1", "file:///etc/hostname", "ftp://127.0.0.1/v1", "http:///v1",
        ],
    )
    def test_unusable_url_rejected_at_construction(self, url):
        # Each of these would fall back on every call: no scheme, a scheme
        # urllib reads without HTTP, or no host.
        with pytest.raises(ValueError, match="http"):
            HttpBackend(url, model="x")

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1", "HTTPS://[::1]:8443/v1"])
    def test_http_urls_accepted(self, url):
        assert HttpBackend(url, model="x").url == url

    def test_token_with_newline_is_transport_failure(self):
        # http.client refuses the header value on every call.
        backend = HttpBackend("http://127.0.0.1:9/v1", model="x", token="a\nb")
        with pytest.raises(TransportFailure, match="ValueError"):
            backend.call(self.request())

    @pytest.mark.parametrize(
        "error, mapped",
        [
            # Rows the loopback servers above cannot produce.
            (URLError(TimeoutError("timed out")), BackendTimeout),
            (ConnectionResetError(104, "reset"), TransportFailure),
        ],
        ids=["connect timeout", "connection reset"],
    )
    def test_transport_error_map(self, monkeypatch, error, mapped):
        import urllib.request

        def fail(req, timeout):
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", fail)
        with pytest.raises(mapped):
            HttpBackend("http://127.0.0.1:9/v1/chat/completions", model="x").call(self.request())

    def test_request_timeout_reaches_the_transport(self, monkeypatch):
        import urllib.request

        sent = {}

        def capture(req, **kwargs):
            sent.update(kwargs)
            raise URLError("captured")

        monkeypatch.setattr(urllib.request, "urlopen", capture)
        with pytest.raises(TransportFailure):
            HttpBackend("http://127.0.0.1:9/v1/chat/completions", model="x").call(self.request())
        assert sent["timeout"] == 2.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("RCO_BACKEND_URL", "http://example.invalid/api")
        monkeypatch.setenv("RCO_BACKEND_MODEL", "tiny")
        monkeypatch.setenv("RCO_BACKEND_TOKEN", "tok")
        backend = HttpBackend.from_env()
        assert backend.url == "http://example.invalid/api"
        assert backend.model == "tiny"
        assert backend.token == "tok"


class TestHttpRequestBodies:
    # sha256 of each purpose's POST body. Only the prompt and the preamble
    # reach the wire, so a change to the request payload must not move these.
    EXPECTED = {
        Purpose.HAZARD_AND_PLAN: "e83e855d71092386c1ad2040a0d92828c34fd724f378d5771e41c850d715ff4e",
        Purpose.SHORT_TERM_MOTION: "a7dab06b26118558e719c2545608dc5e6baadcd69db3cdcbea41432a3ecd08a7",
        Purpose.SAFETY_CONSTRAINTS: "a181eafbd94c112f273cc8b67b06bcb172a206c393402ab277a4ffd01cad3c4c",
    }

    def test_bodies_are_byte_identical(self, chat_server):
        backend = HttpBackend(chat_server, model="good", token="secret")
        for req in _bundled_requests():
            _Handler.bodies.clear()
            with contextlib.suppress(SchemaViolation):  # canned answer fits one purpose
                backend.call(req)
            assert len(_Handler.bodies) == 1
            assert hashlib.sha256(_Handler.bodies[0]).hexdigest() == self.EXPECTED[req.purpose]


class TestBackendRequest:
    def test_scenario_key_from_payload(self):
        req = request_for(Purpose.HAZARD_AND_PLAN, payload_for("abc"))
        assert req.scenario_key() == "abc"

    @pytest.mark.parametrize("payload", ['{"scenario_key": null}', '{"scenario_key": 5}'])
    def test_non_string_key_reads_as_missing(self, payload):
        req = request_for(Purpose.HAZARD_AND_PLAN, payload)
        # A table entry under the key's str() form is never looked up.
        entry = {"hazards": [], "strategy": "move"}
        table = {Purpose.HAZARD_AND_PLAN.value: {"None": entry, "5": entry}}
        with pytest.raises(SchemaViolation, match="no scripted response"):
            ScriptedBackend(table).call(req)


class TestOneCallPath:
    ERRORS = {"BackendError", "BackendTimeout", "TransportFailure", "SchemaViolation"}

    def test_only_the_backend_module_calls_a_backend(self):
        # Every other module reaches a backend through ``backend.ask``, so a
        # failed call maps to its caller's fallback in one place.
        offenders = []
        for path in sorted(Path(rco.__file__).parent.glob("*.py")):
            if path.name == "backend.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                func = getattr(node, "func", None)
                if isinstance(func, ast.Attribute) and func.attr == "call":
                    offenders.append(f"{path.name}:{node.lineno} calls .call()")
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node.type)
                        if isinstance(n, (ast.Name, ast.Attribute))
                    }
                    if names & self.ERRORS:
                        offenders.append(f"{path.name}:{node.lineno} catches {sorted(names)}")
        assert offenders == []
