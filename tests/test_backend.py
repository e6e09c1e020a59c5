"""Structured-output parsing, scripted lookup, and the HTTP client."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rco.backend import (
    BackendRequest,
    BackendTimeout,
    HazardAndPlan,
    HttpBackend,
    Purpose,
    SchemaViolation,
    ScriptedBackend,
    TransportFailure,
    constraints_request,
    extract_first_json_object,
    hazard_request,
    motion_request,
    parse_structured,
)
import rco
from rco import simenv
from rco.cli import bundled_scenario_dir
from rco.domain import (
    Behavior,
    ExecutionCondition,
    MotionKind,
    MotionPlan,
    ObjectClass,
    SafetyConstraints,
    SpeedControl,
    Strategy,
)


def payload_for(key: str) -> str:
    return json.dumps({"scenario_key": key})


class TestParseStructured:
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
        raw = '{"strategy":"stop_observe_move","wait":-2,"trigger":"consistent_no_immediate_hazard"}'
        with pytest.raises(SchemaViolation):
            parse_structured(raw, Purpose.SHORT_TERM_MOTION)

    def test_nonpositive_constraint_rejected(self):
        raw = '{"v_max":0,"d_min":5,"ac_max":3,"de_max":5,"psi_max":0.6,"d_brake":10}'
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == "v_max"

    def test_first_json_object_extracted_from_prose(self):
        raw = 'Sure! Here is the plan:\n```json\n{"strategy":"stop_observe_move","wait":2,"trigger":"consistent_immediate_hazard"}\n```\nthanks'
        plan = parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert plan.wait_ticks == 2

    def test_extract_reports_offset(self):
        obj, pos = extract_first_json_object('xx {"a": 1} tail')
        assert obj == {"a": 1}
        assert pos == 3

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200), st.sampled_from(Purpose))
    def test_never_panics_on_arbitrary_text(self, raw, purpose):
        try:
            parse_structured(raw, purpose)
        except SchemaViolation:
            pass  # the only acceptable failure mode


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
        req = BackendRequest(Purpose.HAZARD_AND_PLAN, "p", payload_for("pedestrian_cross"))
        r1, r2 = backend.call(req), backend.call(req)
        assert r1.raw == r2.raw
        assert r1.parsed == r2.parsed
        assert r1.parsed.hazards[0].object is ObjectClass.PEDESTRIAN
        assert r1.parsed.strategy is Strategy.STOP_OBSERVE_MOVE

    def test_move_key(self):
        backend = ScriptedBackend(self.TABLE)
        req = BackendRequest(Purpose.HAZARD_AND_PLAN, "p", payload_for("bicycle_oncoming"))
        parsed = backend.call(req).parsed
        assert parsed.hazards[0].object is ObjectClass.BICYCLE
        assert parsed.strategy is Strategy.MOVE

    def test_unknown_key_is_schema_violation(self):
        backend = ScriptedBackend(self.TABLE)
        req = BackendRequest(Purpose.HAZARD_AND_PLAN, "p", payload_for("nope"))
        with pytest.raises(SchemaViolation):
            backend.call(req)

    def test_bundled_table_loads(self):
        backend = ScriptedBackend.bundled()
        req = BackendRequest(Purpose.SHORT_TERM_MOTION, "p", payload_for("pedestrian_cross"))
        parsed = backend.call(req).parsed
        assert parsed.strategy is Strategy.STOP_OBSERVE_MOVE
        assert parsed.wait_ticks == 30

    def test_every_bundled_entry_parses(self):
        backend = ScriptedBackend.bundled()
        for purpose_value, entries in backend.table.items():
            purpose = Purpose(purpose_value)
            for key in entries:
                req = BackendRequest(purpose, "p", payload_for(key))
                assert backend.call(req).parsed is not None

    def test_zero_latency_for_reproducibility(self):
        backend = ScriptedBackend(self.TABLE)
        req = BackendRequest(Purpose.SHORT_TERM_MOTION, "p", payload_for("pedestrian_cross"))
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
        return BackendRequest(purpose, "p", payload_for(key))

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
            assert json.loads(req.payload) == {
                "purpose": req.purpose.value,
                "scenario_key": REQUEST_SCENARIO,
            }
            if REQUEST_SCENARIO in backend.table[req.purpose.value]:
                assert backend.call(req).parsed is not None


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
        elif model == "http500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        else:
            content = json.dumps(
                {"strategy": "stop_observe_move", "wait": 4, "trigger": "consistent_no_immediate_hazard"}
            )
            out = {"choices": [{"message": {"content": content}}]}
        data = json.dumps(out).encode()
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


class TestHttpBackend:
    def request(self):
        return BackendRequest(Purpose.SHORT_TERM_MOTION, "plan please", payload_for("x"), 2000)

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

    def test_http_error_is_transport_failure(self, chat_server):
        backend = HttpBackend(chat_server, model="http500")
        with pytest.raises(TransportFailure):
            backend.call(self.request())

    def test_unreachable_endpoint_fails_within_timeout(self):
        # Connection refused on a closed local port maps to TransportFailure.
        backend = HttpBackend("http://127.0.0.1:9/v1/chat/completions", model="x")
        with pytest.raises((TransportFailure, BackendTimeout)):
            backend.call(BackendRequest(Purpose.SHORT_TERM_MOTION, "p", payload_for("x"), 1500))

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
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            BackendRequest(Purpose.HAZARD_AND_PLAN, "p", "{}", 0)

    def test_scenario_key_from_payload(self):
        req = BackendRequest(Purpose.HAZARD_AND_PLAN, "p", payload_for("abc"))
        assert req.scenario_key() == "abc"
        assert BackendRequest(Purpose.HAZARD_AND_PLAN, "p", "not json").scenario_key() == ""


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
