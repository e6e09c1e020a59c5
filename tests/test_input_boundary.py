"""The input boundary: one JSON-type rule (``domain.typed``) and one file
reader (``cli._read``) for everything the CLI takes from outside."""

from __future__ import annotations

import ast
import copy
import inspect
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rco import backend, cli, domain, orchestrator, simenv
from rco.backend import Purpose, SchemaViolation, ScriptedBackend, parse_structured
from rco.cli import bundled_scenario_dir, main
from rco.domain import FAIL_SAFE_STOP, Action, typed
from rco.orchestrator import RECORD, base_record
from rco.planner import PlannerConfig

SRC = Path(cli.__file__).parent
FLOAT_MAX = sys.float_info.max


def scenario_path(name: str) -> str:
    return str(bundled_scenario_dir() / f"{name}.json")


def active_record(**fields):
    """An active record as ``rco run`` writes one."""
    return {
        **base_record(15, FAIL_SAFE_STOP),
        "active": True,
        "backend_calls": 3,
        "classification": "consistent_no_immediate_hazard",
        "denied": ["wait_inconsistent"],
        "direction_mismatch": False,
        "hazard_ratio": 0.0612,
        "planning_events": 1,
        "sc_refreshed": True,
        "sequence_len": 4,
        "source": "pair",
        "triggered_constraints": ["max_speed"],
        "verdict": "execute",
        "wait_elapsed": 0,
        **fields,
    }


class TestTyped:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (5, int, 5), (0, int, 0), (-3, int, -3), (10**400, int, 10**400),
            (5, float, 5.0), (0.25, float, 0.25), (-0.0, float, -0.0),
            (FLOAT_MAX, float, FLOAT_MAX), (-FLOAT_MAX, float, -FLOAT_MAX),
            (int(FLOAT_MAX), float, FLOAT_MAX),
            ("a", str, "a"), (False, bool, False), ([], list, []), ({"a": 1}, dict, {"a": 1}),
        ],
    )
    def test_accepts_its_kind(self, value, kind, expected):
        got = typed(value, kind, "x")
        assert got == expected and type(got) is kind

    @pytest.mark.parametrize(
        "value, kind",
        [
            (True, int), (True, float), (False, float), (5.0, int), (math.nan, int),
            ("5", float), ("5", int), (None, float), ([1], float), ({}, int),
            (1, bool), (1, str), (None, str), ("", list), ({}, list), ({"a": 1}, list),
            (None, list), ([], dict), ([["a", 1]], dict), ("", dict), (0, dict),
        ],
    )
    def test_rejects_another_json_type(self, value, kind):
        with pytest.raises(TypeError, match="^x must be a"):
            typed(value, kind, "x")

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1024]
    )
    def test_rejects_a_number_no_float_holds(self, value):
        with pytest.raises(ValueError, match="^x must be a number and finite"):
            typed(value, float, "x")

    def test_a_number_kind_is_called_a_number(self):
        with pytest.raises(TypeError, match="tick must be a number .*JSON int"):
            typed(3.5, int, "tick")
        with pytest.raises(TypeError, match="ratio must be a number, got True"):
            typed(True, float, "ratio")


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


class TestOnePlacePerRule:
    NUMBER_RULE = re.compile(r"isinstance\([^)]*\bbool\b|type\(.*\) is not int|float_info")

    def test_only_typed_spells_out_the_number_rule(self):
        lines, start = inspect.getsourcelines(domain.typed)
        for path in sorted(SRC.glob("*.py")):
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if self.NUMBER_RULE.search(line):
                    assert path.name == "domain.py", f"{path.name}:{number}: {line.strip()}"
                    assert start <= number < start + len(lines), f"domain.py:{number}"

    STRUCTURE_RULE = re.compile(
        r"isinstance\([^)]*\b(list|dict)\)|type\([^)]*\) is (not )?(list|dict)\b"
    )

    def test_only_typed_spells_out_the_structure_rule(self):
        # extract_first_json_object searches a model answer for its first
        # object and rejects nothing, so its test is no input check.
        allowed = {
            "domain.py": inspect.getsourcelines(domain.typed),
            "backend.py": inspect.getsourcelines(backend.extract_first_json_object),
        }
        for path in sorted(SRC.glob("*.py")):
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if self.STRUCTURE_RULE.search(line):
                    assert path.name in allowed, f"{path.name}:{number}: {line.strip()}"
                    lines, start = allowed[path.name]
                    assert start <= number < start + len(lines), f"{path.name}:{number}"

    def test_cli_has_one_file_reader(self):
        tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
        reader = next(
            n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_read"
        )
        opens = [c for c in _calls(tree, "open") if isinstance(c.func, ast.Name)]
        assert [c.lineno for c in opens] == [c.lineno for c in _calls(reader, "open")]
        assert len(opens) == 1
        for reads in ("read_text", "read_bytes", "load"):
            assert _calls(tree, reads) == [], reads
        assert not hasattr(ScriptedBackend, "from_file")


class TestBackendNumbers:
    ENVELOPE = {"v_max": 10, "d_min": 5, "ac_max": 3, "de_max": 5, "psi_max": 0.6, "d_brake": 10}

    @pytest.mark.parametrize("value", [True, "5", None, [5], {}, "<nan>", "<inf>", 10**400])
    @pytest.mark.parametrize("field", sorted(ENVELOPE))
    def test_envelope_field_that_is_no_finite_number_names_its_field(self, field, value):
        # 10**400 passed the old type test and then overflowed in float().
        raw = json.dumps({**self.ENVELOPE, field: value})
        raw = raw.replace('"<nan>"', "NaN").replace('"<inf>"', "Infinity")
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SAFETY_CONSTRAINTS)
        assert exc.value.field == field

    @pytest.mark.parametrize("value", [True, 2.0, "2", None, [2], -1])
    def test_wait_that_is_no_count_is_a_schema_violation(self, value):
        raw = json.dumps(
            {"strategy": "stop_observe_move", "wait": value,
             "trigger": "consistent_no_immediate_hazard"}
        )
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(raw, Purpose.SHORT_TERM_MOTION)
        assert exc.value.field == "wait"


class TestBackendStructures:
    @pytest.mark.parametrize(
        "value", ["", {}, {"a": 1}, 0, None, "<missing>", [5], ["x"], [None], [[{"a": 1}]]]
    )
    @pytest.mark.parametrize(
        "purpose, field",
        [(Purpose.HAZARD_AND_PLAN, "hazards"), (Purpose.SHORT_TERM_MOTION, "pairs")],
    )
    def test_list_or_entry_of_another_json_type_names_the_list(self, purpose, field, value):
        # A list that is no list, or an entry that is no object.
        answer = {"strategy": "move", field: value}
        if value == "<missing>":
            del answer[field]
        with pytest.raises(SchemaViolation) as exc:
            parse_structured(json.dumps(answer), purpose)
        assert exc.value.field == field


class TestReplayHoldsTheWritingTypes:
    @pytest.mark.parametrize(
        "edit",
        [
            ("tick", 3.5), ("tick", -7), ("throttle", 5), ("brake", -2), ("steer", 9),
            ("throttle", -0.5), ("steer", -1.5),
        ],
    )
    @pytest.mark.parametrize("active", [False, True])
    def test_value_no_written_log_holds_is_malformed(self, tmp_path, capsys, edit, active):
        field, value = edit
        record = active_record() if active else base_record(15, FAIL_SAFE_STOP)
        if field == "tick":
            record["tick"] = value
        else:
            record["action"][field] = value
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 1 is malformed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [0, False, "", {}, None, "<missing>"])
    @pytest.mark.parametrize("field", ["denied", "triggered_constraints"])
    def test_list_field_that_is_no_list_is_malformed(self, tmp_path, capsys, field, value):
        # A falsy non-list, or no field at all, once replayed as an empty list.
        record = active_record()
        if value == "<missing>":
            del record[field]
        else:
            record[field] = value
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 1 is malformed" in captured.err
        assert field in captured.err
        if value != "<missing>":
            assert f"{field} must be a JSON list" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [1, "yes", 0, "<missing>"])
    def test_active_that_is_no_bool_is_malformed(self, tmp_path, capsys, value):
        # Once read as truthiness: 1 and "yes" printed as active lines, 0 and
        # a missing key as base-agent lines.
        record = active_record(active=value)
        if value == "<missing>":
            del record["active"]
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"config error: decision log {log} line 1 is malformed" in captured.err
        assert "active" in captured.err
        if value != "<missing>":
            assert "active must be a JSON bool" in captured.err
        assert captured.out == ""

    def test_range_ends_and_int_fields_print_as_before(self, tmp_path, capsys):
        records = [
            {**base_record(0, FAIL_SAFE_STOP), "action": {"throttle": 1, "brake": 0, "steer": -1}},
            active_record(tick=7, hazard_ratio=0, action={"throttle": 0, "brake": 1, "steer": 1}),
        ]
        log = tmp_path / "ends.decisions.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 0
        base, active = capsys.readouterr().out.splitlines()
        assert base == "tick     0  base agent        throttle=1.00 brake=0.00 steer=-1.00"
        assert "ratio=0.0000  throttle=0.00 brake=1.00 steer=+1.00" in active


def _bad_values(kind, bounds):
    """Values a key of ``kind`` must not hold: of another JSON type, then
    outside its range or vocabulary."""
    if kind is Action:
        return [[], {"throttle": 0.0, "brake": 0.0}, {"throttle": 2.0, "brake": 0.0, "steer": 0.0},
                {"throttle": 0.0, "brake": 0.0, "steer": 0.0, "horn": 1.0}]
    if kind is str or kind is list:  # one of the two is of the wrong type
        return ["warp", ["warp"]]
    wrong = {int: [1.5, True, "1"], float: ["0.5", True], bool: [0, "true"]}[kind]
    if kind is bool:
        return wrong
    return wrong + [bounds[0] - 1] + ([bounds[1] + 1] if bounds[1] < math.inf else [])


def _non_base_values(key, base):
    """Values a base-agent line's ``key`` must not hold: the written active
    value, and one equal to the base value but of another JSON type."""
    twin = int(base) if type(base) is bool else float(base) if type(base) is int else None
    return [
        v for v in (active_record()[key], twin)
        if v is not None and not (type(v) is type(base) and v == base)
    ]


MISSING = "<missing>"


class TestReplayReadsTheDeclaration:
    """``rco replay`` reads every line through ``orchestrator.RECORD``."""

    @staticmethod
    def _replay(tmp_path, capsys, records, code):
        log = tmp_path / "declared.decisions.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == code
        captured = capsys.readouterr()
        if code:
            assert f"config error: decision log {log} line {len(records)} is malformed" in captured.err
            assert captured.out == ""
        return captured

    @pytest.mark.parametrize(
        "key, value",
        [(key, v) for key, (kind, bounds, _) in RECORD.items() for v in _bad_values(kind, bounds)]
        + [(key, MISSING) for key in RECORD],
        ids=repr,
    )
    def test_active_line_with_a_value_outside_its_declaration_is_malformed(
        self, tmp_path, capsys, key, value
    ):
        record = active_record()
        if value == MISSING:
            del record[key]
        else:
            record[key] = value
        captured = self._replay(tmp_path, capsys, [active_record(), record], 2)
        assert key in captured.err or RECORD[key][0] is Action

    @pytest.mark.parametrize(
        "key, value",
        [(key, v) for key, (_, _, base) in RECORD.items() if base is not ...
         for v in _non_base_values(key, base)],
        ids=repr,
    )
    def test_base_line_with_a_value_other_than_its_base_is_malformed(
        self, tmp_path, capsys, key, value
    ):
        record = {**base_record(15, FAIL_SAFE_STOP), key: value}
        self._replay(tmp_path, capsys, [base_record(14, FAIL_SAFE_STOP), record], 2)

    @pytest.mark.parametrize("active", [False, True])
    def test_undeclared_key_is_malformed(self, tmp_path, capsys, active):
        record = active_record() if active else base_record(15, FAIL_SAFE_STOP)
        captured = self._replay(tmp_path, capsys, [{**record, "probe": 0}], 2)
        assert "probe" in captured.err

    @pytest.mark.parametrize(
        "line",
        [
            # Each once replayed with exit 0: six keys outside their kinds,
            # the same six missing, and a base-agent line whose source is pair.
            {**active_record(), "schema": "two", "backend_calls": -7, "sc_refreshed": "yes",
             "direction_mismatch": None, "sequence_len": "abc", "wait_elapsed": 1e300},
            {key: value for key, value in active_record().items()
             if key not in ("schema", "backend_calls", "sc_refreshed", "direction_mismatch",
                            "sequence_len", "wait_elapsed")},
            {**base_record(15, FAIL_SAFE_STOP), "source": "pair"},
        ],
        ids=["six-bad", "six-missing", "base-from-pair"],
    )
    def test_lines_that_once_replayed_are_malformed(self, tmp_path, capsys, line):
        self._replay(tmp_path, capsys, [line], 2)

    def test_a_declared_key_is_written_and_required(self, tmp_path, capsys, monkeypatch):
        # One key more in the declaration, and the base record and the
        # writer's template derived from it as at import.
        monkeypatch.setitem(RECORD, "probe", (int, (0, 0), 0))
        base_values = {key: base for key, (_, _, base) in RECORD.items()}
        monkeypatch.setattr(orchestrator, "_BASE_RECORD", base_values)
        line = orchestrator._RECORD_ENCODER.encode({**base_values, "action": "?", "tick": "?"})
        monkeypatch.setattr(orchestrator, "_BASE_LINE", line.split('"?"'))
        out = tmp_path / "out"
        argv = ["run", "--mode", "rco", "--scenarios", scenario_path("pedestrian_cross")]
        assert main([*argv, "--out", str(out)]) == 0
        log = out / "pedestrian_cross__rco.decisions.jsonl"
        records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert {r["active"] for r in records} == {False, True}
        assert all(r.keys() == RECORD.keys() and r["probe"] == 0 for r in records)
        capsys.readouterr()
        assert main(["replay", "--log", str(log)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(records)
        base = next(r for r in records if not r["active"])
        captured = self._replay(tmp_path, capsys, [{**base, "probe": 1}], 2)
        assert "probe" in captured.err
        del records[-1]["probe"]
        captured = self._replay(tmp_path, capsys, records, 2)
        assert "probe" in captured.err


# Each input the CLI reads, the argv that reads it, and its label in messages.
INPUTS = {
    "scenario": (lambda p: ["run", "--scenarios", str(p)], "scenario file"),
    "table": (
        lambda p: ["run", "--scripted-table", str(p), "--scenarios",
                   scenario_path("pedestrian_cross")],
        "scripted table",
    ),
    "config": (
        lambda p: ["run", "--config", str(p), "--scenarios", scenario_path("pedestrian_cross")],
        "config file",
    ),
    "log": (lambda p: ["replay", "--log", str(p)], "decision log"),
}


class TestOneReader:
    @staticmethod
    def _run(tmp_path, capsys, kind, path):
        argv, label = INPUTS[kind]
        full = argv(path)
        if full[0] == "run":
            full += ["--out", str(tmp_path / "o")]
        code = main(full)
        captured = capsys.readouterr()
        assert not (tmp_path / "o").exists()
        return code, label, captured

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys, kind):
        # 0xff starts no UTF-8 sequence.
        path = tmp_path / "input.json"
        path.write_bytes(b'{"name": "caf\xff"}\n')
        code, label, captured = self._run(tmp_path, capsys, kind, path)
        assert code == 2
        assert f"config error: {label} {path} failed to load" in captured.err
        assert "utf-8" in captured.err

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, monkeypatch, kind):
        # Under root, chmod denies nothing; so the reader's open is made to
        # raise what opening an unreadable file raises.
        path = tmp_path / "input.json"
        path.write_text("{}\n", encoding="utf-8")
        denied = []

        def denying_open(file, *args, **kwargs):
            if Path(file) == path:
                denied.append(file)
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", denying_open, raising=False)
        code, label, captured = self._run(tmp_path, capsys, kind, path)
        assert denied
        assert code == 2
        assert f"config error: {label} {path} failed to load" in captured.err
        assert "Permission denied" in captured.err

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_json_nested_too_deep_is_config_error(self, tmp_path, capsys, kind):
        # json's decoder recurses once per level and raises RecursionError.
        path = tmp_path / "input.json"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        code, label, captured = self._run(tmp_path, capsys, kind, path)
        assert code == 2
        where = "line 1 is malformed" if kind == "log" else "failed to load"
        assert f"config error: {label} {path} {where}" in captured.err

    @pytest.mark.parametrize("kind", ["table", "config", "log"])
    def test_directory_still_does_not_exist(self, tmp_path, capsys, kind):
        code, label, captured = self._run(tmp_path, capsys, kind, tmp_path)
        assert code == 2
        assert f"config error: {label} does not exist: {tmp_path}" in captured.err


class TestCountBound:
    # A count sizes a per-round window, plan or wait: a padded window of 10**9
    # frames never finished, and a fallback wait of 10**400 stop pairs raised
    # OverflowError inside an episode.
    @pytest.mark.parametrize("name", ["history_len", "n_max", "wait_cap", "replan_budget"])
    def test_count_is_at_most_ten_thousand(self, name):
        assert getattr(PlannerConfig(**{name: 10_000}), name) == 10_000
        with pytest.raises(ValueError, match=rf"{name} out of \[1,10000\]"):
            PlannerConfig(**{name: 10_001})

    @pytest.mark.parametrize(
        "config, argv",
        [
            ('{"history_len": 1000000000}', []),
            ('{"wait_cap": %d}' % 10**400, []),
            ("{}", ["--n-max", "10001"]),
            ("{}", ["--replan-budget", "99999999999"]),
        ],
    )
    def test_huge_count_is_config_error(self, tmp_path, capsys, monkeypatch, config, argv):
        monkeypatch.setattr(cli, "run_episode", None)  # no episode may start
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config, encoding="utf-8")
        code = main(["run", *argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        name = argv[0][2:].replace("-", "_") if argv else next(iter(json.loads(config)))
        assert f"{name} out of [1,10000]" in capsys.readouterr().err  # the key the user wrote
        assert not (tmp_path / "o").exists()

    def test_huge_sweep_limit_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_episode", None)
        code = main(["sweep", "--limits", "1,20000", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n_max out of [1,10000]" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
def test_scripted_table_with_http_backend_is_config_error(tmp_path, capsys, monkeypatch, command):
    # The http backend reads no table, so the flag would be dropped unread.
    monkeypatch.setenv("RCO_BACKEND_URL", "http://127.0.0.1:9/v1/chat/completions")
    monkeypatch.setattr(cli, "run_episode", None)  # no episode may start
    table = tmp_path / "table.json"
    table.write_text("{}", encoding="utf-8")
    argv = [*command, "--backend", "http", "--scripted-table", str(table)]
    code = main([*argv, "--scenarios", scenario_path("pedestrian_cross"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: --scripted-table applies to the scripted backend only" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# Properties: a mutated input ends a command with exit 0 or 2, never a raise.
# ---------------------------------------------------------------------------

_BIG = "<1e999>"  # json writes no 1e999; this marker is replaced after dumps
_ODD_VALUES = st.sampled_from(
    [None, True, False, 0, -1, -7, 0.0, -0.5, 3.5, 1e300, 10**400, math.nan, math.inf,
     -math.inf, _BIG, "", "1", "nan", "blue", "teleport", [], {}, [1, 2], {"a": 1}]
)


def _paths(doc, prefix=()):
    """Every path to a value inside ``doc``, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@st.composite
def mutated(draw, base):
    """``base`` as JSON text bytes, with one to three mutations: a dropped key
    or element, a value of another JSON type or out of range, a value nested
    in a list, then maybe a byte that is no UTF-8."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["drop", "set", "nest"]))
        if not path:
            doc = copy.deepcopy(draw(_ODD_VALUES)) if op == "set" else [doc]
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "set":
            parent[path[-1]] = copy.deepcopy(draw(_ODD_VALUES))  # a later drop may edit it
        else:
            parent[path[-1]] = [[parent[path[-1]]]] if draw(st.booleans()) else [parent[path[-1]]]
    data = json.dumps(doc).replace(f'"{_BIG}"', "1e999").encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


VALID_CONFIG = {
    "n_max": 3, "history_len": 5, "wait_cap": 20, "replan_budget": 3,
    "shift_threshold": 0.1, "hazard_ratio_threshold": 0.05,
    "delta_throttle": 0.1, "delta_brake": 0.1,
    "penalties": {"red_light": 0.5, "collision_pedestrian": 1.0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestScenarioListFields:
    # Each once loaded: "" or {} as an empty list, and an object as the list
    # of its keys ({"stop_sign": 1} masked stop signs; {"straight": 0} was a
    # one-segment route).
    @pytest.mark.parametrize(
        "name, path, value",
        [
            ("stop_sign_hazard", ("actors",), ""),
            ("stop_sign_hazard", ("traffic_lights",), {}),
            ("stop_sign_hazard", ("stop_signs",), {}),
            ("stop_sign_hazard", ("deficit_policy", "classes"), ""),
            ("stop_sign_hazard", ("deficit_policy", "classes"), {"stop_sign": 1}),
            ("stop_sign_hazard", ("route", "geometry"), {"straight": 0}),
            ("stop_sign_hazard", ("route", "waypoints"), {}),
            ("stop_sign_hazard", ("actors", 0, "script"), {}),
            ("stop_sign_hazard", ("deficit_policy", "window"), ""),
            ("traffic_light_hazard", ("traffic_lights", 0, "schedule"), {"0": "red"}),
        ],
        ids=["actors-empty", "lights-object", "signs-object", "classes-empty", "classes-keys",
             "geometry-keys", "waypoints-object", "script-object", "window-empty",
             "schedule-keys"],
    )
    def test_list_field_that_is_no_list_is_config_error(self, tmp_path, capsys, name, path, value):
        doc = json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=f"{path[-1]} must be a JSON list"):
            cli.load_scenarios([bad])
        argv = ["run", "--mode", "baseline", "--scenarios", str(bad), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"config error: scenario file {bad} failed to load" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMutatedInputs:
    @given(data=mutated(VALID_CONFIG))
    @settings(max_examples=40, deadline=None)
    def test_mutated_config_file_exits_0_or_2(self, workdir, data):
        cfg = workdir / "cfg.json"
        cfg.write_bytes(data)
        argv = ["run", "--mode", "rco", "--scenarios", scenario_path("pedestrian_cross"),
                "--config", str(cfg), "--out", str(workdir / "o")]
        assert main(argv) in (0, 2)

    @given(data=st.one_of(mutated(active_record()), mutated(base_record(15, FAIL_SAFE_STOP))))
    @settings(max_examples=200, deadline=None)
    def test_mutated_decision_log_line_exits_0_or_2(self, workdir, data):
        log = workdir / "mutated.decisions.jsonl"
        log.write_bytes(data + b"\n")
        assert main(["replay", "--log", str(log)]) in (0, 2)

    @given(
        data=st.one_of(
            mutated(json.loads(Path(scenario_path(name)).read_text(encoding="utf-8")))
            for name in ("stop_sign_hazard", "traffic_light_hazard")
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_scenario_is_config_error_or_runs_a_round(self, workdir, data):
        # One actor, a stop sign and a deficit window; a light schedule.
        path = workdir / "scenario.json"
        path.write_bytes(data)
        try:
            (sc,) = cli.load_scenarios([path])
        except cli.ConfigError:
            return
        w = simenv.world_from_scenario(sc)
        simenv.perceive(w, sc.deficit_policy)
        action = simenv.base_agent(w, simenv.masked_ids(w, sc.deficit_policy))
        simenv.detect_infractions(w, simenv.tick(w, action))
