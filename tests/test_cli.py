"""CLI harness: run, sweep, replay; determinism and exit codes."""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rco import cli
from rco.backend import ScriptedBackend
from rco.cli import bundled_scenario_dir, main
from rco.domain import FAIL_SAFE_STOP, Action
from rco.orchestrator import base_record
from rco.runner import Mode, Overrides, run_episode
from rco.simenv import InfractionKind, Scenario


def scenario_path(name: str) -> str:
    return str(bundled_scenario_dir() / f"{name}.json")


class TestBundledLibrary:
    def test_at_least_eight_scenarios(self):
        files = sorted(bundled_scenario_dir().glob("*.json"))
        assert len(files) >= 8

    def test_each_deficit_class_covered_benign_and_hazardous(self):
        by_class = {}
        for f in sorted(bundled_scenario_dir().glob("*.json")):
            sc = Scenario.load(str(f))
            for cls in sc.deficit_policy.classes:
                by_class.setdefault(cls.value, []).append(sc.name)
        for cls in ("traffic_light", "stop_sign", "pedestrian", "bicycle"):
            assert len(by_class.get(cls, [])) >= 2, f"need benign+hazardous for {cls}"

    def test_scenarios_load_and_validate(self):
        for f in sorted(bundled_scenario_dir().glob("*.json")):
            sc = Scenario.load(str(f))
            assert sc.time_limit_ticks > 0
            assert sc.route.length > 0


class TestRunCommand:
    def test_run_writes_results_and_summary(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--scenarios", scenario_path("pedestrian_cross"),
            "--mode", "baseline", "--backend", "scripted", "--out", str(out),
        ])
        assert code == 0
        result = json.loads((out / "pedestrian_cross__baseline.result.json").read_text())
        assert set(result) == {
            "scenario", "mode", "rc", "is_score", "ds", "as_speed", "infractions", "game_time_s",
        }
        assert (result["scenario"], result["mode"]) == ("pedestrian_cross", "baseline")
        assert result["rc"] == 100.0
        assert result["ds"] == pytest.approx(result["rc"] * result["is_score"])
        assert any(e["kind"] == "collision_pedestrian" for e in result["infractions"])
        assert all(set(e) == {"tick", "kind", "actor_id"} for e in result["infractions"])
        assert (out / "summary.csv").exists()
        assert (out / "pedestrian_cross__baseline.decisions.jsonl").exists()

    def test_decision_log_is_jsonl_with_schema(self, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--scenarios", scenario_path("traffic_light_benign"),
            "--mode", "rco", "--out", str(out),
        ])
        lines = (out / "traffic_light_benign__rco.decisions.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert rec["schema"] == 1
            assert "action" in rec

    def test_same_command_twice_is_byte_identical(self, tmp_path):
        args = ["run", "--mode", "rco", "--backend", "scripted"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b

    def test_missing_scenario_path_is_config_error(self, tmp_path):
        code = main(["run", "--scenarios", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
    @pytest.mark.parametrize(
        "edit",
        [
            "one-element window", "reversed window", "not json", "missing route",
            "zero time limit", "empty light schedule", "unsorted light schedule",
            "string static flag", "float window tick", "bool time limit", "string time limit",
            "null name", "number name", "empty name", "slash name", "dot-dot name",
            "comma name", "late light schedule", "unknown actor class",
            "nan waypoint", "infinite waypoint", "overflowing stop line", "huge int waypoint",
        ],
    )
    def test_unloadable_scenario_is_config_error(self, tmp_path, capsys, command, edit):
        d = json.loads(Path(scenario_path("pedestrian_cross")).read_text(encoding="utf-8"))
        text = None
        if edit == "one-element window":
            d["deficit_policy"]["window"] = [0]
        elif edit == "reversed window":
            d["deficit_policy"]["window"] = [150, 0]
        elif edit == "not json":
            text = "{ not json"
        elif edit == "zero time limit":
            d["time_limit_ticks"] = 0
        elif edit == "string static flag":
            d["actors"][0]["static"] = "false"
        elif edit == "float window tick":
            d["deficit_policy"]["window"] = [0.9, 150]
        elif edit == "bool time limit":
            d["time_limit_ticks"] = True
        elif edit == "string time limit":
            d["time_limit_ticks"] = "300"
        elif edit == "null name":
            d["name"] = None  # str() would read it as "None"
        elif edit == "number name":
            d["name"] = 5
        elif edit == "empty name":
            d["name"] = ""
        elif edit == "slash name":
            d["name"] = "sub/dir"  # its output files would name a missing directory
        elif edit == "dot-dot name":
            d["name"] = "../escaped"  # its output files would land outside --out
        elif edit == "comma name":
            d["name"] = "a,b"  # its summary.csv row would gain a column
        elif edit == "empty light schedule":
            d["traffic_lights"] = [
                {"id": 10, "position": [60, 3.5], "stop_line_s": 60, "schedule": []}
            ]
        elif edit == "unsorted light schedule":
            d["traffic_lights"] = [
                {"id": 10, "position": [60, 3.5], "stop_line_s": 60,
                 "schedule": [[0, "green"], [50, "red"], [20, "green"]]}
            ]
        elif edit == "unknown actor class":
            d["actors"][0]["class"] = "unknown"  # no footprint to collide with
        elif edit == "late light schedule":
            d["traffic_lights"] = [  # its red would show from tick 0, not 50
                {"id": 10, "position": [60, 3.5], "stop_line_s": 60,
                 "schedule": [[50, "red"], [80, "green"]]}
            ]
        elif edit == "nan waypoint":
            d["route"]["waypoints"][1][0] = math.nan  # written as NaN, which json reads
        elif edit == "infinite waypoint":
            d["route"]["waypoints"][1][1] = math.inf  # written as Infinity
        elif edit == "overflowing stop line":
            d["traffic_lights"] = [
                {"id": 10, "position": [60, 3.5], "stop_line_s": "<big>",
                 "schedule": [[0, "red"]]}
            ]
            text = json.dumps(d).replace('"<big>"', "1e999")  # json reads it as inf
        elif edit == "huge int waypoint":
            d["route"]["waypoints"][1][0] = 10 ** 400  # no float holds it
        else:
            del d["route"]
        bad = tmp_path / "bad.json"
        bad.write_text(text if text is not None else json.dumps(d), encoding="utf-8")
        scenarios = [scenario_path("traffic_light_benign"), str(bad)]
        code = main([*command, "--scenarios", *scenarios, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"scenario file {bad} failed to load" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
    @pytest.mark.parametrize("table", ["{not json", "[]", '{"hazard_and_plan": []}'])
    def test_malformed_scripted_table_is_config_error(self, tmp_path, capsys, command, table):
        # A table that is not an object of objects would fail on the first
        # call, inside an episode.
        path = tmp_path / "table.json"
        path.write_text(table, encoding="utf-8")
        argv = [*command, "--scripted-table", str(path), "--out", str(tmp_path / "o")]
        code = main([*argv, "--scenarios", scenario_path("pedestrian_cross")])
        assert code == 2
        assert f"config error: scripted table {path} failed to load" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
    @pytest.mark.parametrize("twice", ["same file", "same name"])
    def test_repeated_scenario_name_is_config_error(self, tmp_path, capsys, command, twice):
        # Outputs and scripted answers are keyed by name: a second episode
        # under the same name would overwrite the first one's files.
        first = scenario_path("pedestrian_cross")
        second = first
        if twice == "same name":
            second = tmp_path / "copy.json"
            second.write_text(Path(first).read_text(encoding="utf-8"), encoding="utf-8")
        code = main([*command, "--scenarios", first, str(second), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "repeats the scenario name 'pedestrian_cross'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
    @pytest.mark.parametrize("out", ["existing file", "path through a file"])
    def test_unusable_out_is_config_error_before_any_episode(
        self, tmp_path, capsys, monkeypatch, command, out
    ):
        def forbidden(*_args):
            raise AssertionError("an episode ran before --out was checked")

        monkeypatch.setattr(cli, "run_episode", forbidden)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker if out == "existing file" else blocker / "sub"
        code = main([
            *command, "--scenarios", scenario_path("pedestrian_cross"), "--out", str(target),
        ])
        assert code == 2
        assert f"output directory {target} cannot be created" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == ""

    def test_bad_override_is_config_error(self, tmp_path):
        code = main([
            "run", "--scenarios", scenario_path("pedestrian_cross"),
            "--n-max", "-3", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 2, "wait_cap": 10}))
        out = tmp_path / "out"
        code = main([
            "run", "--scenarios", scenario_path("traffic_light_benign"),
            "--mode", "rco", "--config", str(cfg), "--n-max", "4", "--out", str(out),
        ])
        assert code == 0
        # flag wins over file: sequences never exceed 4 pairs
        lines = (out / "traffic_light_benign__rco.decisions.jsonl").read_text().splitlines()
        max_seq = max(json.loads(l)["sequence_len"] for l in lines)
        assert max_seq <= 4

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_speed": 9}))
        code = main([
            "run", "--scenarios", scenario_path("pedestrian_cross"),
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "config, argv",
        [
            ('{"n_max": 2.5}', ["--mode", "rco"]),
            ('{"n_max": true}', ["--mode", "rco"]),
            ('{"wait_cap": 2.5}', ["--scenarios", scenario_path("pedestrian_cross")]),
            ('{"history_len": 6.0}', ["--scenarios", scenario_path("pedestrian_cross")]),
            ('{"penalties": {"collision_pedestrian": 5}}', ["--mode", "baseline"]),
            ('{"penalties": {"collision_pedestrian": NaN}}', ["--mode", "baseline"]),
            ('{"penalties": [1]}', ["--mode", "baseline"]),
            ("5", ["--mode", "baseline"]),
            ('{"delta_throttle": true}', ["--mode", "rco"]),
            ('{"delta_brake": true}', ["--mode", "rco"]),
            ('{"hazard_ratio_threshold": "0.5"}', ["--mode", "rco"]),
        ],
    )
    def test_config_value_of_wrong_type_or_range_is_config_error(
        self, tmp_path, capsys, monkeypatch, config, argv
    ):
        monkeypatch.setattr(cli, "run_episode", None)  # no episode may start
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = main(["run", *argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1"]])
    @pytest.mark.parametrize("penalty", ["true", '"0.5"'])
    def test_penalty_of_wrong_type_is_config_error(
        self, tmp_path, capsys, monkeypatch, command, penalty
    ):
        # A bool or a string is no coefficient, even where float() reads one.
        monkeypatch.setattr(cli, "run_episode", None)  # no episode may start
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"penalties": {"red_light": %s}}' % penalty)
        code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "penalty red_light must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "localhost:8000/v1/chat/completions"])
    def test_unusable_backend_url_is_config_error(self, tmp_path, capsys, monkeypatch, url):
        monkeypatch.setenv("RCO_BACKEND_URL", url)
        code = main(["run", "--backend", "http", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        scenarios = [scenario_path("pedestrian_cross"), scenario_path("bicycle_cross")]
        main(["run", "--scenarios", *scenarios, "--mode", "baseline",
              "--out", str(tmp_path / "seq"), "--jobs", "1"])
        main(["run", "--scenarios", *scenarios, "--mode", "baseline",
              "--out", str(tmp_path / "par"), "--jobs", "2"])
        assert (tmp_path / "seq" / "summary.csv").read_bytes() == (
            tmp_path / "par" / "summary.csv"
        ).read_bytes()

    def test_pool_has_no_more_workers_than_episodes(self, tmp_path, monkeypatch):
        # The pool starts every worker on the first submit; this stand-in
        # records its size and runs the episodes in this process instead.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert main(["run", "--jobs", "64", "--out", str(tmp_path / "par")]) == 0
        assert sizes == [len(list(bundled_scenario_dir().glob("*.json")))] == [9]
        assert main(["run", "--jobs", "1", "--out", str(tmp_path / "seq")]) == 0
        files = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in files:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


class TestSweepCommand:
    def test_sweep_table_shape(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenarios", scenario_path("traffic_light_benign"),
            "--limits", "1,3,5,8", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "n_max,rc,is,ds,delta_rc,delta_is,delta_ds"
        assert len(lines) == 5
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "3", "5", "8"]

    def test_benign_scenario_ds_not_worse_with_plan_ahead(self, tmp_path):
        out = tmp_path / "out"
        main([
            "sweep", "--scenarios", scenario_path("traffic_light_benign"),
            "--limits", "1,5", "--out", str(out),
        ])
        rows = {}
        for line in (out / "sweep.csv").read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            rows[int(parts[0])] = float(parts[3])  # ds
        assert rows[5] >= rows[1]

    def test_stale_plan_long_limit_degrades_infractions(self, tmp_path):
        out = tmp_path / "out"
        main([
            "sweep", "--scenarios", scenario_path("stale_plan"),
            "--limits", "5,12", "--out", str(out),
        ])
        rows = {}
        for line in (out / "sweep.csv").read_text().strip().split("\n")[1:]:
            parts = line.split(",")
            rows[int(parts[0])] = float(parts[2])  # is
        assert rows[12] < rows[5]

    def test_empty_limits_rejected(self, tmp_path):
        code = main(["sweep", "--limits", ",", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_limit_rejected_before_any_episode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_episode", None)  # no episode may start
        code = main(["sweep", "--limits", "3,0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        # Each worker process receives the one backend and every limit's
        # overrides by pickling.
        scenarios = [scenario_path("pedestrian_cross"), scenario_path("stale_plan")]
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            main(["sweep", "--scenarios", *scenarios, "--limits", "1,5",
                  "--jobs", jobs, "--out", str(out)])
            outs[jobs] = (out / "sweep.csv").read_bytes()
        assert outs["1"] == outs["2"]


    def test_parallel_sweep_starts_one_pool(self, tmp_path, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        scenarios = [scenario_path("pedestrian_cross"), scenario_path("stale_plan")]
        code = main(["sweep", "--scenarios", *scenarios, "--limits", "1,3,5",
                     "--jobs", "2", "--out", str(tmp_path / "o")])
        assert code == 0
        assert pools == [{"max_workers": 2}]


class TestOneBackendPerCommand:
    @pytest.mark.parametrize(
        "argv", [["run", "--mode", "rco"], ["sweep", "--limits", "1,5"]]
    )
    def test_build_backend_called_once(self, tmp_path, monkeypatch, argv):
        built = []

        def counting(*args):
            built.append(args)
            return ScriptedBackend.bundled()

        monkeypatch.setattr(cli, "build_backend", counting)
        scenarios = [scenario_path("pedestrian_cross"), scenario_path("stop_sign_hazard")]
        code = main([*argv, "--scenarios", *scenarios, "--out", str(tmp_path / "o")])
        assert code == 0
        assert built == [("scripted", None)]


# Each knob's flag text (None: config-file only) and value, distinct from the
# defaults, and every place it must land in the orchestrator config or the
# penalty table.
KNOBS = {
    "n_max": ("7", 7, lambda c, p: (c.planner.max_steps,)),
    "history_len": ("6", 6, lambda c, p: (c.planner.history_len, c.verifier.history_len)),
    "wait_cap": ("11", 11, lambda c, p: (c.planner.wait_cap,)),
    "replan_budget": ("4", 4, lambda c, p: (c.planner.replan_budget,)),
    "shift_threshold": ("0.2", 0.2, lambda c, p: (c.verifier.shift_threshold,)),
    "hazard_ratio_threshold": ("0.07", 0.07, lambda c, p: (c.verifier.hazard_ratio_threshold,)),
    "delta_throttle": ("0.3", 0.3, lambda c, p: (c.gains.delta_throttle,)),
    "delta_brake": ("0.4", 0.4, lambda c, p: (c.gains.delta_brake,)),
    "penalties": (
        None,
        {"collision_pedestrian": 0.25},
        lambda c, p: ({"collision_pedestrian": p[InfractionKind.COLLISION_PEDESTRIAN]},),
    ),
}


class TestKnobDeclaration:
    def test_knob_table_covers_every_field(self):
        assert set(KNOBS) == {f.name for f in dataclasses.fields(Overrides)}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_flags_are_the_fields_without_penalties(self, command):
        parser = cli.make_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings for a in sub.choices[command]._actions}
        fields = {f.name for f in dataclasses.fields(Overrides)}
        assert set(flags) & fields == fields - {"penalties"}
        for name in fields - {"penalties"}:
            assert flags[name] == ["--" + name.replace("_", "-")]

    @pytest.mark.parametrize("command, own", [("run", "--mode"), ("sweep", "--limits")])
    def test_flag_set_is_pinned(self, command, own):
        # Each flag is read by the command; a flag that changes nothing, such
        # as a seed written to the outputs and read by nothing, cannot return.
        parser = cli.make_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {flag for a in sub.choices[command]._actions for flag in a.option_strings}
        assert flags == {
            "-h", "--help", "--scenarios", "--backend", "--scripted-table", "--out", "--jobs",
            "--config", "--n-max", "--history-len", "--wait-cap", "--replan-budget",
            "--shift-threshold", "--hazard-ratio-threshold", "--delta-throttle", "--delta-brake",
            own,
        }

    def test_seed_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, source",
        [(name, "config") for name in KNOBS]
        + [(name, "flag") for name, knob in KNOBS.items() if knob[0] is not None],
    )
    def test_knob_reaches_config_unchanged(self, tmp_path, name, source):
        flag, value, read = KNOBS[name]
        if source == "flag":
            argv = ["run", "--" + name.replace("_", "-"), flag]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: value}))
            argv = ["run", "--config", str(cfg)]
        overrides = cli._merge_overrides(cli.make_parser().parse_args(argv))
        assert getattr(overrides, name) == value
        assert type(getattr(overrides, name)) is type(value)
        landed = read(overrides.orchestrator_config("k", 0.1), overrides.penalty_table())
        assert landed == (value,) * len(landed)


class TestReplayCommand:
    def test_replay_renders_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        main([
            "run", "--scenarios", scenario_path("pedestrian_cross"),
            "--mode", "rco", "--out", str(out),
        ])
        capsys.readouterr()
        code = main(["replay", "--log", str(out / "pedestrian_cross__rco.decisions.jsonl")])
        assert code == 0
        text = capsys.readouterr().out
        assert "tick" in text
        assert "throttle=" in text

    def test_missing_log_is_config_error(self, tmp_path):
        assert main(["replay", "--log", str(tmp_path / "missing.jsonl")]) == 2

    @pytest.mark.parametrize(
        "bad_line", ["{ not json", '{"tick": 1, "active": false}', "[1, 2]"]
    )
    def test_malformed_log_is_config_error(self, tmp_path, capsys, bad_line):
        good = '{"tick": 0, "active": false, "action": {"throttle": 0, "brake": 0, "steer": 0}}'
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(f"{good}\n\n{bad_line}\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 3 is malformed" in captured.err
        assert captured.out == ""

    @staticmethod
    def _active_record(**fields):
        return {
            **base_record(15, FAIL_SAFE_STOP),
            "active": True,
            "source": "failsafe",
            "classification": "replan",
            "verdict": "deny",
            "planning_events": 2,
            **fields,
        }

    def test_active_line_shows_ratio_and_denials(self, tmp_path, capsys):
        records = [
            base_record(14, FAIL_SAFE_STOP),
            self._active_record(
                hazard_ratio=0.0612345, denied=["wait_inconsistent", "consistent_immediate_hazard"]
            ),
            self._active_record(tick=16, hazard_ratio=0.00004, denied=[]),
        ]
        log = tmp_path / "hand.decisions.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 0
        base, denied, allowed = capsys.readouterr().out.splitlines()
        assert base == "tick    14  base agent        throttle=0.00 brake=0.80 steer=+0.00"
        assert "replan" in denied and "ratio=0.0612  throttle=0.00" in denied
        assert denied.endswith("  plans=2  denied=wait_inconsistent+consistent_immediate_hazard")
        assert "ratio=0.0000  throttle=0.00" in allowed
        assert "denied=" not in allowed

    @pytest.mark.parametrize(
        "ratio", [None, "0.06", [0.06], True, math.nan, math.inf, -math.inf]
    )
    def test_active_record_without_a_numeric_ratio_is_config_error(
        self, tmp_path, capsys, ratio
    ):
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(self._active_record(hazard_ratio=ratio)) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 1 is malformed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["tick", "throttle", "brake", "steer"])
    @pytest.mark.parametrize("active", [False, True])
    def test_boolean_tick_or_action_field_is_config_error(self, tmp_path, capsys, field, active):
        # JSON true would format as tick 1 or throttle=1.00.
        record = (
            self._active_record(hazard_ratio=0.06) if active else base_record(15, FAIL_SAFE_STOP)
        )
        if field == "tick":
            record["tick"] = True
        else:
            record["action"][field] = True
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 1 is malformed" in captured.err
        assert f"{field} must be a number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tick", "throttle", "brake", "steer"])
    @pytest.mark.parametrize("active", [False, True])
    def test_non_finite_tick_or_action_field_is_config_error(
        self, tmp_path, capsys, field, active, value
    ):
        # json reads NaN and Infinity, which no written log holds.
        record = (
            self._active_record(hazard_ratio=0.06) if active else base_record(15, FAIL_SAFE_STOP)
        )
        if field == "tick":
            record["tick"] = value
        else:
            record["action"][field] = value
        log = tmp_path / "bad.decisions.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["replay", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert f"decision log {log} line 1 is malformed" in captured.err
        assert f"{field} must be a number" in captured.err
        assert captured.out == ""

    def test_closed_stdout_ends_quietly_with_141(self, tmp_path):
        # The trace is far longer than a pipe holds, so the writer is still
        # writing when the reader goes away after one line.
        log = tmp_path / "long.decisions.jsonl"
        log.write_text(
            "".join(json.dumps(base_record(t, FAIL_SAFE_STOP)) + "\n" for t in range(5000)),
            encoding="utf-8",
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "rco.cli", "replay", "--log", str(log)]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first.startswith(b"tick     0  base agent")
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert stderr == b""  # no traceback


class TestAlwaysStopMode:
    def test_always_stop_halts_on_first_deficit(self):
        sc = Scenario.load(scenario_path("pedestrian_cross"))
        out = run_episode(sc, Mode.ALWAYS_STOP, ScriptedBackend.bundled(), Overrides())
        assert out.result.rc == pytest.approx(0.0, abs=1.0)
        assert out.result.infractions == ()


# Signed zeros, subnormals, the largest subnormal, a sum that is not its
# shortest decimal, and the range ends.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 0.1 + 0.2, 1.0]
_unit = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 1.0))
_steer = st.one_of(
    st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]), st.floats(-1.0, 1.0)
)


class TestRecordLine:
    """A base-agent record's line comes from a template cut from the
    encoder; it must be the encoder's bytes."""

    @given(tick=st.integers(0, 10**6), throttle=_unit, brake=_unit, steer=_steer)
    @example(tick=10**6, throttle=-0.0, brake=5e-324, steer=-(0.1 + 0.2))
    @settings(max_examples=300, deadline=None)
    def test_base_record_line_is_the_encoders(self, tick, throttle, brake, steer):
        record = base_record(tick, Action(throttle, brake, steer))
        assert cli._record_line(record) == cli._RECORD_ENCODER.encode(record)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_bundled_record_line_is_the_encoders(self, mode):
        backend = ScriptedBackend.bundled()
        active = 0
        for path in sorted(bundled_scenario_dir().glob("*.json")):
            for record in run_episode(Scenario.load(str(path)), mode, backend).records:
                active += record["active"]
                assert cli._record_line(record) == cli._RECORD_ENCODER.encode(record)
        assert (active > 0) is (mode is Mode.RCO)

    def test_active_record_takes_the_full_encode(self, monkeypatch):
        encoded = []

        class Spy(json.JSONEncoder):
            def encode(self, o):
                encoded.append(o)
                return super().encode(o)

        monkeypatch.setattr(cli, "_RECORD_ENCODER", Spy(sort_keys=True, separators=(",", ":")))
        record = {
            **base_record(7, FAIL_SAFE_STOP),
            "active": True,
            "source": "failsafe",
            "denied": ["wait_inconsistent"],
        }
        line = cli._record_line(record)
        assert encoded == [record]
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
