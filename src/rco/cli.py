"""Scenario runner CLI: run episodes, sweep the plan-step limit, replay logs.

Config precedence is flags > config file > defaults. With the scripted
backend every output byte is reproducible: results carry no wall-clock
timestamps and floats are written with fixed precision in a fixed row order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, get_args

from . import metrics
from .backend import Backend, HttpBackend, ScriptedBackend
from .domain import typed
from .orchestrator import read_record, record_line
from .runner import EpisodeOutcome, Mode, Overrides, given, run_episode
from .simenv import Scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


class ConfigError(Exception):
    pass


def bundled_scenario_dir() -> Path:
    return Path(str(resources.files("rco").joinpath("scenarios")))


def discover_scenarios(paths: Sequence[str]) -> list[Path]:
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(p.glob("*.json")))
        elif p.is_file():
            found.append(p)
        else:
            raise ConfigError(f"scenario path does not exist: {raw}")
    if not found:
        raise ConfigError(f"no scenario files found under {list(paths)}")
    return found


def _read(path: str | Path, label: str, decode: Callable[[str], Any]) -> Any:
    """``decode`` of the file's UTF-8 text; ConfigError if it is no regular
    file (a FIFO would block the open), cannot be read, or does not decode: bad
    UTF-8, bad or too deep JSON, or a JSON type that ``decode`` rejects."""
    if not os.path.isfile(path):
        raise ConfigError(f"{label} does not exist: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(fh.read())
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label} {path} failed to load: {exc}") from exc


def load_scenarios(paths: Sequence[Path]) -> list[Scenario]:
    """Each file's scenario; names must be distinct, since a name keys both
    the output files and the scripted table."""
    scenarios: dict[str, Scenario] = {}
    for p in paths:
        data = _read(p, "scenario file", json.loads)
        try:
            sc = Scenario.from_json(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"scenario file {p} failed to load: {exc!r}") from exc
        if sc.name in scenarios:
            raise ConfigError(f"scenario file {p} repeats the scenario name {sc.name!r}")
        scenarios[sc.name] = sc
    return list(scenarios.values())


def build_backend(kind: str, scripted_table: Optional[str]) -> Backend:
    if kind == "http":
        if scripted_table:  # the table would go unread
            raise ConfigError("--scripted-table applies to the scripted backend only, not http")
        try:
            return HttpBackend.from_env()
        except ValueError as exc:
            raise ConfigError(f"http backend misconfigured (set RCO_BACKEND_URL): {exc}") from exc
    # "scripted", the one other kind --backend's choices admit
    if not scripted_table:
        return ScriptedBackend.bundled()
    return _read(scripted_table, "scripted table", lambda text: ScriptedBackend(json.loads(text)))


def _flag_types() -> dict[str, type]:
    """The ``Overrides`` fields that take a flag, each with its flag's type:
    a field annotated ``Optional[int]`` or ``Optional[float]`` gets one, so
    the penalty table stays config-file only."""
    kinds = {f.name: get_args(f.type)[0] for f in dataclasses.fields(Overrides)}
    return {name: kind for name, kind in kinds.items() if kind in (int, float)}


def _load_config_file(path: Optional[str]) -> dict[str, Any]:
    if not path:
        return {}
    data = _read(path, "config file", lambda text: typed(json.loads(text), dict, "the config"))
    unknown = set(data) - {f.name for f in dataclasses.fields(Overrides)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge_overrides(args: argparse.Namespace) -> Overrides:
    merged = _load_config_file(getattr(args, "config", None))
    for f in dataclasses.fields(Overrides):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            merged[f.name] = flag_value
    return _checked(Overrides(**merged))


def _checked(overrides: Overrides) -> Overrides:
    """``overrides`` once its types and ranges are checked, before any episode runs."""
    try:
        overrides.orchestrator_config("probe", 0.1)
        overrides.penalty_table()
        return overrides
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid override values: {exc}") from exc


def _output_dir(raw: str) -> Path:
    """The ``--out`` directory, created before any episode runs, so that a
    path that cannot be a directory is a config error, not a late crash."""
    out_dir = Path(raw)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        raise ConfigError(f"output directory {raw} cannot be created: {exc}") from exc
    return out_dir


def _write_outputs(
    outcomes: list[EpisodeOutcome], out_dir: Path, run_config: dict[str, Any]
) -> None:
    for outcome in outcomes:
        stem = f"{outcome.result.scenario}__{outcome.result.mode}"
        (out_dir / f"{stem}.result.json").write_text(
            json.dumps(outcome.result.to_json(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        (out_dir / f"{stem}.decisions.jsonl").write_text(
            "".join(record_line(record) + "\n" for record in outcome.records),
            encoding="utf-8",
        )
    summary = metrics.Summary(tuple(o.result for o in outcomes))
    (out_dir / "summary.csv").write_text(summary.to_csv(), encoding="utf-8")
    payload = {"run_config": run_config, **summary.to_json()}
    (out_dir / "summary.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def cmd_run(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(discover_scenarios(args.scenarios))
    overrides = _merge_overrides(args)
    backend = build_backend(args.backend, args.scripted_table)
    out_dir = _output_dir(args.out)
    outcomes = [run_episode(s, Mode(args.mode), backend, overrides) for s in scenarios]
    run_config = {
        "mode": args.mode,
        "backend": args.backend,
        "overrides": given(**dataclasses.asdict(overrides)),
    }
    _write_outputs(outcomes, out_dir, run_config)
    for o in outcomes:
        r = o.result
        print(
            f"{r.scenario} [{r.mode}]: RC={r.rc:.2f} IS={r.is_score:.3f} "
            f"DS={r.ds:.2f} AS={r.as_speed:.2f}"
        )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(discover_scenarios(args.scenarios))
    overrides = _merge_overrides(args)
    if overrides.n_max is not None:  # every run's n_max comes from --limits, so it would go unread
        raise ConfigError("sweep takes its step limits from --limits, not from n_max")
    try:
        limits = [int(x) for x in args.limits.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --limits: {exc}") from exc
    if not limits:
        raise ConfigError("--limits must name at least one step limit")
    limited = [_checked(dataclasses.replace(overrides, n_max=limit)) for limit in limits]
    backend = build_backend(args.backend, args.scripted_table)
    out_dir = _output_dir(args.out)

    runs = [(Mode.BASELINE, overrides)]
    runs += [(Mode.RCO, limit_overrides) for limit_overrides in limited]
    outcomes = [run_episode(s, mode, backend, o) for mode, o in runs for s in scenarios]
    n = len(scenarios)
    base_agg, *limit_aggs = [
        metrics.Summary(tuple(o.result for o in outcomes[i:i + n])).aggregate()
        for i in range(0, len(outcomes), n)
    ]

    lines = ["n_max,rc,is,ds,delta_rc,delta_is,delta_ds"]
    for limit, agg in zip(limits, limit_aggs):
        lines.append(
            f"{limit},{agg['rc']:.6f},{agg['is_score']:.6f},{agg['ds']:.6f},"
            f"{agg['rc'] - base_agg['rc']:.6f},"
            f"{agg['is_score'] - base_agg['is_score']:.6f},"
            f"{agg['ds'] - base_agg['ds']:.6f}"
        )
        print(lines[-1])
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    path = args.log
    trace = []
    for number, line in enumerate(_read(path, "decision log", str.splitlines), 1):
        if line.strip():
            try:
                trace.append(_trace_line(read_record(json.loads(line))))
            except (RecursionError, TypeError, ValueError) as exc:  # bad or deep JSON
                raise ConfigError(f"decision log {path} line {number} is malformed: {exc!r}") from exc
    for text in trace:
        print(text, flush=True)  # a closed pipe raises here, not at interpreter exit
    return EXIT_OK


def _trace_line(rec: Any) -> str:
    """The trace line of a record ``read_record`` read."""
    act = rec.action
    actuation = f"throttle={act.throttle:.2f} brake={act.brake:.2f} steer={act.steer:+.2f}"
    if not rec.active:
        return f"tick {rec.tick:>5}  base agent        {actuation}"
    shown = (("constraints=", "+".join(rec.triggered_constraints)),
             ("plans=", rec.planning_events or ""), ("denied=", "+".join(rec.denied)))
    extra = "".join(f"  {label}{text}" for label, text in shown if text)
    return (f"tick {rec.tick:>5}  {rec.source:<10} {rec.classification:<32}"
            f"ratio={rec.hazard_ratio:.4f}  {actuation}{extra}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rco",
        description="Run driving scenarios with or without the risk-averse control override.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options run and sweep share, declared once: argparse builds a help
    # formatter for each add_argument, and parents copies the actions.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenarios",
        nargs="+",
        default=[str(bundled_scenario_dir())],
        help="scenario JSON files or directories (default: bundled library)",
    )
    common.add_argument("--backend", choices=["scripted", "http"], default="scripted")
    common.add_argument("--scripted-table", default=None, help="override scripted response table")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--config", default=None, help="JSON config file with override keys")
    for name, kind in _flag_types().items():
        common.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)

    p_run = sub.add_parser(
        "run", parents=[common], help="run scenarios in one mode and write results"
    )
    p_run.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.RCO.value
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep the plan-step limit")
    p_sweep.add_argument("--limits", default="1,3,5,8", help="comma-separated step limits")
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay", help="render a decision log as a readable trace")
    p_replay.add_argument("--log", required=True)
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:  # the reader closed stdout, as `rco replay ... | head` does
        # Python's recipe: stdout goes to devnull, so the final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
