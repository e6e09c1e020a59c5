"""The benchmark's contract with the program: ``bench/gen_dense.py`` and
``bench/driver.py`` are imported as they are, and what they build, drive and
replay must still agree with ``rco``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import driver
import gen_dense
from rco import backend as backend_mod
from rco import cli
from rco.backend import ScriptedBackend
from rco.runner import Mode, Overrides, run_episode
from rco.simenv import Scenario

SEED = 1
OVERRIDES = Overrides(n_max=1)  # the gen-dense workload's knob


@pytest.fixture(scope="module")
def generated():
    scenarios, table = gen_dense.generate(SEED)
    return [Scenario.from_json(d) for d in scenarios], table


def test_gen_dense_inputs_validate():
    gen_dense.validate(*gen_dense.generate(SEED))


def test_driver_row_equals_run_episode(generated):
    scenarios, table = generated
    sc = scenarios[0]
    out = run_episode(sc, Mode.RCO, ScriptedBackend(table), OVERRIDES)
    ep = driver.drive_episode(sc, Mode.RCO, ScriptedBackend(table), OVERRIDES)
    assert any(r["active"] for r in out.records)
    assert ep.row == driver.summary_row(out.result)
    assert ep.records == list(out.records)


BUNDLED = sorted(cli.bundled_scenario_dir().glob("*.json"))


@pytest.mark.parametrize("mode", [Mode.BASELINE, Mode.ALWAYS_STOP], ids=lambda m: m.value)
@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_driver_matches_run_episode_without_override(path, mode):
    # The driver's loop still perceives and masks on every tick, so it is the
    # reference for the work run_episode skips in these modes.
    sc = Scenario.load(str(path))
    out = run_episode(sc, mode, ScriptedBackend.bundled())
    ep = driver.drive_episode(sc, mode, ScriptedBackend.bundled(), Overrides())
    assert ep.row == driver.summary_row(out.result)
    assert ep.records == list(out.records)


def test_replay_of_a_traced_pass_has_no_mismatch(generated):
    scenarios, table = generated
    traced = driver.TracedPass()
    inner = ScriptedBackend(table)
    tracing = driver.TracingBackend(inner, traced.tracer)
    layers = driver.traced_layers(traced, inner, tracing)
    for sc in scenarios[:2]:
        driver.drive_episode(sc, Mode.RCO, tracing, OVERRIDES, layers, traced.tracer)
    rep = driver.replay(traced.captures)
    assert rep.executed_pairs > 0
    assert "planner.round" in rep.samples
    assert rep.mismatches == 0


def test_scripted_gen_dense_episode_renders_no_prompt(generated, monkeypatch):
    def forbidden(*_args):
        raise AssertionError("a scripted episode rendered prompt text")

    monkeypatch.setattr(backend_mod, "_template", forbidden)
    monkeypatch.setattr(backend_mod, "_history_text", forbidden)
    scenarios, table = generated
    out = run_episode(scenarios[0], Mode.RCO, ScriptedBackend(table), OVERRIDES)
    assert sum(r["planning_events"] for r in out.records) > 0
