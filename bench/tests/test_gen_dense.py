"""The gen-dense generator: deterministic per seed, and every scenario and
table entry it writes is accepted by rco."""

from __future__ import annotations

import json

import pytest

import gen_dense
from rco import cli
from rco.backend import SchemaViolation, ScriptedBackend
from rco.simenv import Scenario


def _dump(seed: int) -> str:
    return json.dumps(gen_dense.generate(seed), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_same_seed_same_inputs(seed):
    assert _dump(seed) == _dump(seed)


def test_seeds_differ():
    assert len({_dump(seed) for seed in range(5)}) == 5


@pytest.mark.parametrize("seed", [gen_dense.DEFAULT_SEED, 2, 3, 99])
def test_inputs_validate(seed):
    scenarios, table = gen_dense.generate(seed)
    gen_dense.validate(scenarios, table)
    assert len(scenarios) == gen_dense.N_SCENARIOS


def test_layout():
    scenarios, table = gen_dense.generate(gen_dense.DEFAULT_SEED)
    for d in scenarios:
        sc = Scenario.from_json(d)
        assert 6 <= len(sc.actors) <= 12
        tags = {g.value for g in sc.route.geometry}
        assert {"intersection", "left_curve", "right_curve"} <= tags
        assert {c.value for c in sc.deficit_policy.classes} == {"bicycle", "pedestrian"}
    plans = table["short_term_motion"].values()
    assert any(p["strategy"] == "stop_observe_move" for p in plans)
    assert all(1 <= len(p["pairs"]) <= 3 for p in plans if p["strategy"] == "move")
    assert 0 < len(table["safety_constraints"]) < len(scenarios)


def test_validate_rejects_bad_entry():
    scenarios, table = gen_dense.generate(1)
    name = scenarios[0]["name"]
    table["short_term_motion"][name] = {"strategy": "move", "pairs": [{"condition": "maybe"}]}
    with pytest.raises(SchemaViolation):
        gen_dense.validate(scenarios, table)


def test_written_inputs_load_through_the_cli(tmp_path):
    scenario_dir, table_path = gen_dense.write(5, tmp_path)
    paths = cli.discover_scenarios([str(scenario_dir)])
    assert [Scenario.load(str(p)).name for p in paths] == [
        gen_dense.scenario_name(i) for i in range(gen_dense.N_SCENARIOS)
    ]
    assert isinstance(cli.build_backend("scripted", str(table_path)), ScriptedBackend)
    assert json.loads(table_path.read_text()) == gen_dense.generate(5)[1]
