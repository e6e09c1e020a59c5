"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a PASS line on success (visible with -s); a failed assert is
the FAIL signal. Criteria are numbered to match the release checklist.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from rco.backend import ScriptedBackend
from rco.cli import bundled_scenario_dir, main
from rco.controlmap import map_speed_control
from rco.domain import (
    Action,
    Box,
    ExecutionCondition,
    ObjectClass,
    SafetyConstraints,
    SpeedControl,
    VehicleMeasurements,
)
from rco.metrics import EpisodeResult, infraction_score
from rco.orchestrator import OrchestratorConfig, engage, initial_state, step
from rco.planner import PlannerConfig
from rco.runner import Mode, Overrides, run_episode
from rco.safety import SafetyGains, apply_constraints
from rco.simenv import DeficitPolicy, InfractionEvent, InfractionKind, Scenario
from rco.verifier import (
    ConsistencyReason,
    VerifierConfig,
    check_deficit_consistency,
    classify_condition,
    hazard_proximity_ratio,
    union_area,
)
from conftest import history_of_counts, snapshot


def load_scenario(name: str) -> Scenario:
    return Scenario.load(str(bundled_scenario_dir() / f"{name}.json"))


# ---------------------------------------------------------------------------
# 1. Constraint-algebra oracle
# ---------------------------------------------------------------------------

def _oracle(a, m, c, g):
    def clip(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    throttle = (
        a.throttle
        - (g.delta_throttle if m.v >= c.v_max else 0.0)
        - (g.delta_throttle if m.d_follow < c.d_min else 0.0)
        - (g.delta_throttle * (m.a_x - c.ac_max) if m.a_x > c.ac_max else 0.0)
    )
    brake = (
        a.brake
        + (g.delta_brake if m.v * m.v / (2.0 * c.de_max) > c.d_brake else 0.0)
        - (g.delta_brake * (-c.de_max - m.a_x) if m.a_x < -c.de_max else 0.0)
    )
    steer = a.steer * (c.psi_max / abs(m.omega_z)) if abs(m.omega_z) > c.psi_max else a.steer
    return Action(clip(throttle, 0, 1), clip(brake, 0, 1), clip(steer, -1, 1))


def test_acceptance_1_constraint_algebra_oracle_10k_bit_exact():
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(10_000):
        a = Action(rng.random(), rng.random(), rng.uniform(-1, 1))
        m = VehicleMeasurements(
            v=rng.uniform(0, 30),
            a_x=rng.uniform(-15, 15),
            omega_z=rng.uniform(-2, 2),
            d_follow=math.inf if rng.random() < 0.25 else rng.uniform(0, 40),
        )
        c = SafetyConstraints(
            v_max=rng.uniform(1, 20), d_min=rng.uniform(1, 15),
            ac_max=rng.uniform(0.5, 5), de_max=rng.uniform(0.5, 8),
            psi_max=rng.uniform(0.05, 1.5), d_brake=rng.uniform(1, 20),
        )
        g = SafetyGains(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
        got = apply_constraints(a, m, c, g)
        want = _oracle(a, m, c, g)
        assert (got.throttle, got.brake, got.steer) == (want.throttle, want.brake, want.steer)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"10k oracle comparison took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (constraint-algebra oracle, 10k bit-exact, {elapsed:.2f}s): PASS")


# ---------------------------------------------------------------------------
# 2. Control-mapping table
# ---------------------------------------------------------------------------

def test_acceptance_2_control_mapping_table_66_cases():
    formulas = {
        SpeedControl.CONSTANT_SPEED: lambda p: (0.7, 0.0),
        SpeedControl.DECELERATION: lambda p: (max(0.0, p - 0.2), 0.2),
        SpeedControl.QUICK_DECELERATION: lambda p: (max(0.0, p - 0.4), 0.4),
        SpeedControl.DECELERATION_TO_ZERO: lambda p: (0.0, 0.8),
        SpeedControl.ACCELERATION: lambda p: (min(1.0, p + 0.2), 0.0),
        SpeedControl.QUICK_ACCELERATION: lambda p: (min(1.0, p + 0.4), 0.0),
    }
    cases = 0
    for speed, formula in formulas.items():
        for i in range(11):
            prev = round(0.1 * i, 1)
            assert map_speed_control(speed, prev) == formula(prev)
            cases += 1
    assert cases == 66
    print("\nACCEPTANCE 2 (control-mapping table, 66 exact cases): PASS")


# ---------------------------------------------------------------------------
# 3. Verifier threshold semantics
# ---------------------------------------------------------------------------

def _rasterized_union(boxes, n=1000):
    grid = np.zeros((n, n), dtype=bool)
    for b in boxes:
        grid[int(round(b.x0 * n)):int(round(b.x1 * n)),
             int(round(b.y0 * n)):int(round(b.y1 * n))] = True
    return grid.sum() / (n * n)


def test_acceptance_3_verifier_threshold_semantics():
    cfg = VerifierConfig()
    rng = random.Random(3)

    # Union-overlap correctness vs the rasterized brute force (<= 2e-3).
    for _ in range(30):
        boxes = []
        for _ in range(rng.randint(0, 6)):
            x0, y0 = rng.uniform(0, 0.8), rng.uniform(0, 0.8)
            boxes.append(Box(x0, y0, x0 + rng.uniform(0.03, 0.2), y0 + rng.uniform(0.03, 0.2)))
        assert union_area(boxes) == pytest.approx(_rasterized_union(boxes), abs=2e-3)

    # Ratio monotonicity under added boxes.
    for _ in range(50):
        boxes = []
        prev = 0.0
        for _ in range(rng.randint(1, 6)):
            x0, y0 = rng.uniform(0, 0.8), rng.uniform(0, 0.8)
            boxes.append(Box(x0, y0, x0 + rng.uniform(0.03, 0.2), y0 + rng.uniform(0.03, 0.2)))
            ratio = hazard_proximity_ratio(snapshot(front_deficits=boxes))
            assert ratio >= prev - 1e-12
            prev = ratio

    # Strict boundary at 0.05: exactly at threshold is no hazard.
    at = [snapshot(tick=t, front_deficits=[Box(0.4, 0.4, 0.9, 0.5)]) for t in range(2)]
    assert hazard_proximity_ratio(at[-1]) == pytest.approx(0.05)
    assert classify_condition(at, cfg) is ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD
    above = [snapshot(tick=t, front_deficits=[Box(0.4, 0.4, 0.902, 0.5)]) for t in range(2)]
    assert classify_condition(above, cfg) is ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD

    # The three inconsistency modes classify correctly.
    assert (
        check_deficit_consistency(history_of_counts([2, 2, 3]), cfg)
        is ConsistencyReason.QUANTITY_MISMATCH
    )
    assert (
        check_deficit_consistency(history_of_counts([1, 1, 0]), cfg)
        is ConsistencyReason.DEFICIT_DISAPPEARED
    )
    shifted = [
        snapshot(tick=0, front_deficits=[Box(0.1, 0.4, 0.2, 0.5)]),
        snapshot(tick=1, front_deficits=[Box(0.5, 0.4, 0.6, 0.5)]),
    ]
    assert (
        check_deficit_consistency(shifted, cfg)
        is ConsistencyReason.SPATIAL_SHIFT_EXCEEDED
    )
    for frames in (history_of_counts([2, 2, 3]), history_of_counts([1, 1, 0]), shifted):
        assert classify_condition(frames, cfg) is None
    print("\nACCEPTANCE 3 (verifier threshold semantics): PASS")


# ---------------------------------------------------------------------------
# 4. Orchestrator soundness over 10,000 fuzzed ticks
# ---------------------------------------------------------------------------

FUZZ_TABLE = {
    "hazard_and_plan": {
        "fuzz_move": {"hazards": [], "strategy": "move"},
        "fuzz_wait": {"hazards": [], "strategy": "stop_observe_move"},
    },
    "short_term_motion": {
        "fuzz_move": {
            "strategy": "move",
            "pairs": [
                {"condition": "consistent_no_immediate_hazard",
                 "behavior": "move_forward", "speed": "constant_speed"}
            ] * 7,
        },
        "fuzz_wait": {
            "strategy": "stop_observe_move", "wait": 4,
            "trigger": "consistent_no_immediate_hazard",
        },
    },
    "safety_constraints": {},
}


def _fuzz_episode(key: str, seed: int, ticks: int) -> None:
    rng = random.Random(seed)
    backend = ScriptedBackend(FUZZ_TABLE)
    cfg = OrchestratorConfig(planner=PlannerConfig(), scenario_key=key)
    state = engage(True, initial_state())
    history = []
    for tick in range(ticks):
        boxes = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            x0, y0 = rng.uniform(0, 0.7), rng.uniform(0, 0.7)
            boxes.append(Box(x0, y0, x0 + rng.uniform(0.05, 0.3), y0 + rng.uniform(0.05, 0.3)))
        snap = snapshot(tick=tick, front_deficits=boxes)
        history = (history + [snap])[-5:]
        measurements = VehicleMeasurements(
            v=rng.uniform(0, 15), a_x=rng.uniform(-8, 8), omega_z=rng.uniform(-1, 1),
            d_follow=math.inf if rng.random() < 0.5 else rng.uniform(0, 30),
        )
        result = step(state, snap, history, measurements, (0.0, 0.0, 0.0), backend, cfg)
        state = result.state
        # an action every tick, in range
        assert 0.0 <= result.action.throttle <= 1.0
        assert 0.0 <= result.action.brake <= 1.0
        assert -1.0 <= result.action.steer <= 1.0
        # every emission traces to a verified pair, a waiting stop, or the
        # fail-safe stop; no other path exists
        assert result.record["source"] in ("pair", "stop_wait", "failsafe")
        if result.record["source"] == "failsafe":
            assert result.action == Action(0.0, 0.8, 0.0)
        # sequence bounds
        if state.wait_trigger is None:
            assert len(state.sequence) <= cfg.planner.max_steps
        else:
            assert len(state.sequence) <= cfg.planner.wait_cap


def test_acceptance_4_orchestrator_soundness_10k_ticks():
    _fuzz_episode("fuzz_move", seed=41, ticks=4000)
    _fuzz_episode("fuzz_wait", seed=42, ticks=3000)
    _fuzz_episode("fuzz_unknown_key", seed=43, ticks=3000)  # all-fallback path
    print("\nACCEPTANCE 4 (orchestrator soundness, 10k fuzzed ticks): PASS")


# ---------------------------------------------------------------------------
# 5. Metrics identities
# ---------------------------------------------------------------------------

def test_acceptance_5_metrics_identities():
    rng = random.Random(5)
    for _ in range(2000):
        rc = rng.uniform(0, 100)
        is_score = rng.uniform(0, 1)
        r = EpisodeResult.build("s", "rco", rc, is_score, as_speed=1.0)
        assert abs(r.ds - rc * is_score) <= 1e-9

    masked_lights = DeficitPolicy(frozenset({ObjectClass.TRAFFIC_LIGHT}), (0, 10))
    red = InfractionEvent(1, InfractionKind.RED_LIGHT)
    ped = InfractionEvent(2, InfractionKind.COLLISION_PEDESTRIAN)
    assert infraction_score([red], masked_lights) == 1.0
    assert infraction_score([red]) == pytest.approx(0.70)
    assert infraction_score([red, ped], masked_lights) == pytest.approx(0.50)
    masked_signs = DeficitPolicy(frozenset({ObjectClass.STOP_SIGN}), (0, 10))
    stop = InfractionEvent(3, InfractionKind.STOP_SIGN)
    assert infraction_score([stop], masked_signs) == 1.0
    assert infraction_score([stop], masked_lights) == pytest.approx(0.80)

    # Reference row: full completion at IS 0.713 scores 71.3.
    r = EpisodeResult.build("s", "rco", 100.0, 0.713, as_speed=2.14)
    assert r.ds == pytest.approx(71.3, abs=0.005)
    print("\nACCEPTANCE 5 (metrics identities): PASS")


# ---------------------------------------------------------------------------
# 6. Behavioral scenario suite
# ---------------------------------------------------------------------------

def test_acceptance_6a_masked_pedestrian_three_agents():
    sc = load_scenario("pedestrian_cross")
    backend = ScriptedBackend.bundled()
    start = time.perf_counter()
    baseline = run_episode(sc, Mode.BASELINE, backend).result
    rco = run_episode(sc, Mode.RCO, backend).result
    always_stop = run_episode(sc, Mode.ALWAYS_STOP, backend).result
    elapsed = time.perf_counter() - start

    assert baseline.is_score <= 0.5
    assert any(
        e.kind is InfractionKind.COLLISION_PEDESTRIAN for e in baseline.infractions
    )
    assert rco.rc == pytest.approx(100.0)
    assert not any(e.kind.value.startswith("collision") for e in rco.infractions)
    assert always_stop.rc == pytest.approx(0.0, abs=1.0)
    assert rco.ds > baseline.ds
    assert rco.ds > always_stop.ds
    assert elapsed < 5.0, f"scenario suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 6a (masked pedestrian: rco DS {rco.ds:.1f} > "
        f"baseline {baseline.ds:.1f} > always-stop {always_stop.ds:.1f}, "
        f"{elapsed:.2f}s): PASS"
    )


def test_acceptance_6b_masked_traffic_light_speed():
    sc = load_scenario("traffic_light_hazard")
    backend = ScriptedBackend.bundled()
    start = time.perf_counter()
    rco = run_episode(sc, Mode.RCO, backend).result
    always_stop = run_episode(sc, Mode.ALWAYS_STOP, backend).result
    elapsed = time.perf_counter() - start

    assert rco.rc == pytest.approx(100.0)
    assert rco.as_speed > always_stop.as_speed
    assert elapsed < 5.0, f"scenario suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 6b (masked traffic light: rco AS {rco.as_speed:.2f} > "
        f"always-stop {always_stop.as_speed:.2f}, RC=100, {elapsed:.2f}s): PASS"
    )


# ---------------------------------------------------------------------------
# 7. Step-limit sweep trend
# ---------------------------------------------------------------------------

def test_acceptance_7_step_limit_sweep_degrades():
    sc = load_scenario("stale_plan")
    backend = ScriptedBackend.bundled()
    is_5 = run_episode(sc, Mode.RCO, backend, Overrides(n_max=5)).result.is_score
    is_12 = run_episode(sc, Mode.RCO, backend, Overrides(n_max=12)).result.is_score
    assert is_12 < is_5
    print(f"\nACCEPTANCE 7 (step-limit sweep: IS(12)={is_12:.2f} < IS(5)={is_5:.2f}): PASS")


# ---------------------------------------------------------------------------
# 8. Determinism of the full bundled suite
# ---------------------------------------------------------------------------

def test_acceptance_8_full_suite_determinism(tmp_path):
    start = time.perf_counter()
    args = ["run", "--mode", "rco", "--backend", "scripted"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    elapsed = time.perf_counter() - start
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b
    assert elapsed < 60.0, f"two full-suite runs took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 (byte-identical summary.csv, 2 runs in {elapsed:.1f}s): PASS")
