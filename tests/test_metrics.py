"""Scoring: route completion, infraction score, driving score, average speed."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rco.domain import ObjectClass, RoadGeometry
from rco.metrics import (
    DEFAULT_PENALTIES,
    EpisodeResult,
    Summary,
    average_speed,
    completion_pct,
    driving_score,
    infraction_score,
    route_completion,
)
from rco.simenv import DeficitPolicy, InfractionEvent, InfractionKind, Route


def route(length=1000.0):
    return Route(((0.0, 0.0), (length, 0.0)), (RoadGeometry.STRAIGHT,))


def ev(kind, tick=0, actor=None):
    return InfractionEvent(tick, kind, actor)


class TestRouteCompletion:
    def test_full_traversal(self):
        traj = [(0.0, 0.0), (500.0, 0.0), (1000.0, 0.0)]
        assert route_completion(route(), traj) == 100.0

    def test_stopped_at_start(self):
        assert route_completion(route(), [(0.0, 0.0)]) == 0.0

    def test_halfway(self):
        assert route_completion(route(), [(0.0, 0.0), (500.0, 0.0)]) == 50.0

    def test_best_progress_counted_even_if_later_points_regress(self):
        traj = [(0.0, 0.0), (700.0, 0.0), (650.0, 0.0)]
        assert route_completion(route(), traj) == 70.0

    @pytest.mark.parametrize(
        "progress, pct", [(-1.0, 0.0), (0.0, 0.0), (250.0, 25.0), (1e4, 100.0)]
    )
    def test_completion_pct_clamps_progress(self, progress, pct):
        assert completion_pct(route(), progress) == pct

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            route_completion(route(), [])


class TestInfractionScore:
    def test_default_penalties_are_the_leaderboard_coefficients(self):
        assert DEFAULT_PENALTIES == {
            InfractionKind.COLLISION_PEDESTRIAN: 0.50,
            InfractionKind.COLLISION_VEHICLE: 0.60,
            InfractionKind.COLLISION_STATIC: 0.65,
            InfractionKind.RED_LIGHT: 0.70,
            InfractionKind.STOP_SIGN: 0.80,
        }

    def test_no_events(self):
        assert infraction_score([]) == 1.0

    def test_red_light_excluded_when_lights_masked(self):
        policy = DeficitPolicy(frozenset({ObjectClass.TRAFFIC_LIGHT}), (0, 100))
        assert infraction_score([ev(InfractionKind.RED_LIGHT)], policy) == 1.0

    def test_red_light_counts_when_not_masked(self):
        assert infraction_score([ev(InfractionKind.RED_LIGHT)]) == pytest.approx(0.70)

    def test_stop_sign_excluded_when_signs_masked(self):
        policy = DeficitPolicy(frozenset({ObjectClass.STOP_SIGN}), (0, 100))
        events = [ev(InfractionKind.STOP_SIGN), ev(InfractionKind.STOP_SIGN, tick=5)]
        assert infraction_score(events, policy) == 1.0

    @pytest.mark.parametrize(
        "kind,signal",
        [(InfractionKind.RED_LIGHT, ObjectClass.TRAFFIC_LIGHT),
         (InfractionKind.STOP_SIGN, ObjectClass.STOP_SIGN)],
    )
    def test_violation_outside_the_window_counts(self, kind, signal):
        # The signal is masked on ticks 10 to 19 only; on tick 9 or 20 the
        # agent could see it.
        policy = DeficitPolicy(frozenset({signal}), (10, 20))
        assert infraction_score([ev(kind, tick=10), ev(kind, tick=19)], policy) == 1.0
        assert infraction_score([ev(kind, tick=20)], policy) == DEFAULT_PENALTIES[kind]
        assert infraction_score([ev(kind, tick=9)], policy) == DEFAULT_PENALTIES[kind]

    def test_collision_products(self):
        events = [ev(InfractionKind.COLLISION_PEDESTRIAN), ev(InfractionKind.COLLISION_VEHICLE)]
        assert infraction_score(events) == pytest.approx(0.5 * 0.6)
        assert infraction_score(events) == pytest.approx(0.30)

    def test_collisions_never_excluded(self):
        policy = DeficitPolicy(frozenset({ObjectClass.PEDESTRIAN}), (0, 100))
        assert infraction_score([ev(InfractionKind.COLLISION_PEDESTRIAN)], policy) == 0.5

    def test_custom_penalties(self):
        table = {**DEFAULT_PENALTIES, InfractionKind.RED_LIGHT: 0.9}
        assert infraction_score([ev(InfractionKind.RED_LIGHT)], penalties=table) == 0.9

    @given(st.lists(st.sampled_from(list(InfractionKind)), max_size=8))
    def test_score_in_unit_interval_and_monotone(self, kinds):
        events = [ev(k, tick=i) for i, k in enumerate(kinds)]
        score = 1.0
        for i in range(len(events) + 1):
            nxt = infraction_score(events[:i])
            assert 0.0 < nxt <= 1.0
            assert nxt <= score + 1e-15
            score = nxt

    @given(st.integers(0, 5))
    def test_excluded_event_invariance(self, extra_red_lights):
        policy = DeficitPolicy(frozenset({ObjectClass.TRAFFIC_LIGHT}), (0, 100))
        base = [ev(InfractionKind.COLLISION_VEHICLE)]
        grown = base + [ev(InfractionKind.RED_LIGHT, tick=i) for i in range(extra_red_lights)]
        assert infraction_score(grown, policy) == infraction_score(base, policy)


class TestDrivingScore:
    def test_no_deficit_reference_row(self):
        assert driving_score(100.0, 0.713) == pytest.approx(71.3)

    def test_zero_completion_zeroes_score(self):
        assert driving_score(0.0, 0.99) == 0.0

    def test_partial(self):
        # Per-episode product; aggregation differences across runs are a
        # reporting choice, not part of this identity.
        assert driving_score(94.53, 0.11) == pytest.approx(10.398, abs=1e-3)

    @given(
        rc=st.floats(0, 100, allow_nan=False),
        is1=st.floats(0, 1, allow_nan=False),
        is2=st.floats(0, 1, allow_nan=False),
    )
    def test_monotone_in_both_arguments(self, rc, is1, is2):
        lo, hi = sorted((is1, is2))
        assert driving_score(rc, lo) <= driving_score(rc, hi)
        assert driving_score(min(rc + 1, 100), hi) >= driving_score(rc, hi)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            driving_score(101.0, 0.5)
        with pytest.raises(ValueError):
            driving_score(50.0, 1.5)


class TestAverageSpeed:
    def test_long_route(self):
        assert average_speed(1500.0, 700.0) == pytest.approx(2.142857, abs=1e-6)

    def test_zero_length(self):
        assert average_speed(0.0, 100.0) == 0.0

    def test_simple(self):
        assert average_speed(1000.0, 500.0) == 2.0

    def test_game_time_below_one_second(self):
        assert average_speed(100.0, 0.5) == 200.0

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError, match="game time must be positive"):
            average_speed(1000.0, 0.0)


class TestEpisodeResult:
    def test_build_enforces_product(self):
        r = EpisodeResult.build("s", "rco", 80.0, 0.5, as_speed=2.0)
        assert r.ds == pytest.approx(40.0)

    def test_ds_cannot_be_passed(self):
        with pytest.raises(TypeError):
            EpisodeResult("s", "rco", 80.0, 0.5, ds=40.0, as_speed=2.0)

    @given(rc=st.floats(0, 100, allow_nan=False), is_score=st.floats(0, 1, allow_nan=False))
    def test_ds_is_exactly_the_product(self, rc, is_score):
        built = EpisodeResult.build("s", "rco", rc, is_score, as_speed=1.0)
        constructed = EpisodeResult("s", "rco", rc, is_score, as_speed=1.0)
        assert built.ds == constructed.ds == rc * is_score

    @given(rc=st.floats(0, 100, allow_nan=False), is_score=st.floats(0, 1, allow_nan=False))
    def test_identity_to_1e9(self, rc, is_score):
        r = EpisodeResult.build("s", "rco", rc, is_score, as_speed=1.0)
        assert abs(r.ds - rc * is_score) <= 1e-9


class TestSummary:
    def rows(self):
        return (
            EpisodeResult.build("a", "rco", 100.0, 1.0, as_speed=4.0),
            EpisodeResult.build("b", "rco", 50.0, 0.5, as_speed=2.0),
        )

    def test_aggregate_means(self):
        agg = Summary(self.rows()).aggregate()
        assert agg["rc"] == pytest.approx(75.0)
        assert agg["is_score"] == pytest.approx(0.75)
        assert agg["ds"] == pytest.approx(62.5)
        assert agg["as_speed"] == pytest.approx(3.0)

    def test_csv_shape(self):
        text = Summary(self.rows()).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "scenario,mode,rc,is,ds,as"
        assert len(lines) == 4  # header + 2 rows + mean
        assert lines[-1].startswith("mean,")

    def test_empty_summary(self):
        agg = Summary(()).aggregate()
        assert agg == {"rc": 0.0, "is_score": 0.0, "ds": 0.0, "as_speed": 0.0}
