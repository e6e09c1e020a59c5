"""Constraint generation and the trigger/transformation algebra."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from rco.backend import HazardAndPlan, SchemaViolation, ScriptedBackend
from rco.controlmap import clamp
from rco.domain import (
    Action,
    Daylight,
    Navigation,
    RoadGeometry,
    SafetyConstraints,
    Strategy,
    Surrounding,
    TrafficDensity,
    VehicleMeasurements,
    Weather,
)
from rco.safety import (
    _TRIGGER_NAMES,
    BASE_CONSTRAINTS,
    SafetyGains,
    _fired,
    apply_constraints,
    constrain,
    default_constraints,
    generate_constraints,
)
from conftest import FAILURE_KINDS, StubBackend, TimeoutBackend, failing_backend

G = SafetyGains(0.1, 0.1)


def sc(v_max=10.0, d_min=6.0, ac_max=2.5, de_max=6.0, psi_max=0.5, d_brake=8.0):
    return SafetyConstraints(v_max, d_min, ac_max, de_max, psi_max, d_brake)


def m(v=0.0, a_x=0.0, omega_z=0.0, d_follow=math.inf):
    return VehicleMeasurements(v, a_x, omega_z, d_follow)


class TestApplyConstraints:
    def test_speed_limit_trims_throttle(self):
        out = apply_constraints(Action(0.7, 0.0, 0.0), m(v=12.0), sc(v_max=10.0, d_brake=20.0), G)
        assert out == Action(0.7 - 0.1, 0.0, 0.0)

    def test_acceleration_limit_proportional(self):
        out = apply_constraints(Action(0.5, 0.0, 0.0), m(a_x=3.0), sc(v_max=99, ac_max=2.0), G)
        assert out.throttle == pytest.approx(0.5 - 0.1 * (3.0 - 2.0))

    def test_yaw_rate_scales_steer(self):
        out = apply_constraints(Action(0.0, 0.0, 0.6), m(omega_z=0.4), sc(psi_max=0.2), G)
        assert out.steer == pytest.approx(0.6 * (0.2 / 0.4))
        assert out.steer == pytest.approx(0.3)

    def test_braking_distance_adds_brake(self):
        out = apply_constraints(
            Action(0.0, 0.3, 0.0), m(v=10.0), sc(v_max=99, de_max=5.0, d_brake=8.0), SafetyGains(0.1, 0.2)
        )
        # v^2 / (2 * de_max) = 100/10 = 10 > 8
        assert out.brake == pytest.approx(0.5)

    def test_deceleration_limit_reduces_brake(self):
        out = apply_constraints(
            Action(0.0, 0.5, 0.0), m(a_x=-6.0), sc(v_max=99, de_max=4.0), SafetyGains(0.1, 0.1)
        )
        # excess deceleration: -de_max - a_x = -4 - (-6) = 2
        assert out.brake == pytest.approx(0.5 - 0.1 * 2.0)
        assert out.brake == pytest.approx(0.3)

    def test_following_distance_trims_throttle(self):
        out = apply_constraints(Action(0.7, 0.0, 0.0), m(v=1.0, d_follow=3.0), sc(d_min=6.0), G)
        assert out.throttle == pytest.approx(0.6)

    def test_no_triggers_is_identity(self):
        a = Action(0.4, 0.1, -0.3)
        assert apply_constraints(a, m(v=1.0, a_x=0.5, omega_z=0.1), sc(), G) == a
        action, names = constrain(a, m(v=1.0, a_x=0.5, omega_z=0.1), sc(), G)
        assert action is a  # returned as is, not rebuilt
        assert names == ()

    def test_speed_trigger_boundary_is_inclusive(self):
        out = apply_constraints(Action(0.7, 0.0, 0.0), m(v=10.0), sc(v_max=10.0), G)
        assert out.throttle == pytest.approx(0.6)

    def test_output_clamped_to_valid_action(self):
        out = apply_constraints(
            Action(0.05, 0.9, 0.0), m(v=50.0, a_x=20.0, d_follow=0.5), sc(v_max=5, ac_max=1, de_max=1, d_brake=1), G
        )
        assert out.throttle == 0.0
        assert out.brake == 1.0

    @given(
        throttle=st.floats(0, 1, allow_nan=False),
        brake=st.floats(0, 1, allow_nan=False),
        steer=st.floats(-1, 1, allow_nan=False),
        v=st.floats(0, 50, allow_nan=False),
        a_x=st.floats(-20, 20, allow_nan=False),
        omega_z=st.floats(-3, 3, allow_nan=False),
        d_follow=st.one_of(st.just(math.inf), st.floats(0, 100, allow_nan=False)),
    )
    def test_result_always_valid(self, throttle, brake, steer, v, a_x, omega_z, d_follow):
        out = apply_constraints(
            Action(throttle, brake, steer), m(v, a_x, omega_z, d_follow), sc(), G
        )
        assert 0.0 <= out.throttle <= 1.0
        assert 0.0 <= out.brake <= 1.0
        assert -1.0 <= out.steer <= 1.0

    @given(
        steer=st.floats(-1, 1, allow_nan=False),
        omega_z=st.floats(-3, 3, allow_nan=False),
    )
    def test_steer_sign_preserved_magnitude_never_grows(self, steer, omega_z):
        out = apply_constraints(Action(0.0, 0.0, steer), m(omega_z=omega_z), sc(), G)
        assert abs(out.steer) <= abs(steer) + 1e-15
        if steer != 0.0 and out.steer != 0.0:
            assert math.copysign(1, out.steer) == math.copysign(1, steer)

    @given(
        throttle=st.floats(0, 1, allow_nan=False),
        v=st.floats(0, 50, allow_nan=False),
        d_follow=st.one_of(st.just(math.inf), st.floats(0, 100, allow_nan=False)),
        a_x=st.floats(-20, 20, allow_nan=False),
    )
    def test_triggered_throttle_terms_never_increase_throttle(self, throttle, v, d_follow, a_x):
        a = Action(throttle, 0.0, 0.0)
        out = apply_constraints(a, m(v=v, a_x=max(a_x, 0.0), d_follow=d_follow), sc(), G)
        assert out.throttle <= a.throttle + 1e-15

    @given(brake=st.floats(0, 1, allow_nan=False), v=st.floats(0, 50, allow_nan=False))
    def test_braking_distance_never_decreases_brake(self, brake, v):
        a = Action(0.0, brake, 0.0)
        out = apply_constraints(a, m(v=v, a_x=0.0), sc(), G)
        assert out.brake >= a.brake - 1e-15


def oracle_apply(a: Action, meas: VehicleMeasurements, c: SafetyConstraints, g: SafetyGains) -> Action:
    """Straight-line restatement of the trigger table, kept independent of
    the implementation under test."""
    throttle = (
        a.throttle
        - (g.delta_throttle if meas.v >= c.v_max else 0.0)
        - (g.delta_throttle if meas.d_follow < c.d_min else 0.0)
        - (g.delta_throttle * (meas.a_x - c.ac_max) if meas.a_x > c.ac_max else 0.0)
    )
    brake = (
        a.brake
        + (g.delta_brake if meas.v * meas.v / (2.0 * c.de_max) > c.d_brake else 0.0)
        - (g.delta_brake * (-c.de_max - meas.a_x) if meas.a_x < -c.de_max else 0.0)
    )
    steer = a.steer * (c.psi_max / abs(meas.omega_z)) if abs(meas.omega_z) > c.psi_max else a.steer

    def clip(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    return Action(clip(throttle, 0.0, 1.0), clip(brake, 0.0, 1.0), clip(steer, -1.0, 1.0))


def random_case(rng: random.Random):
    a = Action(rng.random(), rng.random(), rng.uniform(-1, 1))
    meas = VehicleMeasurements(
        v=rng.uniform(0, 30),
        a_x=rng.uniform(-15, 15),
        omega_z=rng.uniform(-2, 2),
        d_follow=math.inf if rng.random() < 0.3 else rng.uniform(0, 40),
    )
    c = SafetyConstraints(
        v_max=rng.uniform(1, 20),
        d_min=rng.uniform(1, 15),
        ac_max=rng.uniform(0.5, 5),
        de_max=rng.uniform(0.5, 8),
        psi_max=rng.uniform(0.05, 1.5),
        d_brake=rng.uniform(1, 20),
    )
    g = SafetyGains(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
    return a, meas, c, g


def test_brute_force_oracle_equivalence_10k():
    rng = random.Random(20240817)
    for _ in range(10_000):
        a, meas, c, g = random_case(rng)
        got = apply_constraints(a, meas, c, g)
        want = oracle_apply(a, meas, c, g)
        assert got == want  # bit-for-bit after clamping


class TestGenerateConstraints:
    NAVI_CLEAR = Navigation((10.0, 0.0), RoadGeometry.STRAIGHT)
    CLEAR = Surrounding(Weather.CLEAR, Daylight.DAY, TrafficDensity.LOW)

    def test_default_table_clear_day(self):
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, StubBackend(parsed=None))
        assert out == SafetyConstraints(8.0, 6.0, 2.5, 6.0, 0.5, 8.0)

    def test_default_table_worst_context_scales(self):
        navi = Navigation((10.0, 0.0), RoadGeometry.INTERSECTION)
        ctx = Surrounding(Weather.RAIN, Daylight.NIGHT, TrafficDensity.HIGH)
        out = generate_constraints(navi, ctx, None, StubBackend(parsed=None))
        assert out.v_max == pytest.approx(8.0 * 0.6)
        assert out.d_min == pytest.approx(6.0 * 1.5)
        assert out.v_max == pytest.approx(4.8)
        assert out.d_min == pytest.approx(9.0)

    def test_default_table_matches_brute_force_recomputation(self):
        # Recompute the min/max factor combination directly for every context.
        from rco.safety import _DAYLIGHT_MULT, _GEOMETRY_MULT, _TRAFFIC_MULT, _WEATHER_MULT

        for weather in Weather:
            for daylight in Daylight:
                for density in TrafficDensity:
                    for geometry in RoadGeometry:
                        navi = Navigation((10.0, 0.0), geometry)
                        ctx = Surrounding(weather, daylight, density)
                        out = default_constraints(navi, ctx)
                        factors = [
                            _WEATHER_MULT[weather],
                            _DAYLIGHT_MULT[daylight],
                            _TRAFFIC_MULT[density],
                            _GEOMETRY_MULT[geometry],
                        ]
                        v_mult = min(f[0] for f in factors)
                        d_mult = max(f[1] for f in factors)
                        assert out.v_max == pytest.approx(BASE_CONSTRAINTS.v_max * v_mult)
                        assert out.d_min == pytest.approx(BASE_CONSTRAINTS.d_min * d_mult)
                        assert out.ac_max == BASE_CONSTRAINTS.ac_max

    def test_backend_record_adopted_verbatim(self):
        record = SafetyConstraints(10.0, 5.0, 3.0, 5.0, 0.6, 10.0)
        out = generate_constraints(
            self.NAVI_CLEAR, self.CLEAR, 12.0, StubBackend(parsed=record)
        )
        assert out == record

    def test_backend_timeout_falls_back(self):
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, TimeoutBackend())
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)

    def test_backend_schema_violation_falls_back(self):
        backend = StubBackend(error=SchemaViolation("bad"))
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, backend)
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_failure_falls_back_after_one_call(self, kind):
        backend = failing_backend(kind, wrong_answer=HazardAndPlan((), Strategy.MOVE))
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, backend)
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)
        assert len(backend.requests) == 1

    def test_infinite_backend_envelope_falls_back(self):
        # A scripted table entry of infinities would leave only the following
        # distance able to fire; the default table fires five limits here.
        limits = ("v_max", "d_min", "ac_max", "de_max", "psi_max", "d_brake")
        entry = dict.fromkeys(limits, math.inf)
        backend = ScriptedBackend({"safety_constraints": {"k": entry}})
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, backend, "k")
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)
        meas = m(v=30.0, a_x=9.0, omega_z=3.0, d_follow=3.0)
        _action, names = constrain(Action(0.5, 0.0, 0.5), meas, out, G)
        assert names == (
            "max_speed",
            "min_following_distance",
            "max_acceleration",
            "max_yaw_rate",
            "min_braking_distance",
        )

    @pytest.mark.parametrize(
        "field, loose",
        [("v_max", 32.5), ("d_min", 1.4), ("ac_max", 10.5), ("de_max", 24.5), ("psi_max", 2.1),
         ("d_brake", 32.5)],
    )
    def test_loosened_backend_envelope_falls_back(self, field, loose):
        # Past four times a base limit, in the direction that loosens it.
        entry = {"v_max": 10, "d_min": 5, "ac_max": 3, "de_max": 5, "psi_max": 0.6, "d_brake": 10}
        backend = ScriptedBackend({"safety_constraints": {"k": {**entry, field: loose}}})
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, backend, "k")
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)

    def test_never_raises(self):
        backend = StubBackend(parsed="not-a-constraints-record")
        out = generate_constraints(self.NAVI_CLEAR, self.CLEAR, None, backend)
        assert out == default_constraints(self.NAVI_CLEAR, self.CLEAR)


class TestTriggeredNames:
    def test_names_reported_for_logging(self):
        _action, names = constrain(
            Action(0.5, 0.0, 0.0), m(v=12.0, a_x=3.0), sc(v_max=10.0, ac_max=2.0), G
        )
        assert "max_speed" in names
        assert "max_acceleration" in names
        assert "max_yaw_rate" not in names

    @given(
        throttle=st.floats(0, 1, allow_nan=False),
        brake=st.floats(0, 1, allow_nan=False),
        steer=st.floats(-1, 1, allow_nan=False),
        v=st.floats(0, 30, allow_nan=False),
        a_x=st.floats(-15, 15, allow_nan=False),
        omega_z=st.floats(-2, 2, allow_nan=False),
        d_follow=st.one_of(st.just(math.inf), st.floats(0, 40, allow_nan=False)),
        limits=st.tuples(*[st.floats(0.05, 20, allow_nan=False)] * 6),
    )
    def test_constrain_equals_apply_and_reference_names(
        self, throttle, brake, steer, v, a_x, omega_z, d_follow, limits
    ):
        a, meas, c = Action(throttle, brake, steer), m(v, a_x, omega_z, d_follow), sc(*limits)
        action, names = constrain(a, meas, c, G)
        assert action == apply_constraints(a, meas, c, G)
        assert names == reference_triggered(meas, c)


class TestConstrainReference:
    @given(
        throttle=st.one_of(st.just(-0.0), st.floats(0, 1)),
        brake=st.one_of(st.just(-0.0), st.floats(0, 1)),
        steer=st.one_of(st.just(-0.0), st.floats(-1, 1)),
        v=st.one_of(st.just(0.0), st.floats(0, 30)),
        a_x=st.one_of(st.just(0.0), st.floats(-15, 15)),
        omega_z=st.one_of(st.just(0.0), st.floats(-2, 2)),
        d_follow=st.one_of(st.just(math.inf), st.floats(0, 40)),
        limits=st.tuples(*[st.floats(0.05, 20)] * 6),
        gains=st.tuples(*[st.floats(0.01, 1.0)] * 2),
    )
    def test_equals_reference(
        self, throttle, brake, steer, v, a_x, omega_z, d_follow, limits, gains
    ):
        a, meas, c = Action(throttle, brake, steer), m(v, a_x, omega_z, d_follow), sc(*limits)
        g = SafetyGains(*gains)
        action, names = constrain(a, meas, c, g)
        expected, expected_names = reference_constrain(a, meas, c, g)
        # repr tells the signed zeros apart, which == does not.
        assert repr(action) == repr(expected)
        assert names == expected_names
        if not names:
            assert action is a


def reference_constrain(
    a: Action, m: VehicleMeasurements, sc: SafetyConstraints, g: SafetyGains
) -> tuple[Action, tuple[str, ...]]:
    """``constrain`` as it was before it returned an untouched action as is:
    every call rebuilds the action through the clamps."""
    fired = _fired(m, sc)
    speed, follow, accel, decel, yaw, braking = fired
    throttle = a.throttle
    if speed:
        throttle -= g.delta_throttle
    if follow:
        throttle -= g.delta_throttle
    if accel:
        throttle -= g.delta_throttle * (m.a_x - sc.ac_max)

    brake = a.brake
    if braking:
        brake += g.delta_brake
    if decel:
        brake -= g.delta_brake * (-sc.de_max - m.a_x)

    steer = a.steer
    if yaw:
        steer = steer * (sc.psi_max / abs(m.omega_z))

    action = Action(clamp(throttle, 0.0, 1.0), clamp(brake, 0.0, 1.0), clamp(steer, -1.0, 1.0))
    return action, tuple(name for name, hit in zip(_TRIGGER_NAMES, fired) if hit)


def reference_triggered(meas: VehicleMeasurements, c: SafetyConstraints) -> tuple[str, ...]:
    """The names the control loop logged before ``constrain``, restated
    trigger by trigger."""
    fired = (
        ("max_speed", meas.v >= c.v_max),
        ("min_following_distance", meas.d_follow < c.d_min),
        ("max_acceleration", meas.a_x > c.ac_max),
        ("max_deceleration", meas.a_x < -c.de_max),
        ("max_yaw_rate", abs(meas.omega_z) > c.psi_max),
        ("min_braking_distance", meas.v * meas.v / (2.0 * c.de_max) > c.d_brake),
    )
    return tuple(name for name, hit in fired if hit)


class TestSafetyGains:
    def test_gains_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            SafetyGains(0.0, 0.1)
        with pytest.raises(ValueError):
            SafetyGains(0.1, 1.5)

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_gains_must_be_numbers(self, bad):
        with pytest.raises(TypeError):
            SafetyGains(delta_throttle=bad)
        with pytest.raises(TypeError):
            SafetyGains(delta_brake=bad)
