"""Domain type validation and normalization."""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import math
import pickle

import pytest

from rco import backend, metrics, orchestrator, planner, runner, safety, simenv, verifier
from rco.domain import (
    BASE_CONSTRAINTS,
    FAIL_SAFE_STOP,
    STOP_ACTION,
    STOP_PAIR,
    Action,
    ActionSequence,
    Behavior,
    Box,
    ConditionActionPair,
    Daylight,
    ExecutionCondition,
    Hazard,
    HighLevelAction,
    MotionKind,
    MotionPlan,
    ObjectClass,
    OutOfRangeError,
    RoadGeometry,
    SafetyConstraints,
    SpeedControl,
    Strategy,
    TrafficDensity,
    VehicleMeasurements,
    ViewName,
    VisibleObject,
    Weather,
    value_type,
)
from conftest import DEFAULT_NAVI, DEFAULT_SURROUNDING, SRC, snapshot, value_types


class TestAction:
    def test_throttle_above_one_rejected(self):
        with pytest.raises(OutOfRangeError) as exc:
            Action(1.2, 0.0, 0.0)
        assert exc.value.field_name == "throttle"
        assert exc.value.value == 1.2

    @pytest.mark.parametrize(
        "throttle,brake,steer,field",
        [
            (-0.1, 0.0, 0.0, "throttle"),
            (0.0, 1.5, 0.0, "brake"),
            (0.0, 0.0, -1.01, "steer"),
            (0.0, 0.0, 1.01, "steer"),
            (math.nan, 0.0, 0.0, "throttle"),
        ],
    )
    def test_out_of_range_fields(self, throttle, brake, steer, field):
        with pytest.raises(OutOfRangeError) as exc:
            Action(throttle, brake, steer)
        assert exc.value.field_name == field

    def test_steer_extremes_allowed(self):
        Action(1.0, 1.0, -1.0)
        Action(0.0, 0.0, 1.0)


class TestHighLevelAction:
    def test_stop_forces_deceleration_to_zero(self):
        hla = HighLevelAction(Behavior.STOP, SpeedControl.ACCELERATION)
        assert hla.speed is SpeedControl.DECELERATION_TO_ZERO

    def test_non_stop_keeps_speed(self):
        hla = HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.ACCELERATION)
        assert hla.speed is SpeedControl.ACCELERATION


class TestExecutionCondition:
    def test_enumeration_is_closed(self):
        assert {c.value for c in ExecutionCondition} == {
            "consistent_no_immediate_hazard",
            "consistent_immediate_hazard",
        }

    def test_inconsistent_is_not_a_condition(self):
        with pytest.raises(ValueError):
            ExecutionCondition("inconsistent_deficit")


class TestActionSequence:
    def test_pop_front_is_fifo(self):
        a = ConditionActionPair(
            ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
            HighLevelAction(Behavior.MOVE_FORWARD, SpeedControl.CONSTANT_SPEED),
        )
        b = ConditionActionPair(
            ExecutionCondition.CONSISTENT_IMMEDIATE_HAZARD,
            HighLevelAction(Behavior.STOP, SpeedControl.DECELERATION_TO_ZERO),
        )
        seq = ActionSequence((a, b), 0)
        head, rest = seq.pop_front()
        assert head == a
        assert rest.pairs == (b,)


class TestBoxAndViews:
    def test_box_area(self):
        assert Box(0.2, 0.2, 0.5, 0.4).area == pytest.approx(0.06)

    def test_view_reads_the_named_view(self):
        frame = snapshot(tick=0)
        for name in ViewName:
            assert frame.view(name).view is name


class TestSafetyTypes:
    def test_constraints_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            SafetyConstraints(0.0, 6.0, 2.5, 6.0, 0.5, 8.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_constraints_must_be_finite(self, bad):
        with pytest.raises(OutOfRangeError):
            SafetyConstraints(8.0, 6.0, 2.5, bad, 0.5, 8.0)

    def test_no_lead_vehicle_is_infinite_follow(self):
        m = VehicleMeasurements(5.0, 0.0, 0.0)
        assert math.isinf(m.d_follow)
        assert not (m.d_follow < 6.0)  # the following trigger stays false


@functools.cache
def samples() -> dict[type, object]:
    """One valid instance of every value type."""
    scenarios = SRC / "scenarios"
    lit = simenv.Scenario.load(str(scenarios / "traffic_light_hazard.json"))
    signed = simenv.Scenario.load(str(scenarios / "stop_sign_hazard.json"))
    world = simenv.world_from_scenario(signed)
    frame = snapshot(front_deficits=[Box(0.4, 0.4, 0.6, 0.6)])
    hazard = Hazard(ObjectClass.PEDESTRIAN, MotionKind.CROSSING)
    result = metrics.EpisodeResult.build("s", "rco", 1.0, 0.5, 2.0)
    plan = MotionPlan(Strategy.MOVE, ActionSequence((STOP_PAIR,), 3))
    instances = [
        FAIL_SAFE_STOP, STOP_ACTION, STOP_PAIR, ActionSequence((STOP_PAIR,), 3),
        Box(0.1, 0.2, 0.3, 0.4), frame.perception[1],
        VisibleObject(ObjectClass.CAR, Box(0.1, 0.2, 0.3, 0.4), 12.0), frame, DEFAULT_NAVI,
        DEFAULT_SURROUNDING, hazard, plan, BASE_CONSTRAINTS, VehicleMeasurements(3.0, 0.1, 0.0),
        backend.BackendRequest(backend.Purpose.HAZARD_AND_PLAN, backend.HazardInputs((frame,)),
                               '{"scenario_key": "s"}'),
        backend.BackendResponse("{}", plan, 1.5), backend.HazardAndPlan((hazard,), Strategy.MOVE),
        backend.HazardInputs((frame,)),
        backend.MotionInputs((hazard,), Strategy.MOVE, RoadGeometry.STRAIGHT),
        backend.ConstraintsInputs(Weather.RAIN, Daylight.NIGHT, TrafficDensity.HIGH,
                                  RoadGeometry.LEFT_CURVE, 7.5),
        result, metrics.Summary((result,)), orchestrator.OrchestratorConfig(),
        orchestrator.OverrideState(wait_elapsed=2),
        orchestrator.StepResult(FAIL_SAFE_STOP, orchestrator.OverrideState(), {"tick": 0}),
        planner.PlannerConfig(), runner.EpisodeOutcome(result, ({"tick": 0},)),
        runner.Overrides(n_max=3, penalties={"collision_pedestrian": 0.5}),
        safety.SafetyGains(), signed.actors[0], signed.deficit_policy, world.ego,
        simenv.InfractionEvent(4, simenv.InfractionKind.COLLISION_STATIC, 7), signed.route,
        signed, signed.signs[0], lit.lights[0], world.params, world,
        verifier.ConsistencyRun(0.1, (frame,), None), verifier.VerifierConfig(),
    ]
    return {type(x): x for x in instances}


_WAIT_PLAN = MotionPlan(
    Strategy.STOP_OBSERVE_MOVE,
    wait_ticks=3,
    move_trigger=ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD,
)


def _values(obj: object) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _init_parameters(cls: type) -> list[tuple]:
    """``cls.__init__``'s parameters after ``self``: name, kind and default."""
    parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [(p.name, p.kind, p.default) for p in parameters]


_CHANGED = object()  # equal to nothing but itself


def _twin(obj: object) -> object:
    """A stdlib ``dataclass(frozen=True)`` with ``obj``'s class name, fields and
    field flags, holding ``obj``'s values."""
    flags = [
        (f.name, f.type, dataclasses.field(init=False, repr=f.repr, hash=f.hash, compare=f.compare))
        for f in dataclasses.fields(obj)
    ]
    twin = dataclasses.make_dataclass(type(obj).__qualname__, flags, frozen=True)()
    for f in dataclasses.fields(obj):
        object.__setattr__(twin, f.name, getattr(obj, f.name))
    return twin


def _outcome(call, *args) -> tuple:
    """``call(*args)``'s value, or the type of what it raised."""
    try:
        return ("value", call(*args))
    except Exception as exc:  # a record holding a dict is unhashable
        return ("raised", type(exc))


class TestValueTypes:
    """Every value type is frozen and slotted, and its generated ``__init__``
    takes what a stdlib frozen dataclass's would, runs ``__post_init__``, and
    survives ``dataclasses.replace``. Its shared ``__eq__``, ``__hash__`` and
    ``__repr__`` match those of a stdlib ``dataclass(frozen=True)`` twin with the
    same fields and values."""

    def test_every_value_type_has_a_sample(self):
        assert set(samples()) == set(value_types())

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_fields_cannot_be_set_or_deleted(self, cls):
        obj = samples()[cls]
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_instances_have_slots_and_no_dict(self, cls):
        assert not hasattr(samples()[cls], "__dict__")
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_init_takes_what_a_stdlib_frozen_dataclass_takes(self, cls):
        copies = [
            (f.name, f.type, dataclasses.field(
                default=f.default, default_factory=f.default_factory, init=f.init,
                repr=f.repr, compare=f.compare, kw_only=f.kw_only,
            ))
            for f in dataclasses.fields(cls)
        ]
        reference = dataclasses.make_dataclass(cls.__name__, copies, frozen=True)
        assert _init_parameters(cls) == _init_parameters(reference)

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_each_default_is_one_shared_hashable_value(self, cls):
        # Each defaulted field is left out of a sample, one that holds the
        # default where there is one: a move plan has no wait, a wait plan no sequence.
        bases = [b for b in (samples()[cls], _WAIT_PLAN) if type(b) is cls]
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:
                continue
            hash(f.default)
            base = next((b for b in bases if getattr(b, f.name) == f.default), bases[0])
            given = {
                g.name: getattr(base, g.name)
                for g in dataclasses.fields(cls)
                if g.init and g is not f
            }
            first, second = cls(**given), cls(**given)
            assert getattr(first, f.name) is getattr(second, f.name) is f.default

    def test_default_factory_is_refused(self):
        with pytest.raises(TypeError, match="Holder.items: a value type takes no default_factory"):
            @value_type
            class Holder:
                items: tuple[int, ...] = dataclasses.field(default_factory=tuple)

    @pytest.mark.parametrize("init", [True, False])
    @pytest.mark.parametrize("rule", [True, False])
    def test_hash_rule_is_refused(self, init, rule):
        # The hash reads the compared fields; no field may set its own rule.
        with pytest.raises(TypeError, match="Holder.size: a value type hashes its compared fields"):
            @value_type
            class Holder:
                size: int = dataclasses.field(default=0, init=init, hash=rule)

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_replace_gives_equal_objects(self, cls):
        obj = samples()[cls]
        other = dataclasses.replace(obj)
        assert type(other) is cls
        assert other == obj
        assert _values(other) == _values(obj)  # compare=False fields too

    @pytest.mark.parametrize("clone", ["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_are_refused(self, clone):
        # A value type has no pickle state: a clone would set its frozen slots
        # one by one, so it fails at the first rather than build half an object.
        make = {
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
            "pickle": lambda obj: pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)),
        }[clone]
        for cls, obj in samples().items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                make(obj)

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_hash_and_repr_equal_a_stdlib_twins(self, cls):
        obj = samples()[cls]
        twin = _twin(obj)
        assert _outcome(hash, obj) == _outcome(hash, twin)
        assert repr(obj) == repr(twin)

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_equality_reads_exactly_the_compare_fields(self, cls):
        obj = samples()[cls]
        assert obj == dataclasses.replace(obj)
        assert not obj != dataclasses.replace(obj)
        for f in dataclasses.fields(cls):
            changed = dataclasses.replace(obj)
            object.__setattr__(changed, f.name, _CHANGED)
            assert (changed == obj) is (obj == changed) is (not f.compare), f.name
            assert (changed != obj) is f.compare, f.name

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_comparing_with_another_type_gives_not_implemented(self, cls):
        obj = samples()[cls]
        for other in (_twin(obj), object(), None):
            assert obj.__eq__(other) is NotImplemented
            assert obj != other

    @pytest.mark.parametrize("cls", value_types(), ids=lambda c: c.__name__)
    def test_other_names_cannot_be_set_or_deleted(self, cls):
        obj = samples()[cls]
        for name in ("not_a_field", "__class__", "__doc__"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    def test_no_doc_is_a_generated_signature(self):
        # dataclass writes "Name()" into a missing __doc__ before value_type
        # installs __init__, so it would name no parameter.
        generated = [c.__name__ for c in value_types() if c.__doc__.startswith(f"{c.__name__}(")]
        assert generated == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Action(2.0, 0.0, 0.0),
            lambda: SafetyConstraints(8.0, 6.0, 2.5, 6.0, 0.5, -1.0),
            lambda: planner.PlannerConfig(wait_cap=0),
            lambda: simenv.DeficitPolicy(window=(5, 2)),
            lambda: verifier.VerifierConfig(history_len=1),
            lambda: safety.SafetyGains(delta_brake=0.0),
            lambda: simenv.VehicleParams(dt=0.0),
        ],
        ids=[
            "action", "safety_constraints", "planner_config", "deficit_policy",
            "verifier_config", "safety_gains", "vehicle_params",
        ],
    )
    def test_post_init_still_rejects_bad_values(self, build):
        # Types that outside input builds (a log line, a model answer, a flag,
        # a scenario file) keep their checks under the generated __init__, and
        # so does VehicleParams, whose dt check underwrites the standing ego.
        with pytest.raises(ValueError):
            build()
