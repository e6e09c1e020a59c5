"""Episode driver for the benchmark: the closed loop of ``rco.runner.run_episode``,
timed per tick and, in a traced pass, per layer call.

The loop is written once. An untraced pass calls the layer functions directly;
a traced pass calls the same loop with each layer wrapped in a span and the
backend wrapped in ``TracingBackend``. Every span is kept in memory (name,
start, end, parent) and aggregated after the pass.

Layers that ``orchestrator.step`` calls internally cannot be seen from the
loop. ``replay`` times them by calling their public functions again on the
inputs the traced pass captured around each step, with the unwrapped backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional

from rco import backend as backend_mod
from rco import controlmap, metrics, orchestrator, planner, safety, simenv, verifier
from rco.backend import Backend, BackendError, BackendRequest, BackendResponse, Purpose
from rco.domain import (
    STOP_ACTION,
    ConditionActionPair,
    ExecutionCondition,
    Strategy,
    ViewName,
)
from rco.runner import STOP, Mode, Overrides
from rco.simenv import Scenario, VehicleParams

_STOP_PAIR = ConditionActionPair(ExecutionCondition.CONSISTENT_NO_IMMEDIATE_HAZARD, STOP_ACTION)

SIM_LAYERS = ("perceive", "masked_ids", "measurements", "base_agent", "tick", "detect_infractions")


@dataclass(frozen=True)
class Layers:
    """The layer functions the loop calls; traced passes substitute wrappers."""

    perceive: Callable
    masked_ids: Callable
    measurements: Callable
    base_agent: Callable
    tick: Callable
    detect_infractions: Callable
    step: Callable


UNTRACED = Layers(
    simenv.perceive,
    simenv.masked_ids,
    simenv.measurements,
    simenv.base_agent,
    simenv.tick,
    simenv.detect_infractions,
    orchestrator.step,
)


@dataclass
class Episode:
    """One driven episode: its summary row, decision records and tick times."""

    row: str
    records: list[dict[str, Any]]
    tick_ns: list[int]
    mode: str


def drive_episode(
    scenario: Scenario,
    mode: Mode,
    backend: Backend,
    overrides: Overrides,
    layers: Layers = UNTRACED,
    tracer: Optional["Tracer"] = None,
) -> Episode:
    """Run one episode exactly as ``run_episode`` does, timing each tick."""
    params = VehicleParams()
    cfg = overrides.orchestrator_config(scenario.name, params.dt)
    w = simenv.world_from_scenario(scenario, params)
    policy = scenario.deficit_policy
    state = orchestrator.initial_state()
    history: list = []
    history_cap = max(cfg.planner.history_len, cfg.verifier.history_len)
    trajectory = [(w.ego.x, w.ego.y)]
    events: list = []
    records: list[dict[str, Any]] = []
    tick_ns: list[int] = []
    halted_forever = False

    while w.tick < scenario.time_limit_ticks and w.ego_progress < scenario.route.length:
        t0 = perf_counter_ns()
        root = tracer.open("runner.tick") if tracer is not None else None
        snap = layers.perceive(w, policy)
        history.append(snap)
        if len(history) > history_cap:
            history.pop(0)
        hidden = layers.masked_ids(w, policy)

        if mode is Mode.BASELINE:
            action = layers.base_agent(w, hidden)
            records.append(orchestrator.base_record(w.tick, action))
        elif mode is Mode.ALWAYS_STOP:
            halted_forever = halted_forever or snap.has_deficit
            action = STOP if halted_forever else layers.base_agent(w, hidden)
            records.append(orchestrator.base_record(w.tick, action))
        else:
            state = orchestrator.engage(snap.has_deficit, state)
            if state.active:
                result = layers.step(
                    state, snap, history, layers.measurements(w), w.ego.pose, backend, cfg
                )
                action, state = result.action, result.state
                records.append(result.record)
            else:
                action = layers.base_agent(w, hidden)
                state = orchestrator.note_external_action(state, action)
                records.append(orchestrator.base_record(w.tick, action))

        w_next = layers.tick(w, action)
        events.extend(layers.detect_infractions(w, w_next))
        trajectory.append((w_next.ego.x, w_next.ego.y))
        w = w_next
        if root is not None:
            tracer.close(root)
        tick_ns.append(perf_counter_ns() - t0)

    game_time_s = w.tick * params.dt
    result_row = metrics.EpisodeResult.build(
        scenario=scenario.name,
        mode=mode.value,
        rc=metrics.route_completion(scenario.route, trajectory),
        is_score=metrics.infraction_score(events, policy, overrides.penalty_table()),
        as_speed=metrics.average_speed(scenario.route.length, game_time_s),
        infractions=tuple(events),
        game_time_s=game_time_s,
    )
    return Episode(summary_row(result_row), records, tick_ns, mode.value)


def summary_row(result: metrics.EpisodeResult) -> str:
    """The episode's line of ``summary.csv``, formatted by the program itself."""
    return metrics.Summary((result,)).to_csv().splitlines()[1]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent_index, failed]``.

    The parent of a span is the span open when it started, so every span of a
    tick descends from that tick's ``runner.tick`` span.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    def open(self, name: str) -> list[Any]:
        span = [name, 0, 0, self._open[-1] if self._open else -1, False]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def close(self, span: list[Any]) -> None:
        span[2] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any) -> Any:
            span = self.open(name)
            try:
                return fn(*args)
            finally:
                self.close(span)

        return traced


@dataclass(frozen=True)
class Response:
    purpose: Purpose
    raw: Optional[str]
    parsed: Any


class TracingBackend:
    """Wraps a backend: one span per call, named by purpose, marked failed
    when the call raises or returns nothing parsed. Keeps every response."""

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.responses: list[Response] = []

    def call(self, req: BackendRequest) -> BackendResponse:
        span = self.tracer.open("backend.call." + req.purpose.value)
        try:
            resp = self.inner.call(req)
        except BackendError:
            span[4] = True
            self.responses.append(Response(req.purpose, None, None))
            raise
        finally:
            self.tracer.close(span)
        span[4] = resp.parsed is None
        self.responses.append(Response(req.purpose, resp.raw, resp.parsed))
        return resp


@dataclass
class StepCapture:
    """Inputs and outcome of one ``orchestrator.step`` call in a traced pass."""

    scenario_key: str
    backend: Backend
    cfg: Any
    history: list
    env: Any
    measurements: Any
    pose: tuple[float, float, float]
    before: Any
    result: Any
    responses: list[Response]


@dataclass
class TracedPass:
    tracer: Tracer = field(default_factory=Tracer)
    captures: list[StepCapture] = field(default_factory=list)


def traced_layers(traced: TracedPass, inner_backend: Backend, tracing_backend: TracingBackend) -> Layers:
    """Layers for a traced pass; the step wrapper also captures its inputs."""
    tracer = traced.tracer
    step = tracer.wrap("orchestrator.step", orchestrator.step)

    def capturing_step(state, env, history, measurements, pose, backend, cfg):
        first = len(tracing_backend.responses)
        result = step(state, env, history, measurements, pose, backend, cfg)
        traced.captures.append(
            StepCapture(
                cfg.scenario_key, inner_backend, cfg, list(history), env, measurements, pose,
                state, result, tracing_backend.responses[first:],
            )
        )
        return result

    return Layers(
        *(tracer.wrap("simenv." + name, getattr(simenv, name)) for name in SIM_LAYERS),
        capturing_step,
    )


def span_totals(tracer: Tracer) -> dict[str, list[int]]:
    """Per span name: ``[calls, total_ns, self_ns, failed]`` of one pass. A
    span's self time is its duration minus that of its child spans."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _failed in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = {}
    for i, (name, start, end, _parent, failed) in enumerate(spans):
        t = totals.setdefault(name, [0, 0, 0, 0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[i]
        t[3] += int(failed)
    return totals


def span_stats(passes: list[dict[str, list[int]]]) -> dict[str, dict[str, float]]:
    """Calls and failures per pass, and mean, self and total time, per span
    name over the ``span_totals`` of several passes."""
    summed: dict[str, list[int]] = {}
    for totals in passes:
        for name, t in totals.items():
            acc = summed.setdefault(name, [0, 0, 0, 0])
            for k in range(4):
                acc[k] += t[k]
    n = len(passes)
    return {
        name: {
            "calls": calls / n,
            "total_us": total_ns / n / 1e3,
            "us_mean": total_ns / calls / 1e3,
            "self_us_mean": self_ns / calls / 1e3,
            "failed": failed / n,
        }
        for name, (calls, total_ns, self_ns, failed) in summed.items()
    }


# ---------------------------------------------------------------------------
# Replay of the layers inside orchestrator.step
# ---------------------------------------------------------------------------


def _timed(samples: dict[str, list[int]], name: str, fn: Callable, *args: Any) -> Any:
    t0 = perf_counter_ns()
    out = fn(*args)
    samples.setdefault(name, []).append(perf_counter_ns() - t0)
    return out


def _front_boxes(snapshot: Any) -> int:
    front = snapshot.view(ViewName.FRONT)
    return len(front.deficits) + sum(
        1 for o in front.visible_objects if o.cls in verifier.TRAFFIC_OBJECT_CLASSES
    )


@dataclass
class ReplayResult:
    samples: dict[str, list[int]]
    front_boxes: list[int]
    planned_pairs: int
    executed_pairs: int
    mismatches: int


def replay(captures: list[StepCapture]) -> ReplayResult:
    """Re-invoke the layers of each captured step on its inputs.

    Every planning round of the step is replayed (hazard inference, motion
    planning and wait expansion), as are the envelope refresh, the parse of
    each backend answer, and the resolve-and-clamp of the executed pair. The
    resolved action must equal the one the step emitted; each difference is
    counted as a mismatch.
    """
    samples: dict[str, list[int]] = {}
    front_boxes: list[int] = []
    planned = executed = mismatches = 0
    for c in captures:
        record, key, cfg = c.result.record, c.scenario_key, c.cfg
        env = c.env
        if len(c.history) >= 2:
            _timed(samples, "verifier.classify_condition", verifier.classify_condition,
                   c.history, cfg.verifier)
        _timed(samples, "verifier.hazard_proximity_ratio", verifier.hazard_proximity_ratio,
               c.history[-1], cfg.verifier.front_view_only)
        front_boxes.append(_front_boxes(c.history[-1]))

        plan_head = None
        for _ in range(record["planning_events"]):
            window = orchestrator._padded_history(c.history, cfg.planner.history_len)
            _timed(samples, "backend.hazard_request", backend_mod.hazard_request, window, key)
            t0 = perf_counter_ns()
            hazards, strategy = planner.infer_hazards(window, c.backend, cfg.planner, key)
            plan = planner.plan_motion(hazards, strategy, env.navi, env, c.backend, cfg.planner, key)
            if plan.strategy is Strategy.MOVE:
                seq = plan.sequence
            else:
                seq = planner.expand_stop_observe_move(plan, cfg.planner.wait_cap, env.tick)
            samples.setdefault("planner.round", []).append(perf_counter_ns() - t0)
            _timed(samples, "backend.motion_request", backend_mod.motion_request,
                   hazards, strategy, env.navi, env, key)
            planned += len(seq)
            plan_head = seq.pairs[0] if len(seq) else None

        if record["sc_refreshed"]:
            nearest = env.surrounding.nearest_obstacle_m
            _timed(samples, "backend.constraints_request", backend_mod.constraints_request,
                   env.navi, env.surrounding, nearest, key)
            _timed(samples, "safety.generate_constraints", safety.generate_constraints,
                   env.navi, env.surrounding, nearest, c.backend, key)

        for r in c.responses:
            if r.raw is not None and r.parsed is not None:
                _timed(samples, "backend.parse_structured", backend_mod.parse_structured,
                       r.raw, r.purpose)

        source = record["source"]
        if source == "pair":
            executed += 1
            pair = plan_head if record["planning_events"] else c.before.sequence.pairs[0]
        elif source == "stop_wait":
            pair = _STOP_PAIR
        else:
            continue
        if pair is None:
            mismatches += 1
            continue
        resolved, _ctrl, _mismatch = _timed(
            samples, "controlmap.resolve_action", controlmap.resolve_action,
            pair.action, c.before.prev_action, c.pose, env.navi, c.before.steer_ctrl, cfg.dt,
        )
        final = _timed(samples, "safety.apply_constraints", safety.apply_constraints,
                       resolved, c.measurements, c.result.state.constraints, cfg.gains)
        if final != c.result.action:
            mismatches += 1
    return ReplayResult(samples, front_boxes, planned, executed, mismatches)


def mean_us(values: list[int]) -> float:
    return sum(values) / len(values) / 1e3 if values else 0.0

