"""rco benchmark: closed-loop ticks per host second, per-tick latency, set-up
time and memory, with outcome checks, on four workloads.

``BENCHMARK.json`` gates two of them, ``suite-blind`` and ``gen-dense``, so
that each gated run can measure for longer on a host whose speed drifts.
``suite-rco`` is the reference mix of the roadmap's baseline table.
``http-loopback`` runs that mix over HTTP; it must reproduce the outcome
digest of ``suite-rco`` and the golden request bodies, but its tail is the
loopback round trip, which spreads too widely from run to run to gate on.

Usage, from the repository root:

    python3 bench/run.py --workload gen-dense --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics named in
``BENCHMARK.json``. The lines before it print every metric by name and unit
with its quartiles and sample count, the run metadata and the digest checks.

Load model: one client process runs a closed loop, each tick starting when the
previous one ends. ``http-loopback`` adds one process, the fake model server.

A run sets up the workload, makes one warm-up round, then repeats rounds
until ``--seconds`` are spent. ``setup_s`` is timed before that, in fresh
interpreters. With ``--trace 0`` a round is one pass of the workload's
``rco run`` invocations through ``rco.cli.main``, one per scenario and mode,
and one pass of the benchmark driver, which runs the same loop as
``runner.run_episode`` and times each tick. Every pass repeats the same work
in the same order. The host's speed drifts by up to 2x, so each invocation,
each episode's ticks and each set-up is scaled to a nominal host speed by a
fixed reference work timed next to it (see ``HostClock``), and each
invocation and tick gets its median over passes: ``ticks_per_s`` is a pass's
ticks over the sum of the invocations' medians, and ``tick_us_p50`` and
``tick_us_p99`` are quantiles of the ticks' medians. With ``--trace 1`` a
round is one untraced and one traced driver pass, and the layers inside
``orchestrator.step`` are replayed once at the end.

Correctness: the outcome digest of a pass is sha256 over, for each episode in
order, its row of ``summary.csv`` and the ``(tick, action)`` of each record of
its decision log. The header and mean lines of ``summary.csv`` are left out,
so the digest does not depend on how the scenarios are split into
invocations; ``http-loopback`` must digest equal to ``suite-rco``.
Only actions are digested, so that added log fields do not break it. An
episode fails on an exception, a broken invariant or a digest that differs
from ``golden.json`` (or, for a seed without a golden, from a first CLI pass).
Every driver pass must reproduce the CLI pass's digest; ``http-loopback``
must also send the golden sequence of request bodies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import urllib.request
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 21

# The agent modes each workload runs; BENCHMARK.json says why each exists.
MODES = {
    "suite-blind": ("baseline", "always_stop"),
    "suite-rco": ("rco",),
    "gen-dense": ("rco",),
    "http-loopback": ("rco",),
}
HTTP_MODEL = "bench"


# ---------------------------------------------------------------------------
# Workload definition
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One ``rco run`` invocation of a CLI pass."""

    argv: list[str]
    url: Optional[str]
    episodes: int


@dataclass
class EpisodeSpec:
    scenario: Any
    mode: Any
    backend: Any
    overrides: Any


@dataclass
class Workload:
    name: str
    golden_key: str
    invocations: list[Invocation]
    episodes: list[EpisodeSpec]
    backend_kind: str
    table: str
    scenario_paths: list[str]


def build_workload(name: str, seed: int, work: Path, server_url: Optional[str]) -> Workload:
    import gen_dense
    from rco import cli
    from rco.runner import Mode, Overrides
    from rco.simenv import Scenario

    table = ""
    extra: list[str] = []
    golden_key = name
    if name == "gen-dense":
        scenario_dir, table_path = gen_dense.write(seed, work / "inputs")
        table = str(table_path)
        extra = ["--scripted-table", table, "--n-max", "1"]
        golden_key = f"gen-dense@{seed}"
    else:
        scenario_dir = cli.bundled_scenario_dir()
    if name == "http-loopback":
        golden_key = "suite-rco"
    paths = [str(p) for p in cli.discover_scenarios([str(scenario_dir)])]
    scenarios = [Scenario.load(p) for p in paths]
    overrides = Overrides(n_max=1) if name == "gen-dense" else Overrides()

    invocations = []
    episodes = []
    if name == "http-loopback":
        from rco.backend import HttpBackend

        for path, scenario in zip(paths, scenarios):
            url = f"{server_url}/scenario/{scenario.name}/chat/completions"
            argv = ["run", "--mode", "rco", "--backend", "http", "--scenarios", path]
            invocations.append(Invocation(argv, url, 1))
            episodes.append(EpisodeSpec(scenario, Mode.RCO, HttpBackend(url, HTTP_MODEL), overrides))
        backend_kind = "http"
    else:
        backend = cli.build_backend("scripted", table or None)
        for mode in MODES[name]:
            for path, scenario in zip(paths, scenarios):
                argv = ["run", "--mode", mode, "--scenarios", path, *extra]
                invocations.append(Invocation(argv, None, 1))
                episodes.append(EpisodeSpec(scenario, Mode(mode), backend, overrides))
        backend_kind = "scripted"
    return Workload(name, golden_key, invocations, episodes, backend_kind, table, paths)


# ---------------------------------------------------------------------------
# Fake server for http-loopback
# ---------------------------------------------------------------------------


class FakeServer:
    """The fake chat-completions server, run as a second process."""

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fakeserver.py"), str(src)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError("fake server did not report its port")
        self.url = f"http://127.0.0.1:{line[1]}"

    def _request(self, path: str, method: str) -> dict[str, Any]:
        req = urllib.request.Request(self.url + path, data=b"" if method == "POST" else None,
                                     method=method)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._request("/reset", "POST")

    def digest(self) -> dict[str, Any]:
        return self._request("/digest", "GET")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeOutcome:
    """What a pass keeps of an episode: its digest and first broken invariant."""

    scenario: str
    digest: Optional[str]
    problem: Optional[str]


@dataclass
class PassResult:
    """Episodes of one pass in workload order; ``None`` where one failed to run.

    Each episode is checked and digested as soon as it is read or driven, and
    only its ``EpisodeOutcome`` is kept, so a pass holds one decision log at
    a time.
    """

    episodes: list[Optional[EpisodeOutcome]] = field(default_factory=list)
    seconds: float = 0.0
    ticks: int = 0
    mode_seconds: dict[str, float] = field(default_factory=dict)
    mode_ticks: dict[str, int] = field(default_factory=dict)
    invocation_seconds: list[float] = field(default_factory=list)  # at nominal host speed
    tick_ns: list[float] = field(default_factory=list)  # at nominal host speed
    errors: list[str] = field(default_factory=list)
    request_digest: Optional[dict[str, Any]] = None
    _outcome: Any = field(default_factory=hashlib.sha256)

    def add(self, row: str, records: list[dict[str, Any]]) -> None:
        scenario = row.split(",")[0]
        try:
            problem = episode_problem(row, records)
            block = episode_block(row, records)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.episodes.append(EpisodeOutcome(scenario, None, f"malformed output: {exc!r}"))
            return
        self._outcome.update(block)
        self.episodes.append(EpisodeOutcome(scenario, hashlib.sha256(block).hexdigest(), problem))

    @property
    def outcome(self) -> Optional[str]:
        """sha256 over the episode blocks in order; None if one is missing."""
        if any(ep is None or ep.digest is None for ep in self.episodes):
            return None
        return self._outcome.hexdigest()


def _read_invocation(out: Path, expected: int, result: PassResult) -> None:
    added = 0
    try:
        rows = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:-1]
        for row in rows[:expected]:
            scenario, mode = row.split(",")[:2]
            lines = (out / f"{scenario}__{mode}.decisions.jsonl").read_text(encoding="utf-8")
            records = [json.loads(line) for line in lines.splitlines()]
            result.add(row, records)
            added += 1
            result.ticks += len(records)
            result.mode_ticks[mode] = result.mode_ticks.get(mode, 0) + len(records)
    except (OSError, ValueError):
        pass
    result.episodes.extend([None] * (expected - added))


def cli_pass(wl: Workload, out_root: Path, server: Optional[FakeServer],
             clock: Optional["HostClock"] = None) -> PassResult:
    from rco import cli

    result = PassResult()
    if server is not None:
        server.reset()
    outs = []
    for i, inv in enumerate(wl.invocations):
        out = out_root / f"inv{i}"
        outs.append(out)
        if inv.url is not None:
            os.environ["RCO_BACKEND_URL"] = inv.url
            os.environ["RCO_BACKEND_MODEL"] = HTTP_MODEL
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*inv.argv, "--out", str(out)])
            if code != 0:
                result.errors.append(f"rco {' '.join(inv.argv)} exited {code}")
        except Exception:
            result.errors.append(traceback.format_exc())
        dt = perf_counter() - t0
        mode = inv.argv[inv.argv.index("--mode") + 1]
        result.invocation_seconds.append(dt * clock.scale() if clock else dt)
        result.seconds += dt
        result.mode_seconds[mode] = result.mode_seconds.get(mode, 0.0) + dt
    if server is not None:
        result.request_digest = server.digest()
    for inv, out in zip(wl.invocations, outs):
        _read_invocation(out, inv.episodes, result)
    shutil.rmtree(out_root, ignore_errors=True)
    return result


def driver_pass(wl: Workload, server: Optional[FakeServer], traced: Any = None,
                clock: Optional["HostClock"] = None) -> PassResult:
    import driver

    result = PassResult()
    if server is not None:
        server.reset()
    for spec in wl.episodes:
        backend, layers, tracer = spec.backend, driver.UNTRACED, None
        if traced is not None:
            tracer = traced.tracer
            backend = driver.TracingBackend(spec.backend, tracer)
            layers = driver.traced_layers(traced, spec.backend, backend)
        try:
            ep = driver.drive_episode(spec.scenario, spec.mode, backend, spec.overrides,
                                      layers, tracer)
        except Exception:
            result.errors.append(traceback.format_exc())
            result.episodes.append(None)
            continue
        result.add(ep.row, ep.records)
        ns = sum(ep.tick_ns)
        result.seconds += ns / 1e9
        result.ticks += len(ep.tick_ns)
        scale = clock.scale() if clock else 1.0
        result.tick_ns.extend(t * scale for t in ep.tick_ns)
        result.mode_seconds[ep.mode] = result.mode_seconds.get(ep.mode, 0.0) + ns / 1e9
        result.mode_ticks[ep.mode] = result.mode_ticks.get(ep.mode, 0) + len(ep.tick_ns)
    if server is not None:
        result.request_digest = server.digest()
    return result


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_SOURCES = {"base", "pair", "stop_wait", "failsafe"}


def episode_problem(row: str, records: list[dict[str, Any]]) -> Optional[str]:
    """The first broken invariant of an episode, or None."""
    from rco import orchestrator

    fields = row.split(",")
    rc, is_score, ds = float(fields[2]), float(fields[3]), float(fields[4])
    if not (0.0 <= rc <= 100.0 and 0.0 <= is_score <= 1.0):
        return f"score out of range: {row}"
    if abs(ds - rc * is_score) > 1e-4:
        return f"DS != RC x IS: {row}"
    for i, rec in enumerate(records):
        if rec["tick"] != i:
            return f"record {i} has tick {rec['tick']}"
        if rec["source"] not in _SOURCES or rec["active"] != (rec["source"] != "base"):
            return f"tick {i}: unknown source {rec['source']!r} (active={rec['active']})"
        act = rec["action"]
        if not (0.0 <= act["throttle"] <= 1.0 and 0.0 <= act["brake"] <= 1.0
                and -1.0 <= act["steer"] <= 1.0):
            return f"tick {i}: action out of range {act}"
        if rec["source"] == "failsafe" and act != orchestrator.FAIL_SAFE_STOP.to_json():
            return f"tick {i}: fail-safe emitted {act}"
    if not records:
        return "no ticks"
    return None


def episode_block(row: str, records: list[dict[str, Any]]) -> bytes:
    lines = [row]
    lines.extend(
        json.dumps([r["tick"], r["action"]], sort_keys=True, separators=(",", ":"))
        for r in records
    )
    return ("\n".join(lines) + "\n").encode()


@dataclass
class Verdicts:
    reference: dict[str, Any]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, set] = field(default_factory=dict)

    def judge(self, label: str, p: PassResult) -> None:
        """Count the pass's episodes and failures and check its digests."""
        outcome = p.outcome
        self.digests.setdefault(label, set()).add(outcome)
        self.problems.extend(f"{label}: {e.strip().splitlines()[-1]}" for e in p.errors)
        expected = list(self.reference["episodes"].values())
        for i, ep in enumerate(p.episodes):
            self.attempted += 1
            if ep is None:
                self.failed += 1
                continue
            problem = ep.problem
            if problem is None and ep.digest != expected[i]:
                problem = f"episode digest {ep.digest[:12]} != {str(expected[i])[:12]}"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{label}: {ep.scenario}: {problem}")
        if len(p.episodes) != len(expected):
            self.problems.append(f"{label}: {len(p.episodes)} episodes, expected {len(expected)}")
        if outcome != self.reference["digest"]:
            self.problems.append(f"{label}: outcome digest {outcome} != {self.reference['digest']}")


def load_golden() -> dict[str, Any]:
    return json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Statistics and metadata
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metadata(root: Path) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "rco").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_rco_lines": lines,
    }


def measure_setup(wl: Workload, src: Path, server: Optional[FakeServer],
                  clock: "HostClock") -> list[float]:
    """Seconds from spawning a fresh interpreter to its first tick being
    ready, at nominal host speed."""
    env = dict(os.environ)
    if server is not None:
        env["RCO_BACKEND_URL"] = wl.invocations[0].url
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), wl.backend_kind,
           wl.table, *wl.scenario_paths]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            line = proc.stdout.readline().strip()
            dt = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(dt * clock.scale())
    return times


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

REFERENCE_NS = 1_000_000  # the reference work's time at nominal host speed


def reference_work() -> float:
    """A fixed piece of pure-Python work of the kind rco does (float maths,
    tuples, a dict, a sort), about 1 ms on a quiet 2-vCPU Xeon guest. It uses
    nothing from rco, so a change to rco does not change it."""
    points = [(math.cos(i * 0.1) * i, math.sin(i * 0.1) * i) for i in range(400)]
    totals: dict[int, float] = {}
    for k in range(6):
        for j, (x, y) in enumerate(points):
            totals[j % 37] = totals.get(j % 37, 0.0) + math.hypot(x - k, y + k)
        points.sort(key=lambda p: p[0] * k - p[1])
    return totals[0]


def reference_ns() -> int:
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


class HostClock:
    """Scales times to a nominal host speed.

    The host's speed drifts by up to 2x over seconds and minutes, in CPU
    time as much as in wall time, and rco's time drifts with it: interleaved
    with bundled episodes, the reference work and the episodes each spread
    0.29 (interquartile range over median) while their ratio spread 0.05. So
    the reference work is timed between every two measured items, and each
    item's time is multiplied by ``REFERENCE_NS`` over the mean of the
    reference times just before and just after it.
    """

    def __init__(self) -> None:
        self.last = reference_ns()
        self.factors: list[float] = []

    def scale(self) -> float:
        """The factor for the item that has just ended."""
        before, self.last = self.last, reference_ns()
        factor = 2 * REFERENCE_NS / (before + self.last)
        self.factors.append(factor)
        return factor


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_rounds(seconds: float, one_round: Any) -> int:
    """Run rounds until the next one would overrun ``seconds``; at least one."""
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        one_round()
        rounds += 1
        now = perf_counter()
        if now + (now - t0) > start + seconds:
            return rounds


class PerItem:
    """Times of the same items over passes.

    Every pass repeats the same invocations and ticks in the same order, so
    the i-th time of each pass measures the same work; each item's median
    over passes is its time with the noise of single passes taken out.
    """

    def __init__(self) -> None:
        self.passes: list[array] = []

    def add(self, values: list[float]) -> None:
        if self.passes and len(values) != len(self.passes[0]):
            return  # a pass with a failed episode, already counted by judge
        self.passes.append(array("d", values))

    def medians(self) -> list[float]:
        return [statistics.median(item) for item in zip(*self.passes)]


def run_plain(wl: Workload, args: argparse.Namespace, work: Path, server: Optional[FakeServer],
              verdicts: Verdicts, src: Path) -> tuple[dict, list[str]]:
    clock = HostClock()
    setup = measure_setup(wl, src, server, clock)
    cli_passes: list[PassResult] = []
    driver_passes: list[PassResult] = []
    invocations, ticks = PerItem(), PerItem()
    request_digests: list[Optional[dict]] = []
    rss: list[float] = []

    def one_round() -> None:
        p = cli_pass(wl, work / "cli", server, clock)
        verdicts.judge("cli", p)
        invocations.add(p.invocation_seconds)
        cli_passes.append(p)
        d = driver_pass(wl, server, clock=clock)
        verdicts.judge("driver", d)
        ticks.add(d.tick_ns)
        d.tick_ns = []
        driver_passes.append(d)
        request_digests.extend([p.request_digest, d.request_digest])
        if len(cli_passes) == 1:
            # Peak memory is read once the warm-up round and the first timed
            # round have run, so it does not grow with the number of rounds.
            rss[:] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]

    # Warm-up round, judged but not timed.
    one_round()
    cli_passes.clear()
    driver_passes.clear()
    invocations, ticks = PerItem(), PerItem()
    rounds = timed_rounds(args.seconds, one_round)

    lines = []
    per_pass = cli_passes[0].ticks
    inv_s = invocations.medians()
    rate = per_pass / sum(inv_s)
    r1, r2, r3 = quartiles([p.ticks / p.seconds for p in cli_passes])
    lines.append(f"  ticks_per_s   {rate:12.3f} 1/s  {per_pass} ticks over the sum of "
                 f"{len(inv_s)} rco run invocations' median times in {len(invocations.passes)} "
                 f"CLI passes (unscaled per pass: median {r2:.3f}, q1 {r1:.3f}, q3 {r3:.3f})")
    tick_ns = ticks.medians()
    cuts = statistics.quantiles(tick_ns, n=100, method="inclusive")
    p50, p99 = cuts[49] / 1e3, cuts[98] / 1e3
    lines.append(f"  tick_us_p50   {p50:12.3f} us   median of {len(tick_ns)} ticks' median times "
                 f"in {len(ticks.passes)} driver passes (q1 {cuts[24] / 1e3:.3f}, "
                 f"q3 {cuts[74] / 1e3:.3f})")
    lines.append(f"  tick_us_p99   {p99:12.3f} us   99th percentile of the same ticks")
    s1, s2, s3 = quartiles(setup)
    lines.append(f"  setup_s       {s2:12.4f} s    median of {len(setup)} fresh interpreters "
                 f"(q1 {s1:.4f}, q3 {s3:.4f})")
    lines.append(f"  peak_rss_mb   {rss[0]:12.3f} MB   peak resident memory of this process "
                 f"after the warm-up round and the first timed round")
    f1, f2, f3 = quartiles(clock.factors)
    lines.append(f"  host scale    {f2:12.4f}      median of {len(clock.factors)} factors to "
                 f"nominal speed (q1 {f1:.4f}, q3 {f3:.4f}); the times above are scaled, the "
                 f"mode lines below are not")
    for mode in MODES[wl.name]:
        cli_us = statistics.median(
            p.mode_seconds[mode] / p.mode_ticks[mode] * 1e6 for p in cli_passes)
        drv_us = statistics.median(
            d.mode_seconds[mode] / d.mode_ticks[mode] * 1e6 for d in driver_passes)
        lines.append(f"  mode {mode:<12} {cli_passes[0].mode_ticks[mode]:6d} ticks: "
                     f"{cli_us:8.1f} us/tick through rco run, {drv_us:8.1f} us/tick in the loop")
    lines.append(f"  rounds        {rounds} timed after 1 warm-up round")
    if server is not None:
        lines.append(_request_check(request_digests, verdicts))
    metrics = {
        "ticks_per_s": (rate, "1/s"),
        "tick_us_p50": (p50, "us"),
        "tick_us_p99": (p99, "us"),
        "setup_s": (s2, "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    return metrics, lines


def _request_check(request_digests: list[Optional[dict]], verdicts: Verdicts) -> str:
    golden = verdicts.reference.get("request_bodies")
    seen = {json.dumps(d, sort_keys=True) for d in request_digests}
    if len(seen) != 1:
        verdicts.problems.append(f"request bodies differ between passes: {sorted(seen)}")
    first = request_digests[0] or {}
    if golden is not None and first != golden:
        verdicts.problems.append(f"request bodies {first} != golden {golden}")
    status = "golden match" if first == golden else "MISMATCH"
    return (f"  request bodies {first.get('count')} per pass, sha256 {first.get('sha256')} "
            f"({status}, {len(request_digests)} passes)")


def run_traced(wl: Workload, args: argparse.Namespace, work: Path,
               server: Optional[FakeServer], verdicts: Verdicts) -> tuple[dict, list[str]]:
    import driver

    verdicts.judge("cli", cli_pass(wl, work / "cli", server))
    plain: list[PassResult] = []
    span_totals: list[dict[str, list[int]]] = []
    traced_seconds: list[float] = []
    last: list[Any] = []  # the latest traced pass, whose captures are replayed
    request_digests: list[Optional[dict]] = []

    def one_round() -> None:
        p = driver_pass(wl, server)
        verdicts.judge("driver", p)
        plain.append(p)
        traced = driver.TracedPass()
        t = driver_pass(wl, server, traced)
        verdicts.judge("traced", t)
        p.tick_ns = t.tick_ns = []
        span_totals.append(driver.span_totals(traced.tracer))
        traced_seconds.append(t.seconds)
        last[:] = [traced]
        request_digests.extend([p.request_digest, t.request_digest])

    one_round()
    plain.clear()
    span_totals.clear()
    traced_seconds.clear()
    rounds = timed_rounds(args.seconds, one_round)

    overhead = statistics.median(traced_seconds) / statistics.median(p.seconds for p in plain)
    stats = driver.span_stats(span_totals)
    captures = last[0].captures
    rep = driver.replay(captures)
    if rep.mismatches:
        verdicts.problems.append(f"replay: {rep.mismatches} resolved actions differ from the step's")

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    tick_total = stat("runner.tick", "total_us")
    m: dict[str, tuple[float, str]] = {}
    for layer in driver.SIM_LAYERS:
        name = "simenv." + layer
        m[name + ".calls"] = (stat(name, "calls"), "count")
        m[name + ".us_mean"] = (stat(name, "us_mean"), "us")
        m[name + ".share"] = (stat(name, "total_us") / tick_total, "ratio")
    m["orchestrator.step.calls"] = (stat("orchestrator.step", "calls"), "count")
    m["orchestrator.step.us_mean"] = (stat("orchestrator.step", "us_mean"), "us")
    m["orchestrator.step.self_us_mean"] = (stat("orchestrator.step", "self_us_mean"), "us")
    for purpose in ("hazard_and_plan", "short_term_motion", "safety_constraints"):
        name = "backend.call." + purpose
        m[name + ".calls"] = (stat(name, "calls"), "count")
        m[name + ".us_mean"] = (stat(name, "us_mean"), "us")
        m[name + ".failed"] = (stat(name, "failed"), "count")
    replayed = {
        "verifier.classify_condition.us_mean": "verifier.classify_condition",
        "verifier.hazard_proximity_ratio.us_mean": "verifier.hazard_proximity_ratio",
        "backend.hazard_request.us_mean": "backend.hazard_request",
        "backend.motion_request.us_mean": "backend.motion_request",
        "backend.constraints_request.us_mean": "backend.constraints_request",
        "backend.parse_structured.us_mean": "backend.parse_structured",
        "planner.round_us_mean": "planner.round",
        "safety.apply_constraints.us_mean": "safety.apply_constraints",
        "safety.generate_constraints.us_mean": "safety.generate_constraints",
        "controlmap.resolve_action.us_mean": "controlmap.resolve_action",
    }
    for metric, sample in replayed.items():
        m[metric] = (driver.mean_us(rep.samples.get(sample, [])), "us")
    boxes = rep.front_boxes
    m["verifier.front_boxes_mean"] = (sum(boxes) / len(boxes) if boxes else 0.0, "count")

    records = [c.result.record for c in captures]
    overridden = len(records)
    sc_calls = stat("backend.call.safety_constraints", "calls")
    m["runner.overridden_ticks"] = (overridden, "count")
    m["planner.rounds_per_overridden_tick"] = (
        sum(r["planning_events"] for r in records) / overridden if overridden else 0.0, "ratio")
    m["backend.calls_per_overridden_tick"] = (
        sum(r["backend_calls"] for r in records) / overridden if overridden else 0.0, "ratio")
    m["planner.pairs_used_ratio"] = (
        rep.executed_pairs / rep.planned_pairs if rep.planned_pairs else 0.0, "ratio")
    m["safety.envelope_fallback_ratio"] = (
        stat("backend.call.safety_constraints", "failed") / sc_calls if sc_calls else 0.0, "ratio")
    m["orchestrator.failsafe_ticks"] = (
        sum(1 for r in records if r["source"] == "failsafe"), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")

    lines = [f"  rounds        {rounds} timed after 1 warm-up round "
             f"(each one untraced and one traced driver pass)"]
    replayed_names = set(replayed) | {"verifier.front_boxes_mean"}
    for name, (value, unit) in m.items():
        label = "  [replay]" if name in replayed_names else ""
        lines.append(f"  {name:<44} {value:14.3f} {unit}{label}")
    lines.append(f"  replay: {len(captures)} captured steps, {sum(map(len, rep.samples.values()))} "
                 f"calls, {rep.mismatches} mismatches, unwrapped backend")
    if server is not None:
        lines.append(_request_check(request_digests, verdicts))
    return m, lines


def run(args: argparse.Namespace, root: Path, src: Path, work: Path) -> int:
    golden = load_golden()
    meta = metadata(root)
    with contextlib.ExitStack() as stack:
        server = None
        if args.workload == "http-loopback":
            server = FakeServer(src)
            stack.callback(server.stop)
        wl = build_workload(args.workload, args.seed, work, server.url if server else None)

        reference = golden["outcome"].get(wl.golden_key)
        source = "golden"
        if reference is None:
            first = cli_pass(wl, work / "cli", server)
            reference = {
                "digest": first.outcome,
                "episodes": {i: ep and ep.digest for i, ep in enumerate(first.episodes)},
            }
            source = "first CLI pass (no golden for this seed)"
        if server is not None:
            reference["request_bodies"] = golden["request_bodies"].get(wl.name)
        verdicts = Verdicts(reference)

        if args.trace:
            metrics, lines = run_traced(wl, args, work, server, verdicts)
        else:
            metrics, lines = run_plain(wl, args, work, server, verdicts, src)

    print(f"rco benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("  meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for line in lines:
        print(line)
    print(f"  episodes      {verdicts.attempted} attempted, {verdicts.failed} failed")
    print(f"  outcome digest reference {reference['digest']} ({source})")
    for label, seen in verdicts.digests.items():
        status = "match" if seen == {reference["digest"]} else "MISMATCH"
        print(f"  {label:<8} passes: {status}")
    for problem in verdicts.problems[:20]:
        print(f"  PROBLEM {problem}")

    expected = {m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json")
    result = {
        "correct": not verdicts.problems and verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, default=1, help="only gen-dense uses it")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rco" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root (src/rco and BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
