"""Which lines of ``src/rco`` the program's own commands run.

Usage: ``python3 tests/reach.py``, on Python 3.11: the executable lines come
from the code objects' line tables, which differ between Python versions.

It traces, in this process, a fixed list of ``rco`` commands:

- ``rco run`` on the bundled suite in each mode, and ``rco sweep --limits 1,3,5``;
- ``rco run`` on ``gen-dense`` seeds 1-3 in each mode with ``--n-max 1``, the
  inputs written by ``bench/gen_dense.py``;
- ``rco run --backend http`` on each bundled scenario against
  ``bench/fakeserver.py``, with a bearer token set;
- ``rco run --config`` with a file that sets every ``Overrides`` key;
- ``rco run`` on ``tests/broken_table.py``'s copy of the bundled table, with
  three broken answers: an unknown speed token, pairs that are an object, not
  a list, and a wait of -1;
- ``rco replay`` on every decision log those runs write.

Every executable line of ``src/rco`` (read from the line tables of its code
objects) that none of them runs must be listed in ``tests/reach.json``, by
file, function and text, with one class and a reason:

- ``refuses``: it raises on, or handles, bad input from outside: a file, a
  flag, an environment variable, a model answer, a server, or a caller of a
  public function;
- ``bench``: only ``bench/`` calls it;
- ``scenario``: no bundled or ``gen-dense`` scenario reaches it;
- ``tests``: only the tier-1 tests run it.

The script exits 1 if an unreached line is not listed, or a listed line is
reached, so the list cannot go stale in either direction. Everything it
writes goes under a temporary directory, and it stops the fake server it
starts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Any, Iterator

sys.dont_write_bytecode = True  # nothing is written beside the sources

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "rco"
BENCH = ROOT / "bench"
LISTED = Path(__file__).with_name("reach.json")
CLASSES = ("refuses", "bench", "scenario", "tests")
MODES = ("baseline", "always_stop", "rco")
GEN_DENSE_SEEDS = (1, 2, 3)
TOKEN = "reach-token"

# The config file: every Overrides key, penalties included.
CONFIG = {
    "n_max": 3,
    "history_len": 4,
    "wait_cap": 30,
    "replan_budget": 2,
    "shift_threshold": 0.1,
    "hazard_ratio_threshold": 0.15,
    "delta_throttle": 0.2,
    "delta_brake": 0.2,
    "penalties": {"red_light": 0.6, "collision_pedestrian": 0.4},
}

Line = tuple[str, str, str]  # file, function, stripped text


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines() -> dict[tuple[str, int], Line]:
    """Each executable line of the package, by (path, number), with the file
    name, the innermost function that holds it and its text."""
    lines: dict[tuple[str, int], Line] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        # Outer code objects come first, so an inner one names a shared line.
        for code in _code_objects(compile(source, str(path), "exec")):
            # A comprehension's or a lambda's line is named by the function around it.
            name = re.sub(r"(\.<locals>\.<(genexpr|listcomp|dictcomp|setcomp|lambda)>)+$", "",
                          code.co_qualname)
            for _start, _end, number in code.co_lines():
                if number is not None:
                    lines[(str(path), number)] = (path.name, name, text[number - 1].strip())
    return lines


def _commands(tmp: Path, server_url: str) -> Iterator[list[str]]:
    """The traced commands, each as the argv of ``cli.main``; a command that
    needs a file or an environment variable sets it up before it is yielded."""
    from rco import cli
    from broken_table import write_broken_table
    import gen_dense

    out = tmp / "out"
    for mode in MODES:
        yield ["run", "--mode", mode, "--out", str(out / mode)]
    yield ["sweep", "--limits", "1,3,5", "--out", str(out / "sweep")]
    for seed in GEN_DENSE_SEEDS:
        with _untraced():  # its validation is bench code, not a command
            scenarios, table = gen_dense.write(seed, tmp / f"gen-dense-{seed}")
        for mode in MODES:
            yield ["run", "--mode", mode, "--scenarios", str(scenarios),
                   "--scripted-table", str(table), "--n-max", "1",
                   "--out", str(out / f"gen-dense-{seed}-{mode}")]

    os.environ["RCO_BACKEND_MODEL"] = "reach"
    os.environ["RCO_BACKEND_TOKEN"] = TOKEN
    for path in cli.discover_scenarios([str(cli.bundled_scenario_dir())]):
        os.environ["RCO_BACKEND_URL"] = f"{server_url}/scenario/{path.stem}/chat/completions"
        yield ["run", "--mode", "rco", "--backend", "http", "--scenarios", str(path),
               "--out", str(out / f"http-{path.stem}")]

    from rco.runner import Overrides

    unset = {f.name for f in dataclasses.fields(Overrides)} - CONFIG.keys()
    if unset:
        raise RuntimeError(f"CONFIG sets no {sorted(unset)}")
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    yield ["run", "--mode", "rco", "--config", str(config), "--out", str(out / "config")]

    bad_table = tmp / "bad_table.json"
    write_broken_table(bad_table)
    yield ["run", "--mode", "rco", "--scripted-table", str(bad_table),
           "--out", str(out / "bad-table")]

    for log in sorted(out.glob("*/*.decisions.jsonl")):
        yield ["replay", "--log", str(log)]


_reached: set[tuple[str, int]] = set()
_traced: set[str] = set()


def _line(frame: Any, event: str, arg: Any) -> Any:
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame: Any, event: str, arg: Any) -> Any:
    if frame.f_code.co_filename in _traced:
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


@contextlib.contextmanager
def _untraced() -> Iterator[None]:
    sys.settrace(None)
    try:
        yield
    finally:
        sys.settrace(_call)


@contextlib.contextmanager
def _fake_server() -> Iterator[str]:
    server = subprocess.Popen(
        [sys.executable, "-B", str(BENCH / "fakeserver.py"), str(SRC)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = server.stdout.readline().split()
        if len(port) != 2 or port[0] != "PORT":
            raise RuntimeError("the fake server did not report its port")
        yield f"http://127.0.0.1:{port[1]}"
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


def reached_lines() -> set[tuple[str, int]]:
    """Run the commands under the tracer; (path, number) of each line run."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    _traced.update(str(p) for p in PACKAGE.glob("*.py"))
    saved_env = dict(os.environ)
    sys.settrace(_call)
    try:
        from rco import cli  # traced from its first line: module bodies count

        with tempfile.TemporaryDirectory() as tmp, _fake_server() as url:
            for argv in _commands(Path(tmp), url):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    status = cli.main(argv)
                if status != 0 or stderr.getvalue():
                    raise RuntimeError(f"rco {' '.join(argv)} exited {status}: {stderr.getvalue()}")
    finally:
        sys.settrace(None)
        os.environ.clear()
        os.environ.update(saved_env)
    return set(_reached)


def load_listed() -> list[dict[str, Any]]:
    """The entries of ``reach.json``: the unreached lines of one function that
    share a class and a reason."""
    entries = json.loads(LISTED.read_text(encoding="utf-8"))
    for entry in entries:
        if set(entry) != {"file", "function", "class", "reason", "lines"}:
            raise ValueError(f"{LISTED.name}: an entry needs file, function, class, reason "
                             f"and lines: {entry}")
        if entry["class"] not in CLASSES:
            raise ValueError(f"{LISTED.name}: unknown class {entry['class']!r}: {entry}")
    return entries


def main() -> int:
    if sys.version_info[:2] != (3, 11):
        print(f"reach.py needs Python 3.11, not {sys.version.split()[0]}", file=sys.stderr)
        return 2
    listed = load_listed()
    executable = executable_lines()
    reached = reached_lines() & executable.keys()
    unreached = {key: line for key, line in executable.items() if key not in reached}
    want = Counter((e["file"], e["function"], text) for e in listed for text in e["lines"])
    unlisted = Counter(unreached.values()) - want
    stale = want - Counter(unreached.values())
    failed = bool(unlisted or stale)

    print(f"{len(reached)} of {len(executable)} executable lines reached, "
          f"{len(unreached)} unreached")
    counts = Counter(e["class"] for e in listed for _ in e["lines"])
    print("lines listed: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES))
    for (path, number), line in sorted(unreached.items()):
        if unlisted[line] > 0:
            unlisted[line] -= 1
            print(f"unreached and not listed: {Path(path).name}:{number} in {line[1]}: {line[2]}")
    for (file, function, text), n in sorted(stale.items()):
        print(f"listed but reached{f' ({n} times)' if n > 1 else ''}: "
              f"{file} in {function}: {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
