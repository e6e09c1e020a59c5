"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, every module in
``src/rco`` imports only the standard library or ``rco`` itself, and importing
the CLI does not load the HTTP client stack: ``HttpBackend.call`` imports it
on first use, so a run that never calls HTTP does not pay for ``ssl``. Nor
does it load the process pool, which no program path imports, or ``logging``,
which no module imports.

Importing one module loads exactly the ``rco`` modules its own relative
imports reach, and importing the package root loads none.

Importing the CLI compiles one method per value type from a string, its
``__init__``, and ``dataclasses`` compiles none.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _absolute_imports() -> list[tuple[str, str]]:
    """(``file:line``, top-level module) of every absolute import in ``src/rco``,
    at module top or inside a function."""
    found = []
    for path in sorted((SRC / "rco").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside rco
            found += [(f"{path.name}:{node.lineno}", name.split(".")[0]) for name in names]
    return found


def test_program_imports_only_the_standard_library():
    outside = [
        f"{where} imports {top}" for where, top in _absolute_imports()
        if top != "rco" and top not in sys.stdlib_module_names
    ]
    assert outside == []


def _fresh_probe(probe: str) -> str:
    """``probe``'s output from a new interpreter that imports ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_the_http_stack_unloaded():
    probe = (
        "import sys, rco.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    )
    assert _fresh_probe(probe) == "[]"


def test_cli_import_leaves_logging_and_the_process_pool_unloaded():
    # No program path imports the pool: every episode runs in the calling
    # process. concurrent.futures would also load logging.
    probe = (
        "import sys, rco.cli; "
        "print(sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))"
    )
    assert _fresh_probe(probe) == "[]"


@pytest.mark.parametrize("command", [["run"], ["sweep", "--limits", "1,5"]])
def test_commands_leave_the_process_pool_unloaded(tmp_path, command):
    # Running a command, not only importing it, loads no pool and no
    # multiprocessing: every episode runs in the calling process.
    scenario = SRC / "rco" / "scenarios" / "pedestrian_cross.json"
    argv = [*command, "--scenarios", str(scenario), "--out", str(tmp_path / "o")]
    probe = (
        "import contextlib, io, sys, rco.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = rco.cli.main({argv!r})\n"
        "print(code, sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    assert _fresh_probe(probe) == "0 []"


def test_program_imports_no_logging():
    # Nothing installs a handler, so a log call would reach no reader: the
    # decision log is the one record of a run's fallbacks.
    assert [where for where, top in _absolute_imports() if top == "logging"] == []


# Counts, by the module and function that called exec, the functions each
# string-compiled code object defines, less the wrapper that dataclasses puts
# round the methods it builds: CPython 3.13 runs one exec per dataclass, even
# one that gets no method, and 3.11 one per method.
_COMPILED_PROBE = """
import collections, json, sys
counts = collections.Counter()
def functions(code):
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield (const.co_name != "__create_fn__") + sum(functions(const))
def hook(event, args):
    code = args[0] if event == "exec" else None
    if getattr(code, "co_filename", None) == "<string>":
        caller = sys._getframe(1)
        counts[caller.f_globals["__name__"] + "." + caller.f_code.co_name] += sum(functions(code))
sys.addaudithook(hook)
import rco.cli
print(json.dumps(counts))
"""


def test_cli_import_compiles_one_method_per_value_type():
    from conftest import value_types

    counts = json.loads(_fresh_probe(_COMPILED_PROBE))
    assert {k: n for k, n in counts.items() if k.startswith("dataclasses.") and n} == {}
    assert counts["rco.domain.value_type"] == len(value_types())


MODULES = sorted(p.stem for p in (SRC / "rco").glob("*.py") if p.stem != "__init__")
_LOADED_PROBE = "import sys, {0}; print(sorted(m for m in sys.modules if m.startswith('rco.')))"


def _relative_imports(module: str) -> set[str]:
    """The modules that ``module``'s top-level relative imports name."""
    tree = ast.parse((SRC / "rco" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_package_root_loads_no_module():
    assert _fresh_probe(_LOADED_PROBE.format("rco")) == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_module_loads_only_its_import_closure(module):
    closure, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo.extend(_relative_imports(name))
    want = sorted(f"rco.{name}" for name in closure)
    assert _fresh_probe(_LOADED_PROBE.format(f"rco.{module}")) == str(want)
