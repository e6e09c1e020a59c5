"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, every module in
``src/rco`` imports only the standard library or ``rco`` itself, and importing
the CLI does not load the HTTP client stack: ``HttpBackend.call`` imports it
on first use, so a run that never calls HTTP does not pay for ``ssl``.

Importing one module loads exactly the ``rco`` modules its own relative
imports reach, and importing the package root loads none.
"""

from __future__ import annotations

import ast
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


def test_program_imports_only_the_standard_library():
    outside = []
    for path in sorted((SRC / "rco").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside rco
            for name in names:
                top = name.split(".")[0]
                if top != "rco" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
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
