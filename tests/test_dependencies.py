"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, every module in
``src/rco`` imports only the standard library or ``rco`` itself, and importing
the CLI does not load the HTTP client stack: ``HttpBackend.call`` imports it
on first use, so a run that never calls HTTP does not pay for ``ssl``.
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


def test_cli_import_leaves_the_http_stack_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, rco.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
