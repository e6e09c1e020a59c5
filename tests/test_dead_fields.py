"""Guard against dead fields: every dataclass field declared in ``src/rco``
is read as ``.<name>`` somewhere in ``src/rco`` or ``bench``.

The match is by attribute name only, so a field shares its reads with any
other attribute of the same name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "rco").glob("*.py"))
READERS = PROGRAM + sorted((ROOT / "bench").glob("*.py"))

# Written but not yet read: ROADMAP item 2 puts each backend call's latency
# into the decision log.
UNREAD_ALLOWED = {("BackendResponse", "latency_ms")}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def dataclass_fields() -> set[tuple[str, str]]:
    fields = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields.update(
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    return fields


def attributes_read() -> set[str]:
    return {
        node.attr
        for path in READERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    fields, read = dataclass_fields(), attributes_read()
    assert {(cls, name) for cls, name in fields if name not in read} == UNREAD_ALLOWED
