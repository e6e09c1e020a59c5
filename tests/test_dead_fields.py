"""Guard against dead fields and dead exception types.

Every dataclass field declared in ``src/rco`` is read as ``.<name>``
somewhere in ``src/rco`` or ``bench``. The match is by attribute name only,
so a field shares its reads with any other attribute of the same name. The
scan finds dataclasses by their one decorator, ``domain.value_type``, and
checks that it finds every dataclass the modules define.

Every exception class defined in ``src/rco`` is named in an ``except``
clause in ``src/rco`` or ``bench``, or subclasses a ``src/rco`` exception
class that is. A class that nothing catches by type is its built-in base
with a longer name.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from conftest import value_types

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "rco").glob("*.py"))
READERS = PROGRAM + sorted((ROOT / "bench").glob("*.py"))

# Written but not yet read: ROADMAP item 2 puts each backend call's latency
# into the decision log.
UNREAD_ALLOWED = {("BackendResponse", "latency_ms")}


def _is_dataclass(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Name) and decorator.id == "value_type"


def dataclass_nodes() -> list[ast.ClassDef]:
    return [
        node
        for path in PROGRAM
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
    ]


def dataclass_fields() -> set[tuple[str, str]]:
    return {
        (node.name, stmt.target.id)
        for node in dataclass_nodes()
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def attributes_read() -> set[str]:
    return {
        node.attr
        for path in READERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_the_scan_finds_every_dataclass():
    at_run_time = {cls.__name__ for cls in value_types()}
    assert {node.name for node in dataclass_nodes()} == at_run_time
    assert {"Action", "BackendResponse", "WorldState"} <= at_run_time  # not empty


def test_every_dataclass_field_is_read():
    fields, read = dataclass_fields(), attributes_read()
    assert {(cls, name) for cls, name in fields if name not in read} == UNREAD_ALLOWED


def _name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def exception_classes() -> dict[str, set[str]]:
    """Each exception class defined in ``src/rco``, with its base names."""
    classes = {
        node.name: {_name(base) for base in node.bases}
        for path in PROGRAM
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in classes.get(name, ()))

    return {name: bases for name, bases in classes.items() if is_exception(name)}


def names_caught() -> set[str]:
    caught = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, types))
    return caught


def test_every_exception_class_is_caught():
    classes, caught = exception_classes(), names_caught()

    def handled(name: str) -> bool:
        return name in caught or any(b in classes and handled(b) for b in classes[name])

    assert "BackendTimeout" in classes  # the scan finds subclasses of src/rco classes
    assert {name for name in classes if not handled(name)} == set()
