"""Every package module other than ``__init__`` uses each name it
imports, and every module-level private name is read somewhere in the
package."""

import ast
from pathlib import Path

import pytest

import tokenslide

PACKAGE = sorted(Path(tokenslide.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Imported names never read as a name; a name used only inside a
    quoted annotation counts as unused."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "from typing import Callable, Iterable\n"
        "import os.path as osp, sys\n"
        "def f(x: Iterable[int]) -> None:\n"
        "    return sys.exit(x)\n"
    )
    assert unused_imports(source) == ["Callable (line 2)", "osp (line 3)"]


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level function, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no other module-level
    statement of any module reads, by name or as an attribute; a helper
    that only calls itself counts as unread."""
    definitions = []
    reads: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            for name in defined_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    definitions.append((module, index, name, stmt.lineno))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((module, index))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add((module, index))
    return [
        f"{module}.{name} (line {line})"
        for module, index, name, line in definitions
        if not reads.get(name, set()) - {(module, index)}
    ]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_caught():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_TABLE: dict = {}\n"
            "def _recurse(x):\n"
            "    return _recurse(x - 1)\n"
            "class _Dead:\n"
            "    pass\n"
            "def _used():\n"
            "    return _LIMIT\n"
            "_via_attribute = 1\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _used\n"
            "def run():\n"
            "    return _used() + a._via_attribute\n"
        ),
    }
    assert unread_private_names(sources) == [
        "a._TABLE (line 2)", "a._recurse (line 3)", "a._Dead (line 5)"
    ]
