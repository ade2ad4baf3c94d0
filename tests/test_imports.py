"""Every package module other than ``__init__`` uses each name it imports."""

import ast
from pathlib import Path

import pytest

import tokenslide

MODULES = sorted(
    path
    for path in Path(tokenslide.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


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
