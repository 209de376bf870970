"""Every module-level import of the package's modules is used.

`__init__` is exempt: its imports are the public names it re-exports.  A
name counts as used when the module reads it anywhere, annotations
included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bott_towers"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_checker_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom json import dumps, loads as read\n"
              "def f(x: int) -> str:\n    return read(x)\n")
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []
