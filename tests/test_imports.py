"""Every module-level import of the package's modules is used, and few are
made.

A name counts as used when the module reads it anywhere, annotations
included.  Start-up stays small: no module loads `fractions` (and with it
`decimal`) on import, `cli` loads only `errors` and `serialize` before a
handler runs, and the document layers `serialize`, `sequences` and
`cohomology` load neither `fans` nor `linalg`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bott_towers"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


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


def top_level_imports(source: str):
    """(standard modules, package modules) imported at module level.

    A package module is named without its package: ``from .fans import x``
    and ``from . import fans`` both give "fans".
    """
    standard, package = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            standard |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            standard.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            package |= ({node.module.split(".")[0]} if node.module
                        else {alias.name for alias in node.names})
    return standard, package


def module_imports(name: str):
    return top_level_imports((PACKAGE / name).read_text(encoding="utf-8"))


def test_the_import_lister_sees_both_kinds():
    source = ("import os.path\nfrom fractions import Fraction\n"
              "from . import linalg\nfrom .fans import BottFan\n"
              "def f():\n    from .charts import x\n")
    assert top_level_imports(source) == ({"os", "fractions"},
                                         {"linalg", "fans"})


@pytest.mark.parametrize("name", MODULES)
def test_no_module_loads_fractions(name):
    assert "fractions" not in module_imports(name)[0]


def test_cli_loads_only_errors_and_serialize():
    assert module_imports("cli.py")[1] == {"errors", "serialize"}


@pytest.mark.parametrize("name", ["serialize.py", "sequences.py",
                                  "cohomology.py"])
def test_document_layers_load_no_fan_or_linear_algebra(name):
    assert not module_imports(name)[1] & {"fans", "linalg"}
