"""Every import of the package's modules is used, and few are made.

A name imported at the top of a module counts as used when the module reads
it anywhere, annotations included; one imported at the top of a function
body, such as a CLI handler's, when that function reads it.  Start-up stays
small: no module loads `fractions` (and with it `decimal`) on import, `cli`
loads only `errors` and `serialize` before a handler runs, and the document
layers `serialize`, `sequences` and `cohomology` load neither `fans` nor
`linalg`.

Recognition stays inside `classify`: a function of `cli` imports or reads
nothing from `fans` but `build_fan`, and nothing from `classify` but
`classify` and `_verdicts`, so the rule that decides `check`'s and
`classify`'s verdicts is written in one module.

Layers are resolved once per process: no function of `cli` or `serialize`
makes a relative import, by statement or by `__import__`, but the one layer
resolver, `serialize._layer`; a handler and `fan_from_doc` read each
function as an attribute of `serialize`, which `cli` imports when it
loads, or of the module ``_layer(name)`` returns.

The benchmark's tracer (bench/tracing.py) wraps public functions by name, so
each name it lists must exist: installing it resolves every layer, and
uninstalling it puts every attribute back.

No private helper is orphaned: every function or class defined at the top
of a module with a leading underscore is read somewhere in the package
outside its own definition (an import alone does not count).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bott_towers"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def unused_imports(source: str):
    """Names bound by the imports at the top of the module, or of a function
    body, that the module, or that function, never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
        bound = []
        for node in scope.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(alias.asname or alias.name).split(".")[0]
                          for alias in node.names]
        read = {node.id for node in ast.walk(scope) if isinstance(
            node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [name for name in bound if name not in read]
    return unused


def test_the_checker_sees_an_unused_name():
    # a function's own import counts as read only inside that function
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom json import dumps, loads as read\n"
              "def f(x: int) -> str:\n    return read(x)\n"
              "def check(x):\n    from .fans import build_fan, is_fano\n"
              "    return is_fano(x)\n"
              "def other(x):\n    return build_fan(x)\n")
    assert unused_imports(source) == ["os", "dumps", "build_fan"]


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


# The names a cli handler may import from the recognition layers: every
# verdict of check and classify is decided in classify.
CLI_RECOGNITION = {"fans": {"build_fan"}, "classify": {"classify", "_verdicts"}}


def recognition_imports(source: str):
    """(module, name) of each import, at any depth, and of each read of
    ``_layer("<module>").<name>``, from a module named in CLI_RECOGNITION
    that it does not allow; ``from . import fans``, and a ``_layer("fans")``
    whose value is used other than for one attribute, give the name "*"."""
    found = []
    tree = ast.parse(source)
    read = {id(node.value): node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}  # base node: attribute read
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            found += ([(node.module, name) for name in names]
                      if node.module else [(name, "*") for name in names])
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_layer"):
            module = node.args[0].value if node.args else "*"
            found.append((module, read.get(id(node), "*")))
    return [(module, name) for module, name in found
            if name not in CLI_RECOGNITION.get(module, {name})]


def test_the_recognition_lint_sees_a_fan_internal():
    source = ("from .errors import RejectionError\n"
              "def check(x):\n"
              "    from .classify import _verdicts, _stage_matrix\n"
              "    from .fans import build_fan, _rays\n"
              "    from . import classify, serialize\n")
    assert recognition_imports(source) == [
        ("classify", "_stage_matrix"), ("fans", "_rays"), ("classify", "*")]


def test_the_recognition_lint_sees_a_layer_read():
    source = ("def check(x):\n"
              "    fans = _layer('fans')\n"
              "    _layer('fans').build_fan(x)\n"
              "    _layer('serialize').check_text(\n"
              "        _layer('classify')._verdicts(x))\n"
              "    return _layer('classify')._stage_matrix(fans._rays(x))\n")
    assert sorted(recognition_imports(source)) == [
        ("classify", "_stage_matrix"), ("fans", "*")]


def test_cli_leaves_recognition_to_classify():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert recognition_imports(source) == []


def function_imports(source: str):
    """The qualified name of each function that makes a relative import:
    an import statement of level 1 or more, or an ``__import__`` call with
    a level argument other than 0, anywhere in its body."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if prefix and (
                    isinstance(child, (ast.Import, ast.ImportFrom))
                    and getattr(child, "level", 0) >= 1
                    or isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "__import__"
                    and not (len(child.args) > 4
                             and isinstance(child.args[4], ast.Constant)
                             and child.args[4].value == 0)):
                found.append(prefix[:-1])
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def test_the_function_import_lint_sees_both_forms():
    source = ("from .errors import ValidationError\n"
              "import json\n"
              "def handler(args):\n"
              "    from .fans import build_fan\n"
              "    import argparse\n"
              "    return build_fan\n"
              "class Layers:\n"
              "    def get(self, name):\n"
              "        return __import__(name, globals(), None, ('x',), 1)\n"
              "    def absolute(self, name):\n"
              "        return __import__(name, globals(), None, (), 0)\n")
    assert function_imports(source) == ["handler", "Layers.get"]


def test_layers_are_resolved_by_one_function():
    """cli's handlers and serialize's readers resolve their layers through
    serialize._layer, which makes the one relative import."""
    assert function_imports(
        (PACKAGE / "cli.py").read_text(encoding="utf-8")) == []
    assert function_imports(
        (PACKAGE / "serialize.py").read_text(encoding="utf-8")) == [
        "_layer"]


@pytest.mark.parametrize("name", ["serialize.py", "sequences.py",
                                  "cohomology.py"])
def test_document_layers_load_no_fan_or_linear_algebra(name):
    assert not module_imports(name)[1] & {"fans", "linalg"}


def load_bench_tracing():
    path = PACKAGE.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_resolves_every_layer():
    tracing = load_bench_tracing()
    sequences = importlib.import_module("bott_towers.sequences")
    modules = [importlib.import_module("bott_towers")]
    modules += [importlib.import_module(f"bott_towers.{name[:-3]}")
                for name in MODULES if not name.startswith("__")]
    before = [dict(vars(module)) for module in modules]
    init = sequences.IntegralSequence.__init__
    undo = tracing.install(tracing.Recorder())
    try:
        for module_name, attr, _ in tracing.LAYERS:
            owner = importlib.import_module(f"bott_towers.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), attr
    finally:
        tracing.uninstall(undo)
    assert [dict(vars(module)) for module in modules] == before
    assert sequences.IntegralSequence.__init__ is init


def orphaned_helpers(sources: dict):
    """(module, name) of each private module-level function or class that
    no module of `sources` (name: source text) reads as a name or an
    attribute outside the lines of its own definition."""
    defined, reads = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name, node.lineno, node.end_lineno)
                    for node in tree.body if isinstance(node, (
                        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.attr, node.lineno))
    return [(module, name) for module, name, first, last in defined
            if not any(used == name and (where != module
                                         or not first <= line <= last)
                       for where, used, line in reads)]


def test_the_orphan_finder_sees_an_unread_helper():
    sources = {"a.py": ("from .b import _shared\n"
                        "def _loop(n):\n    return _loop(n - 1)\n"
                        "class _Kept:\n    pass\n"
                        "def _called():\n    return _shared()\n"
                        "def run():\n    return _called(), _Kept\n"),
               "b.py": ("from .a import _loop\n"
                        "def _shared():\n    return 1\n"
                        "def _by_attribute():\n    return 2\n"
                        "def g(module):\n    return module._by_attribute\n"
                        "def __getattr__(name):\n    return name\n")}
    # recursion and a bare import do not count; a call, an attribute and a
    # read in another module do, and dunder names are not helpers
    assert orphaned_helpers(sources) == [("a.py", "_loop")]


def test_no_private_helper_is_orphaned():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8")
               for name in MODULES}
    assert orphaned_helpers(sources) == []
