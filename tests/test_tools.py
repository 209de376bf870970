"""tools/src_lines.py counts physical lines and code lines.

A code line holds a token that is not a comment, a newline or indentation,
outside every module, class and function docstring.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
MODULE = '"""A module docstring."""\n# a comment\n\nx = 1\ny = x + 1\n'
NESTED = '''class A:
    """A class docstring
    on two lines."""

    def f(self):
        """A function docstring."""
        return (1 +  # a trailing comment
                2)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_synthetic_module():
    assert load_tool().count(MODULE) == (5, 2)


def test_directory_total(tmp_path, capsys):
    # NESTED: eight physical lines, code on class, def and both return lines
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(NESTED)
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"{tmp_path}: 13 physical lines, 6 code lines\n")
