"""Count the physical and code lines of the Python files under a directory.

Usage: python tools/src_lines.py [DIR]    (default: src/bott_towers)

A code line holds at least one token that is not a comment, a newline or
indentation, and that is not part of a module, class or function docstring.
Blank lines, comment lines and docstrings are physical lines only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "bott_towers"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The line numbers covered by docstrings in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str):
    """(physical lines, code lines) of one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else DEFAULT
    physical = code = 0
    for path in sorted(root.rglob("*.py")):
        p, c = count(path.read_text(encoding="utf-8"))
        physical += p
        code += c
    print(f"{root}: {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
