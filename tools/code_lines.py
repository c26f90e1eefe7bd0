"""Count the code lines of Python files: no docstrings, comments or blanks.

Usage::

    python tools/code_lines.py src

prints one line per module (``path lines``, sorted by path) and a last
line ``total lines``.  Each argument is a file or a directory searched for
``*.py``.  A line counts when a token other than a comment, an
indentation or a line break starts on it or spans it, unless it belongs
to a docstring: the string that opens a module, class or function body.
A call spread over three lines counts three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """The lines of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(args):
    for arg in map(Path, args):
        yield from sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in _files(argv):
        n = code_lines(path.read_text())
        total += n
        print(f"{path} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
