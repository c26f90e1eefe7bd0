"""Count the code lines and tokens of Python files: no docstrings,
comments or blanks.

Usage::

    python tools/code_lines.py src

prints one line per module (``path lines tokens``, sorted by path) and a
last line ``total lines tokens``.  Each argument is a file or a directory
searched for ``*.py``.  A code token is a token other than a comment,
an indentation or a line break that does not start on a line of a
docstring: the string that opens a module, class or function body.  A
line counts when a code token starts on it or spans it.  A call spread over three lines
counts three lines, and as many tokens as on one line, so the token count
does not change when code is only reformatted.
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


def code_counts(source: str) -> tuple:
    """The numbers of code lines and code tokens of the Python source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines, tokens = set(), 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start[0] not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
            tokens += 1
    return len(lines - docstrings), tokens


def _files(args):
    for arg in map(Path, args):
        yield from sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_lines = total_tokens = 0
    for path in _files(argv):
        lines, tokens = code_counts(path.read_text())
        total_lines += lines
        total_tokens += tokens
        print(f"{path} {lines} {tokens}")
    print(f"total {total_lines} {total_tokens}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
