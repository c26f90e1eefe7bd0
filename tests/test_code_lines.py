"""``tools/code_lines.py`` counts code lines and tokens without
docstrings, comments or blanks, every line of a multi-line statement
included."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    return math.fsum([
        x,
        1.0,
    ])
'''


def _tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_snippet_counts_import_def_and_the_four_call_lines():
    assert _tool().code_counts(SNIPPET)[0] == 6


def test_snippet_counts_the_tokens_outside_docstrings_and_comments():
    # import math: 2, def f(x): 6, the call over four lines: 12
    assert _tool().code_counts(SNIPPET)[1] == 20
    assert _tool().code_counts("x = 1\n") == (1, 3)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'a.py'} 6 20", f"{tmp_path / 'b.py'} 1 3",
        "total 7 23"]
