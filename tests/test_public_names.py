"""The package's public names: every ``__all__`` entry of every
``homatlas`` module resolves, the package root re-exports only names
that their modules declare public, and no module imports a sibling's
private name, except from ``mapcore``, the shared core below them all."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import homatlas

MODULES = sorted(m.name for m in pkgutil.iter_modules(homatlas.__path__))


def _public(mod):
    """``__all__``, or without one the names ``import *`` would take."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"homatlas.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"homatlas.{name}.__all__ names {missing}"


def _root_imports():
    """(module, name) for each relative import of homatlas/__init__.py."""
    tree = ast.parse(pathlib.Path(homatlas.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_root_imports_only_public_names():
    imports = _root_imports()
    assert len(imports) > 50
    stray = [
        f"{module}.{name}"
        for module, name in imports
        if name not in _public(importlib.import_module(f"homatlas.{module}"))
    ]
    assert not stray


def test_private_names_are_imported_only_from_mapcore():
    root = pathlib.Path(homatlas.__file__).parent
    stray = [
        f"{path.stem} <- {node.module}.{alias.name}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module != "mapcore"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not stray
