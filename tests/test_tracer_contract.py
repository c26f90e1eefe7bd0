"""The benchmark's tracer wraps the functions named in
``perfbench/spans.py`` by name; every one of them must stay importable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("layer", sorted(_layers()))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"homatlas.{layer}")
    for name in _layers()[layer]:
        assert callable(getattr(module, name)), f"homatlas.{layer}.{name}"
