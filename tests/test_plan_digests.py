"""Smoke test of ``tools/plan_digests.py`` on one ``geometry`` pass."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "plan_digests", ROOT / "tools" / "plan_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_geometry_pass_digests_the_same_twice(monkeypatch, capsys):
    tool = _tool()

    def one_pass():
        import workloads

        workload = workloads.WORKLOADS["geometry"]
        yield 301, "geometry", workloads.plan(workload, 301, 1)

    monkeypatch.setattr(tool, "_plans", one_pass)
    # main puts src and perfbench in front of sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(ROOT)
    runs = []
    # the second run in the same process reuses the per-process caches
    for _ in range(2):
        assert tool.main(["src"]) == 0
        runs.append(capsys.readouterr().out)
    lines = runs[0].splitlines()
    assert len(lines) == 10
    assert all(line.split()[4] == "0" for line in lines)
    assert runs[1] == runs[0]
