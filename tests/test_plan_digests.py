"""Smoke tests of ``tools/plan_digests.py`` on one ``geometry`` pass, on
its fixed extra sweep inputs and on its fixed failing inputs."""

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


def _digest_twice(monkeypatch, capsys, tool, plans):
    """The tool's output lines over ``plans``; a second run in the same
    process, which reuses the per-process caches, must print the same."""
    monkeypatch.setattr(tool, "_plans", plans)
    # main puts src and perfbench in front of sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(ROOT)
    runs = []
    for _ in range(2):
        assert tool.main(["src"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[1] == runs[0]
    return runs[0].splitlines()


def test_one_geometry_pass_digests_the_same_twice(monkeypatch, capsys):
    def one_pass():
        import workloads

        workload = workloads.WORKLOADS["geometry"]
        yield 301, "geometry", workloads.plan(workload, 301, 1)

    lines = _digest_twice(monkeypatch, capsys, _tool(), one_pass)
    assert len(lines) == 10
    assert all(line.split()[4] == "0" for line in lines)


def test_extra_sweep_inputs_digest_the_same_twice(monkeypatch, capsys):
    tool = _tool()
    lines = _digest_twice(monkeypatch, capsys, tool,
                          lambda: iter([tool._extra_plan()]))
    assert [line.split()[:5] for line in lines] == [
        ["-", "extra", str(i), argv[0], "0"]
        for i, argv in enumerate(tool.EXTRA)
    ]
    assert {argv[0] for argv in tool.EXTRA} == {"cascade", "atlas2d",
                                                "resonance"}


def test_failing_inputs_digest_the_same_twice(monkeypatch, capsys):
    tool = _tool()
    lines = _digest_twice(monkeypatch, capsys, tool,
                          lambda: iter([tool._failing_plan()]))
    assert [line.split()[:5] for line in lines] == [
        ["-", "failing", str(i), argv[0], rc]
        for i, (argv, rc) in enumerate(zip(tool.FAILING, "1111" + "2" * 7,
                                           strict=True))
    ]
