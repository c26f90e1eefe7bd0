"""Tests of the benchmark's own accounting and tracing.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402

K89 = ("--set", "k_min=8", "--set", "k_max=9")
# small invocations that still reach the locator, the 2-orbit Newton and
# the 2-thread pool
SMALL = [
    Invocation(("atlas2d", "--set", "p=0,1,0.3", "--set", "n_alpha=3",
                *K89, "--threads", "2"), 6),
    Invocation(("cascade", "--set", "p=0,1,0.3", "--set", "q=0,0,1,1",
                "--set", "alpha=-0.1", *K89), 2),
    Invocation(("resonance", "--set", "s0=-0.4", "--set", "h0=0.02", *K89),
               2),
]


def _geometry_plan(seed):
    return next(workloads.passes(workloads.WORKLOADS["geometry"], seed))


def _traced(plan, out_dir):
    tracer = spans.Tracer()
    runner = run.Runner(out_dir, oracle=False)
    tracer.install()
    try:
        runner.run_pass(plan)
    finally:
        tracer.uninstall()
    return runner, spans.summarize(tracer.spans())


def test_traced_outputs_match_untraced(tmp_path):
    plan = _geometry_plan(3) + SMALL
    out = str(tmp_path / "out")
    plain = run.Runner(out)
    plain.run_pass(plan)
    shadow, stats = _traced(plan, out)
    assert [o.digest for o in shadow.outcomes] == [
        o.digest for o in plain.outcomes
    ]
    assert stats["cli.main.calls"] == len(plan)


def test_counts_repeat_across_traced_runs(tmp_path):
    plan = _geometry_plan(5) + SMALL
    _, first = _traced(plan, str(tmp_path / "a"))
    _, second = _traced(plan, str(tmp_path / "b"))

    def counts(stats):
        return {k: v for k, v in stats.items() if not k.endswith("_s")}

    assert counts(first) == counts(second)
    assert first["orbits.locate_bifurcation.calls"] > 0
    assert first["mapcore.eval_map.points"] > first["mapcore.eval_map.calls"]


def test_failing_cascade_row_is_counted(tmp_path):
    runner = run.Runner(str(tmp_path / "out"))
    failing = Invocation(
        ("cascade", "--set", "p=0,1,0.3", "--set", "q=0,0,1,1",
         "--set", "alpha=-0.1", "--set", "lam=0.45",
         "--set", "k_min=8", "--set", "k_max=14", "--threads", "1"), 7)
    outcome = runner.invoke(failing)
    assert "NewtonDivergedError" in outcome.failed["k=14"]
    runner.run_pass(_geometry_plan(1)[:1])  # the run goes on
    attempted, failed, misses, errors = runner.totals()
    assert attempted == 8
    assert failed == len(outcome.failed) >= 1
    assert misses == 0
    assert errors  # the rows that succeeded were checked


def test_nonzero_exit_fails_all_units(tmp_path):
    runner = run.Runner(str(tmp_path / "out"))
    bad_config = runner.invoke(
        Invocation(("cascade", "--set", "lam=abc"), 7)
    )
    assert len(bad_config.failed) == 7
    assert all("exit 1" in r for r in bad_config.failed.values())
    # an exception escaping main counts as a crashed process
    escaped = runner.invoke(Invocation(("henon", "--set", "M=1.5"), 1))
    assert len(escaped.failed) == 1
    attempted, failed, _, _ = runner.totals()
    assert (attempted, failed) == (8, 8)


def test_counts_depend_on_the_seed_only(monkeypatch):
    geometry = workloads.WORKLOADS["geometry"]
    fast = run.timed_run(geometry, 6, 1.0)
    # a clock that runs fast leaves no time for more than one repeat
    clock = iter(range(10**6))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    slow = run.timed_run(geometry, 6, 1.0)
    assert fast[0].totals()[:2] == slow[0].totals()[:2]
    assert len(slow[1]) == len(slow[0].invocations) + 1
    assert fast[3] == slow[3] == 0


def test_result_line_names_every_metric(capsys):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "geometry", "--seed", "2",
                         "--seconds", "0.5", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
