"""homatlas benchmark: seeded sweeps through ``homatlas.cli.main``.

    python3 perfbench/run.py --workload {cascade,atlas,geometry} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program under test is
imported from the checkout's ``src`` directory.  The loop is closed: one
invocation at a time from one process (``atlas`` asks for a 2-thread
pool inside each invocation).  Every output is checked against the
acceptance-suite oracle of its subcommand, and repeated invocations must
give the same outputs byte for byte.

``--trace 0`` runs a fixed plan of passes drawn from the seed, cycles over
it again for the rest of ``--seconds``, and reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` runs a fixed number of passes
(derived from the seed and ``--seconds`` only, so counts repeat exactly)
once untraced and once with span-recording wrappers around the public
functions of each module, and reports the per-layer metrics.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import homatlas; "
    "print(time.perf_counter() - t); print(homatlas.__file__)"
)


class BenchError(Exception):
    pass


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _in_src(path):
    return os.path.abspath(path).startswith(SRC + os.sep)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(n):
    """Wall time of ``import homatlas`` in n fresh interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], capture_output=True,
            text=True, cwd=ROOT, env=_child_env(), timeout=120,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _in_src(lines[1]):
            raise BenchError(f"import homatlas failed: {proc.stderr[-500:]}")
        out.append(float(lines[0]))
    return out


def import_profile():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import homatlas"],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(),
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"import homatlas failed: {proc.stderr[-500:]}")
    return proc.stderr


class Runner:
    """Runs invocations one at a time and accumulates their outcomes."""

    def __init__(self, out_dir, oracle=True):
        self.out_dir = out_dir
        self.oracle = oracle
        self.families = checks.FamilyCache()
        self.latencies = []
        self.outcomes = []
        self.invocations = []

    def invoke(self, inv):
        from homatlas import cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        argv = list(inv.argv) + ["--out", self.out_dir]
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # escaped the CLI: a crashed process
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = 1
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        outcome = checks.evaluate(
            inv, rc, self.out_dir, oracle=self.oracle, families=self.families
        )
        if rc != 0:
            outcome.failed = {
                k: f"{v}: {err.getvalue().strip()[-200:]}"
                for k, v in outcome.failed.items()
            }
        self.outcomes.append(outcome)
        self.invocations.append(inv)
        return outcome

    def run_pass(self, invocations):
        return [self.invoke(inv) for inv in invocations]

    def totals(self):
        attempted = sum(o.units for o in self.outcomes)
        failed = sum(len(o.failed) for o in self.outcomes)
        misses = sum(o.misses for o in self.outcomes)
        errors = [e for o in self.outcomes for e in o.errors]
        return attempted, failed, misses, errors


def timed_run(workload, seed, seconds):
    """A fixed plan of passes, run once, then cycled until the budget ends.

    The plan depends only on the seed and ``--seconds``: every invocation
    in it runs and is checked against its oracle once, so the attempted
    and failed unit counts repeat exactly for a seed however fast the
    machine is.  The loop then runs the plan again from its start, one
    invocation at a time, until the time budget is spent; it makes at
    least one such repeat.  Each repeat's outputs must match the first
    run's byte for byte.
    """
    n_passes = workload.plan_passes(seconds, 1.0)
    # a power of two puts one value of the first parameter in each stratum
    plan = workloads.plan(workload, seed, 1 << (n_passes.bit_length() - 1))
    runner = Runner(os.path.join(WORK, f"{workload.name}-{os.getpid()}"))
    repeat = Runner(runner.out_dir, oracle=False)
    start = time.perf_counter()
    runner.run_pass(plan)
    while True:
        elapsed = time.perf_counter() - start
        done = len(runner.latencies) + len(repeat.latencies)
        # stop at the invocation whose end lands nearest the budget
        if repeat.outcomes and elapsed + elapsed / done / 2.0 >= seconds:
            break
        repeat.invoke(plan[len(repeat.outcomes) % len(plan)])
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    mismatched = {
        i % len(plan) for i, outcome in enumerate(repeat.outcomes)
        if outcome.digest != runner.outcomes[i % len(plan)].digest
    }
    for i in sorted(mismatched):
        runner.outcomes[i].fail_all("outputs differ between repeats",
                                    miss=True)
    latencies = runner.latencies + repeat.latencies
    executed = sum(inv.units for inv in runner.invocations
                   + repeat.invocations)
    return runner, latencies, executed, len(mismatched)


def end_to_end(args):
    workload = workloads.WORKLOADS[args.workload]
    setups = setup_times(SETUP_SAMPLES)
    runner, latencies, executed, mismatched = timed_run(
        workload, args.seed, args.seconds
    )
    attempted, failed, misses, errors = runner.totals()
    busy = sum(latencies)
    values = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "units_per_s": (executed / busy, "units/s", executed),
        "latency_p50_s": (statistics.median(latencies), "s",
                          len(latencies)),
        "pass_frac": (1.0 - failed / attempted, "ratio", attempted),
        "fail_frac": (failed / attempted, "ratio", attempted),
        "oracle_err_frac": (max(errors, default=0.0), "ratio", len(errors)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(runner.invocations)} distinct invocations ({attempted} "
          f"units), {len(latencies)} timed ({executed} units), "
          f"{busy:.2f} s in cli.main")
    for name, (value, unit, n) in values.items():
        print(f"  {name:16s} {value:12.6g} {unit:8s} n={n}")
    _print_failures(runner)
    correct = misses == 0 and mismatched == 0
    return correct, attempted, failed, {k: v[0] for k, v in values.items()}


def _print_failures(runner):
    reasons = collections.Counter(
        f"{runner.invocations[i].subcommand} {reason}"
        for i, o in enumerate(runner.outcomes) for reason in o.failed.values()
    )
    for reason, n in reasons.most_common():
        print(f"  failed units: {n} x {reason}")


def traced(args):
    workload = workloads.WORKLOADS[args.workload]
    # half the budget untraced, half traced
    plan = workloads.plan(
        workload, args.seed, workload.plan_passes(args.seconds, 0.5)
    )
    out_dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    plain = Runner(out_dir)
    Runner(out_dir, oracle=False).invoke(plan[0])  # warm-up
    plain.run_pass(plan)
    tracer = spans.Tracer()
    shadow = Runner(out_dir, oracle=False)
    tracer.install()
    try:
        shadow.run_pass(plan)
    finally:
        tracer.uninstall()
    shutil.rmtree(out_dir, ignore_errors=True)
    mismatched = sum(
        a.digest != b.digest for a, b in zip(plain.outcomes, shadow.outcomes)
    )
    records = tracer.spans()
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(
        WORK, f"spans-{workload.name}-seed{args.seed}.tsv"
    )
    tracer.write(trace_path, records)
    stats = spans.summarize(records)
    stats.update(spans.import_breakdown(import_profile()))
    plain_s, traced_s = sum(plain.latencies), sum(shadow.latencies)
    stats["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    attempted, failed, misses, _ = plain.totals()
    print(f"workload {workload.name} seed {args.seed}: {len(plan)} "
          f"invocations untraced {plain_s:.2f} s, traced {traced_s:.2f} s, "
          f"{len(records)} spans -> {os.path.relpath(trace_path, ROOT)}, "
          f"peak RSS {_peak_rss_mb():.0f} MB")
    _print_failures(plain)
    return misses == 0 and mismatched == 0, attempted, failed, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homatlas", "__init__.py")):
        print(f"no homatlas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import homatlas

    if not _in_src(homatlas.__file__):
        print(f"homatlas imported from {homatlas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        if args.trace:
            correct, attempted, failed, values = traced(args)
            wanted = spec["per_layer"]
        else:
            correct, attempted, failed, values = end_to_end(args)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
