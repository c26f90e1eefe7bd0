"""Digest the outputs of every invocation of the seed-301/302 benchmark plans.

Usage::

    python tools/plan_digests.py SRC_DIR > digests.txt

SRC_DIR is the directory holding the ``homatlas`` package to test, e.g.
``src`` of this checkout or of a second checkout of another commit.  The
script runs every invocation of the ``cascade`` (8 passes), ``atlas`` (4)
and ``geometry`` (128) plans that ``perfbench/run.py --seconds 30`` draws
for seeds 301 and 302, 2616 invocations in all, then the twenty fixed
``EXTRA`` cascade, atlas2d and resonance inputs that those plans do not
reach, and then the eleven fixed ``FAILING`` inputs, each of which ends
in a JSON error with exit 1 or 2, through ``homatlas.cli.main`` in this
process.  It prints one line per invocation, with seed ``-`` and
workload ``extra`` or ``failing`` for the fixed ones::

    seed workload index subcommand exit output-digest stderr-digest

The output digest is ``perfbench/checks.read_outputs``'s: result.json
without ``wall_clock_s`` and ``output.dir``, and every CSV, SVG and error
file byte for byte.  An exception escaping ``main`` shows as
``exc:<type>`` in the exit column.  Two checkouts give byte-identical
outputs when ``diff`` of their digest files is empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (301, 302)
SECONDS = 30.0


def _argvs(*inputs):
    """The argv of each input (subcommand, "key=value ...")."""
    return tuple(
        (subcommand, *[arg for kv in sets.split() for arg in ("--set", kv)])
        for subcommand, sets in inputs
    )


# sweep inputs outside the benchmark plans: Moser terms, the sandwich
# recipe, negative lam, and a k range whose rows or cells fail the strip
# window; for the atlas also borders outside their brackets (eps=3.0), a
# recipe whose every tuning fails, and holes that differ from k to k
# (lam=-0.55 eps=2.0: a tuning hole, and failed cells at every k), and
# every tuning found but every frame failed (k=1..3); for the certificate
# every verdict and record failure that the plans never give: certified,
# withheld (s0=-0.5), a window error at k=3..5, a window error at every
# k (k=1..3), a 2-orbit that collapses or is a saddle, a diverging
# 2-orbit, nesting violated, and mu=0 outside an interval
EXTRA = _argvs(
    ("cascade", "beta=0.5"),
    ("cascade", "beta=0.3 lam=-0.5"),
    ("cascade", "recipe=sandwich"),
    ("cascade", "recipe=sandwich lam=-0.47 beta=1.0"),
    ("cascade", "k_min=0 k_max=1"),
    ("atlas2d", "p=0,1,0.3 beta=1.0 n_alpha=9"),
    ("atlas2d", "p=0,1,0.3 lam=-0.51 beta=0.5 n_alpha=9"),
    ("atlas2d", "p=0,1,0.3 k_min=3 k_max=9 n_alpha=5"),
    ("atlas2d", "p=0,1,0.3 eps=3.0 n_alpha=9"),
    ("atlas2d", "recipe=sandwich n_alpha=5"),
    ("atlas2d", "p=0,1,0.3 lam=-0.55 eps=2.0 k_min=6 k_max=14 n_alpha=9"),
    ("atlas2d", "p=0,1,0.3 k_min=1 k_max=3 n_alpha=3"),
    ("resonance", "s0=-0.4 lam=-0.55 beta=0.5"),
    ("resonance", "s0=-0.5"),
    ("resonance", "s0=-0.375 k_min=3 k_max=9"),
    ("resonance", "s0=-0.4 k_min=1 k_max=3"),
    ("resonance", "s0=-0.8964 q=0,0,1,1.946 lam=-0.630 beta=-0.741"
                  " y_minus=0.874"),
    ("resonance", "recipe=sandwich p1=-0.294 w1=0.131 lam=-0.531"
                  " beta=2.881 y_minus=2.604"),
    ("resonance", "recipe=sandwich p1=-0.530 w1=-0.298 lam=-0.586"
                  " beta=-0.396"),
    ("resonance", "s0=-0.1367 p=0,1,0,-0.169 lam=0.683 beta=-1.119"
                  " y_minus=0.853"),
)


# inputs that each end in a JSON error: config errors (exit 1) for an
# unknown output format, an M outside (0, 1), an unknown recipe and a P
# without its linear term; numerical errors (exit 2) for a k below the
# strip window (k=0, and k=8 at lam=0.99), a k_max past the precision
# floor, a frame that overflows, a resonant Birkhoff coefficient, an s0
# that the fold recipe cannot reach and a recipe without tuning knobs
FAILING = _argvs(
    ("henon", "formats=pdf"),
    ("henon", "M=1.5"),
    ("family-check", "recipe=nope"),
    ("family-check", "p=0,0"),
    ("cross-form", "k_min=0 k_max=2"),
    ("cascade", "k_max=99"),
    ("rescale-verify", "y_minus=1e300 beta=0.5"),
    ("henon", "M=1e-20"),
    ("classify", "lam=0.99"),
    ("resonance", "s0=0.5"),
    ("atlas2d", "recipe=sandwich alpha=0.1"),
)


def _fixed_plan(name, argvs):
    """("-", name, invocations) for fixed inputs."""
    import workloads

    return "-", name, [workloads.Invocation(argv, 1) for argv in argvs]


def _extra_plan():
    return _fixed_plan("extra", EXTRA)


def _failing_plan():
    return _fixed_plan("failing", FAILING)


def _plans():
    """(seed, workload name, invocations) as ``perfbench/run.py`` plans
    them for a ``--seconds 30`` run, then the fixed extra and failing
    inputs."""
    import workloads

    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            n_passes = workload.plan_passes(SECONDS, 1.0)
            # run.py rounds the plan down to a power of two
            n_passes = 1 << (n_passes.bit_length() - 1)
            yield seed, name, workloads.plan(workload, seed, n_passes)
    yield _extra_plan()
    yield _failing_plan()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = os.path.abspath(argv[0])
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import checks
    from homatlas import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"homatlas imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        for seed, name, plan in _plans():
            for i, inv in enumerate(plan):
                shutil.rmtree(out_dir, ignore_errors=True)
                os.makedirs(out_dir)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        rc = str(cli.main(list(inv.argv) + ["--out", out_dir]))
                    except Exception as exc:
                        rc = f"exc:{type(exc).__name__}"
                _, digest = checks.read_outputs(out_dir)
                stderr = err.getvalue().replace(out_dir, "<out>")
                err_digest = hashlib.sha256(stderr.encode()).hexdigest()
                print(seed, name, i, inv.subcommand, rc, digest, err_digest,
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
