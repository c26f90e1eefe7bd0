"""Digest the outputs of every invocation of the seed-301/302 benchmark plans.

Usage::

    python tools/plan_digests.py SRC_DIR > digests.txt

SRC_DIR is the directory holding the ``homatlas`` package to test, e.g.
``src`` of this checkout or of a second checkout of another commit.  The
script runs every invocation of the ``cascade`` (8 passes), ``atlas`` (4)
and ``geometry`` (128) plans that ``perfbench/run.py --seconds 30`` draws
for seeds 301 and 302, 2616 invocations in all, through
``homatlas.cli.main`` in this process, and prints one line per
invocation::

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


def _plans():
    """(seed, workload name, invocations) as ``perfbench/run.py`` plans
    them for a ``--seconds 30`` run."""
    import workloads

    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            n_passes = workload.plan_passes(SECONDS, 1.0)
            # run.py rounds the plan down to a power of two
            n_passes = 1 << (n_passes.bit_length() - 1)
            yield seed, name, workloads.plan(workload, seed, n_passes)


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
