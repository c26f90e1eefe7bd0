"""Span recording around homatlas's public functions, for the traced run.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds
the wrapper in every ``homatlas.*`` module attribute that holds the same
function object (modules import these with ``from .x import y``, so
patching the defining module alone would miss most calls).  A wrapper
records one span per call: id, parent id, name, start, end, the number
of points for batched functions, and whether the call raised one of the
retry-driving errors.  Spans stay in memory, one buffer per thread, until
the run ends.  Wrappers pass arguments, return values and exceptions
through unchanged, so traced outputs match untraced ones byte for byte.

A span's parent is the innermost open span of its own thread.  Pool
worker threads start with an empty stack; their outermost spans are
attributed to the innermost open span of the installing thread, which is
the thread that submitted the work because the benchmark runs one
invocation at a time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "mapcore": ("eval_map", "jacobian"),
    "returnmap": ("build_return_map", "solve_y0", "t0_pow_closed",
                  "t0_pow_jacobian", "classify_horseshoe", "in_sigma0"),
    "rescale": ("eval_rescaled", "rescaled_jacobian", "build_chain",
                "mu_from_m", "convergence_report"),
    "orbits": ("locate_bifurcation", "two_orbit_trace", "find_two_periodic"),
    "family": ("build_family", "tune_to", "extract_taylor"),
    "henon": ("bifurcation_values", "birkhoff_b1"),
    "atlas": ("run_cascade", "run_strip_atlas", "certify_global_resonance"),
    "config": ("load_config",),
    "cli": ("family_from_config", "main"),
    "svgplot": ("line_chart", "save_svg"),
}


def _size(x):
    return getattr(x, "size", 1)


# point count of a batched call, from its positional arguments
POINTS = {
    "mapcore.eval_map": lambda args: _size(args[1][0]),
    "returnmap.t0_pow_closed": lambda args: _size(args[1][0]),
    "returnmap.in_sigma0": lambda args: _size(args[2]),
}

LOCATOR = "orbits.locate_bifurcation"


class Tracer:
    def __init__(self):
        from homatlas.exceptions import CrossFormSolveError, EscapeError

        self._counted = (EscapeError, CrossFormSolveError)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._ids = itertools.count(1)
        self._names = []
        self._patches = []
        self._home_stack = None

    def _thread_state(self):
        stack, buf = [], []
        self._local.stack, self._local.buf = stack, buf
        with self._lock:
            self._buffers.append(buf)
        return stack, buf

    def _wrap(self, fn, name):
        name_id = len(self._names)
        self._names.append(name)
        points = POINTS.get(name)
        local, ids, clock = self._local, self._ids, time.perf_counter
        counted = self._counted

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            try:
                stack, buf = local.stack, local.buf
            except AttributeError:
                stack, buf = self._thread_state()
            if stack:
                parent = stack[-1]
            elif self._home_stack is stack:
                parent = 0
            else:
                try:
                    parent = self._home_stack[-1]
                except IndexError:
                    parent = 0
            sid = next(ids)
            n = points(args) if points is not None else 0
            raised = 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except counted:
                raised = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.append((sid, parent, name_id, t0, t1, n, raised))

        return shim

    def install(self):
        self._home_stack = self._thread_state()[0]
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "homatlas" or name.startswith("homatlas.")
        ]
        for layer, funcs in LAYERS.items():
            mod = importlib.import_module(f"homatlas.{layer}")
            for func in funcs:
                original = getattr(mod, func)
                shim = self._wrap(original, f"{layer}.{func}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, shim)
                            self._patches.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def spans(self):
        """All spans sorted by id (a parent's id precedes its children's),
        each as (id, parent id, thread index, name, start, end, points,
        raised).  Empties the per-thread buffers."""
        out = []
        for t, buf in enumerate(self._buffers):
            out.extend(
                (sid, parent, t, self._names[nid], t0, t1, n, raised)
                for sid, parent, nid, t0, t1, n, raised in buf
            )
            buf.clear()
        out.sort()
        return out

    def write(self, path, spans):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tname\tstart\tend\tpoints\traised\n")
            for s in spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans):
    """Per-function calls, points, raised, self and total time, plus the
    locator's work ratios.  total_s is the wall time covered by a
    function's calls (their union); self_s sums each call's duration less
    the part of it covered by its child spans."""
    children = defaultdict(list)
    name_of = {}
    for sid, parent, _, name, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
        name_of[sid] = name
    stats = {
        f"{layer}.{func}": {"calls": 0, "points": 0, "raised": 0,
                            "self_s": 0.0, "intervals": []}
        for layer, funcs in LAYERS.items() for func in funcs
    }
    under_locator = {0: False}
    beneath = defaultdict(int)
    for sid, parent, _, name, t0, t1, n, raised in spans:
        st = stats[name]
        st["calls"] += 1
        st["points"] += n
        st["raised"] += raised
        st["intervals"].append((t0, t1))
        kids = children.get(sid)
        covered = _union(
            (max(a, t0), min(b, t1)) for a, b in kids
        ) if kids else 0.0
        st["self_s"] += (t1 - t0) - covered
        inside = under_locator.get(parent, False) or name_of.get(parent) == LOCATOR
        under_locator[sid] = inside
        if inside:
            beneath[name] += 1
    out = {}
    for name, st in stats.items():
        for key in ("calls", "points", "raised", "self_s"):
            out[f"{name}.{key}"] = st[key]
        out[f"{name}.total_s"] = _union(st["intervals"])
    calls = stats[LOCATOR]["calls"]
    out[f"{LOCATOR}.evals_per_call"] = (
        beneath["rescale.eval_rescaled"] / calls if calls else 0.0
    )
    out[f"{LOCATOR}.builds_per_call"] = (
        beneath["returnmap.build_return_map"] / calls if calls else 0.0
    )
    for layer, funcs in LAYERS.items():
        out[f"{layer}.self_s"] = sum(out[f"{layer}.{f}.self_s"] for f in funcs)
    return out


def import_breakdown(stderr_text):
    """setup.import.* seconds from ``python -X importtime`` output.

    numpy and homatlas take their cumulative times; scipy sums the
    cumulative times of scipy.optimize and scipy.stats, counting one only
    when it was not first imported inside the other.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        try:
            cum_us = int(cum.strip())
        except ValueError:
            continue  # header line
        depth = len(name) - len(name.lstrip())
        rows.append((name.strip(), cum_us, depth))
    # importtime lists children before their parent, deeper indented
    parent = {}
    open_rows = []
    for i, (_, _, depth) in enumerate(rows):
        while open_rows and rows[open_rows[-1]][2] > depth:
            parent[open_rows.pop()] = i
        open_rows.append(i)
    index = {name: i for i, (name, _, _) in enumerate(rows)}

    def ancestors(i):
        while i in parent:
            i = parent[i]
            yield i

    def cum_s(name):
        return rows[index[name]][1] / 1e6 if name in index else 0.0

    scipy_parts = [index[n] for n in ("scipy.optimize", "scipy.stats")
                   if n in index]
    scipy_s = sum(
        rows[i][1] / 1e6 for i in scipy_parts
        if not any(a in scipy_parts for a in ancestors(i))
    )
    numpy_s = cum_s("numpy")
    return {
        "setup.import.numpy_s": numpy_s,
        "setup.import.scipy_s": scipy_s,
        "setup.import.homatlas_self_s": cum_s("homatlas") - numpy_s - scipy_s,
    }
