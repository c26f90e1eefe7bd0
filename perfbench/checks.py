"""Oracle and determinism checks on one invocation's output directory.

Each check re-derives the acceptance-suite condition for its subcommand
from ``result.json`` and returns which sweep units failed and the oracle
errors as multiples of their acceptance tolerance.  A unit fails when the
program reports an error for it ("reported"), or when its output misses
an oracle ("miss": a wrong answer given as if it were right).  A nonzero
exit fails every unit of the invocation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    units: int
    failed: dict = field(default_factory=dict)  # unit label -> reason
    errors: list = field(default_factory=list)  # error / tolerance
    misses: int = 0
    digest: str = ""

    def fail(self, label, reason, miss=False):
        if label not in self.failed:
            self.failed[label] = reason
        self.misses += int(miss)

    def fail_all(self, reason, miss=False):
        self.failed = {f"unit{i}": reason for i in range(self.units)}
        self.misses += int(miss)

    def oracle(self, label, error, tolerance, what):
        """Record error/tolerance; over 1 is a miss of that unit."""
        ratio = abs(error) / tolerance
        if not math.isfinite(ratio) or ratio > 1.0:
            self.fail(label, f"{what} {ratio:.3g}x tolerance", miss=True)
        else:
            self.errors.append(ratio)

    def require(self, label, ok, what):
        if not ok:
            self.fail(label, what, miss=True)


def read_outputs(out_dir):
    """Parsed result.json (or None) and a digest of every output file.

    The digest covers result.json without ``wall_clock_s`` and the echoed
    ``output.dir``, and the CSV, SVG and error files byte for byte.
    """
    h = hashlib.sha256()
    env = None
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "result.json":
            env = json.loads(data)
            stripped = dict(env, wall_clock_s=None)
            stripped["config"] = dict(env["config"])
            stripped["config"]["output"] = dict(
                env["config"]["output"], dir=None
            )
            data = json.dumps(stripped, indent=2, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return env, h.hexdigest()


def evaluate(inv, rc, out_dir, oracle=True, families=None):
    """Outcome of one invocation: failed units, oracle errors, digest."""
    env, digest = read_outputs(out_dir)
    out = Outcome(units=inv.units, digest=digest)
    if rc != 0 or env is None:
        out.fail_all(f"exit {rc}")
        return out
    if oracle:
        try:
            _CHECKS[inv.subcommand](env, inv, out, families)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            out.fail_all(f"malformed result.json: {exc!r}", miss=True)
    return out


# ------------------------------------------------------------- cascade


class FamilyCache:
    """Families rebuilt from an invocation's echoed config, for oracles
    that need the tuned family (acceptance 4 compares against mu_from_m)."""

    def __init__(self):
        self._cache = {}

    def get(self, env):
        from homatlas.cli import family_from_config

        fam_cfg = env["config"]["family"]
        key = json.dumps(fam_cfg, sort_keys=True)
        if key not in self._cache:
            self._cache[key] = family_from_config(fam_cfg)
        return self._cache[key]


def _check_cascade(env, inv, out, families):
    from homatlas.rescale import mu_from_m

    payload = env["payload"]
    lam = payload["lam"]
    family = families.get(env)
    k_max = env["config"]["experiment"]["k_max"]
    good = {}
    for row in payload["rows"]:
        label = f"k={row['k']}"
        if row["error"] is not None:
            out.fail(label, row["error"])
            continue
        k = row["k"]
        dev = max(
            abs(row["mu_plus"] - mu_from_m(family, k, 0.0)),
            abs(row["mu_minus"] - mu_from_m(family, k, 1.0)),
        ) / abs(lam) ** (2 * k)
        out.oracle(label, dev / (k * abs(lam) ** k), 0.2, "C")
        out.require(label, row["monotone"], "phase curve not monotone")
        tags = tuple(f["tag"] for f in row["flags"])
        out.require(
            label,
            tags == ("resonance-1:4", "twistless", "resonance-1:3"),
            f"resonance flags {tags}",
        )
        good[k] = (dev, abs(row["mu_minus"] - row["mu_plus"]), row["interval"])
    for k, (dev, width, _) in good.items():
        if k - 1 in good:
            out.require(f"k={k}", dev <= good[k - 1][0] * 1.01,
                        "deviation grows with k")
            if k >= k_max - 1:
                ratio = width / good[k - 1][1]
                out.oracle(f"k={k}", ratio / lam**2 - 1.0, 0.05,
                           "width ratio")
    spans = sorted((v[2][0], v[2][1], k) for k, v in good.items())
    for (lo1, hi1, k1), (lo2, hi2, k2) in zip(spans, spans[1:]):
        if lo2 <= hi1:
            out.require(f"k={k1}", False, f"interval overlaps k={k2}")
            out.require(f"k={k2}", False, f"interval overlaps k={k1}")


def _check_resonance(env, inv, out, families):
    payload = env["payload"]
    lam = abs(env["config"]["family"]["lam"])
    all_found = True
    for rec in payload["records"]:
        label = f"k={rec['k']}"
        if rec["failure"] is not None:
            out.fail(label, rec["failure"])
            all_found = False
            continue
        c = rec["limit_error"] / (rec["k"] * lam ** rec["k"])
        out.oracle(label, c, 0.5, "C")
    if all_found and payload["verdict"] != "certified":
        for rec in payload["records"]:
            out.require(f"k={rec['k']}", False,
                        f"verdict {payload['verdict']}")


# --------------------------------------------------------------- atlas


def _overlap(alphas, b1, b2, alpha_min):
    for i, alpha in enumerate(alphas):
        if abs(alpha) < alpha_min:
            continue
        spans = []
        for band in (b1, b2):
            a, b = band["mu_plus"][i], band["mu_minus"][i]
            if a is None or b is None:
                break
            spans.append((min(a, b), max(a, b)))
        else:
            if spans[0][0] <= spans[1][1] and spans[1][0] <= spans[0][1]:
                return True
    return False


def _check_atlas(env, inv, out, families):
    payload = env["payload"]
    lam = env["config"]["family"]["lam"]
    k_min = env["config"]["experiment"]["k_min"]
    alphas = payload["alphas"]
    bands = payload["bands"]
    for k, alpha, stage, note in payload["failures"]:
        for band in bands:
            if k is None or band["k"] == k:
                out.fail(f"k={band['k']},alpha={alpha!r}", f"{stage}: {note}")

    def band_miss(band, what):
        for alpha in alphas:
            out.require(f"k={band['k']},alpha={alpha!r}", False, what)

    crossings = dict(payload["axis_crossings"])
    for band in bands:
        k = band["k"]
        for kind in ("plus", "minus"):
            pts = [(a, m) for a, m in zip(alphas, band[f"mu_{kind}"])
                   if m is not None]
            if len(pts) < 2:
                band_miss(band, f"{kind} border has < 2 points")
                continue
            arr = np.array(pts)
            slope = float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])
            target = -(lam**k)
            ratio = abs(slope / target - 1.0) / 0.05
            if ratio > 1.0:
                band_miss(band, f"{kind} slope {ratio:.3g}x tolerance")
            else:
                out.errors.append(ratio)
        if not crossings.get(k, False):
            band_miss(band, "no mu=0 crossing")
    alpha_min = 10.0 * abs(lam) ** k_min
    for i, b1 in enumerate(bands):
        for b2 in bands[i + 1:]:
            if _overlap(alphas, b1, b2, alpha_min):
                band_miss(b1, f"overlaps k={b2['k']} beyond 10 lam^{k_min}")
                band_miss(b2, f"overlaps k={b1['k']} beyond 10 lam^{k_min}")
            if not _overlap(alphas, b1, b2, 0.0):
                band_miss(b1, f"misses k={b2['k']} near alpha=0")
                band_miss(b2, f"misses k={b1['k']} near alpha=0")


# ------------------------------------------------------------ geometry

_LIMIT_ROOTS = {
    "fixed-point-birth": 0.0,
    "period-doubling": 1.0,
    "resonance-1:4": 0.5,
    "resonance-1:3": 0.75,
}


def _check_henon(env, inv, out, families):
    payload = env["payload"]
    values = payload["bifurcation_values"]
    err = max(abs(values[name] - m) for name, m in _LIMIT_ROOTS.items())
    out.oracle("run", err, 1e-9, "limit-map root")
    out.oracle("run", values["twistless"] - 0.625, 1e-6, "twistless value")
    out.require("run", payload["horseshoe"]["certified"] is True,
                "horseshoe not certified")
    # B1 changes sign at the twistless value
    m = payload["M"]
    if abs(m - 0.625) > 1e-6:
        out.require("run", (payload["b1_at_M"] > 0) == (m > 0.625),
                    "B1 sign on the wrong side of the twistless value")


def _check_family(env, inv, out, families):
    t = env["payload"]["taylor"]
    out.oracle("run", t["b"] * t["c"] - 1.0, 1e-8, "bc - 1")
    out.oracle("run", 2 * t["a"] * t["d"] - t["b"] * t["f11"]
               - 2 * t["e02"] * t["c"], 1e-8, "determinant identity")


def _check_cross_form(env, inv, out, families):
    payload = env["payload"]
    sup = payload["sup_normalized"]
    out.oracle("run", max(sup), 2.0, "normalized sup residual")
    out.require("run", sup[-1] <= max(sup[0], 1e-9), "residual grows with k")
    out.oracle("run", payload["beta1_fitted"] - inv.expect["beta"], 0.05,
               "fitted beta1")


_CLASSIFY_COUNTS = {
    "empty": lambda k: 0,
    "regular": lambda k: 2,
    "parity-alternating": lambda k: 2 if k % 2 == 0 else 0,
    "alpha-negative-horseshoes": lambda k: 2,
    "alpha-positive-trivial": lambda k: 0,
}


def _check_classify(env, inv, out, families):
    payload = env["payload"]
    tag = inv.expect["tag"]
    if payload["tag"] == "inconclusive":
        out.fail("run", "classify reported inconclusive")
        return
    out.require("run", payload["tag"] == tag,
                f"tag {payload['tag']} instead of {tag}")
    expect = _CLASSIFY_COUNTS[tag]
    for k, count in payload["evidence"].items():
        out.require("run", count == expect(int(k)),
                    f"{count} components at k={k}")


def _check_rescale(env, inv, out, families):
    payload = env["payload"]
    norm = payload["normalized"]
    out.require("run", payload["bounded"], "normalized residual unbounded")
    out.oracle("run", max(norm), 10.0, "normalized residual")
    out.require("run", norm[-1] <= norm[0], "normalized residual grows")


_CHECKS = {
    "cascade": _check_cascade,
    "resonance": _check_resonance,
    "atlas2d": _check_atlas,
    "henon": _check_henon,
    "family-check": _check_family,
    "cross-form": _check_cross_form,
    "classify": _check_classify,
    "rescale-verify": _check_rescale,
}
