"""Command-line driver.

Each subcommand validates its configuration, runs one experiment, and
writes a versioned JSON envelope plus CSV and SVG files into the output
directory.  CSV and JSON carry raw payload values only; the plots may
rescale axes for readability.  Exit status is 0 on success, 1 on a
configuration error, 2 on a numerical failure, with a machine-readable
error object on stderr in the failure cases.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .atlas import certify_global_resonance, run_cascade, run_strip_atlas
from .config import SUBCOMMANDS, load_config
from .exceptions import (ConfigError, HomatlasError, NonFiniteResultError,
                         PrecisionFloorError, ResonantParameterError,
                         TangencyError)
from .family import RECIPES, LocalMapParams, build_family, tune_to
from .henon import bifurcation_values, birkhoff_b1, horseshoe_certificate
from .rescale import convergence_report
from .returnmap import classify_horseshoe, k_max, validate_cross_form
from .svgplot import Series, line_chart, save_svg

__all__ = ["main", "family_from_config"]

_FORMATS = ("json", "csv", "svg")


def family_from_config(fam: dict):
    """Build (and optionally retune) the family described by a config block."""
    try:
        local = LocalMapParams(fam["lam"], tuple(fam["beta"]))
        name = fam["recipe"]
        if name not in RECIPES:
            raise ConfigError(f"unknown recipe {name!r}")
        cls = RECIPES[name]
        recipe = cls(**{f.name: fam[f.name] for f in dataclasses.fields(cls)})
    except (TypeError, ValueError, TangencyError) as exc:
        # recipe constructors reject a non-quadratic tangency up front
        raise ConfigError(f"bad family parameters: {exc}") from exc
    # the deprecated h0 key is accepted and ignored
    handle = build_family(local, recipe, mu=fam["mu"])
    if fam["alpha"] is not None or fam["s0"] is not None:
        handle = tune_to(
            handle, alpha_target=fam["alpha"], s0_target=fam["s0"]
        )
    return handle


def _k_range(family, exp) -> range:
    """The experiment's k span.  A k_max past the family's precision floor
    (``returnmap.k_max``) is refused here, once, rather than once per row
    or cell of the sweep; the k_min side stays with the per-k window
    checks."""
    floor = k_max(family)
    if exp["k_max"] > floor:
        raise PrecisionFloorError(
            f"k_max={exp['k_max']} puts lam**2k below the binary64 noise "
            f"floor (largest admissible k: {floor})"
        )
    return range(exp["k_min"], exp["k_max"] + 1)


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------- handlers
# Each returns (result, csv rows, svg charts by file name, warnings); the
# result stays a dataclass or dict until _write_outputs converts the whole
# envelope to JSON types.


def _run_henon(cfg):
    exp = cfg.experiment
    warnings = []
    values = bifurcation_values()
    m_req = exp["M"]
    b1_at = birkhoff_b1(m_req)
    scan_m = np.linspace(exp["scan_min"], exp["scan_max"], exp["scan_n"])
    scan_b1 = []
    for m in scan_m:
        try:
            scan_b1.append(birkhoff_b1(float(m)))
        except ResonantParameterError as exc:
            warnings.append(f"scan point M={float(m):.6g} skipped: {exc}")
            scan_b1.append(None)
    m_h = exp["m_horseshoe"]
    certified = horseshoe_certificate(m_h)
    payload = {
        "bifurcation_values": values,
        "M": m_req,
        "b1_at_M": b1_at,
        "b1_scan": {"M": scan_m.tolist(), "b1": scan_b1},
        "horseshoe": {"m": m_h, "certified": certified},
    }
    rows = [["quantity", "label", "value"]]
    for name in sorted(values):
        rows.append(["bifurcation-value", name, _cell(values[name])])
    rows.append(["b1", _cell(m_req), _cell(b1_at)])
    for m, b1 in zip(scan_m.tolist(), scan_b1):
        rows.append(["b1-scan", _cell(m), _cell(b1)])
    rows.append(["horseshoe", _cell(m_h), _cell(certified)])
    chart = line_chart(
        [Series("B1", scan_m.tolist(), scan_b1, marker=True)],
        title="Birkhoff coefficient of the limit map",
        xlabel="M",
        ylabel="B1",
    )
    return payload, rows, {f"{cfg.subcommand}.svg": chart}, warnings


def _run_family_check(cfg):
    family = family_from_config(cfg.family)
    t = family.taylor
    bc_minus_one = t.b * t.c - 1.0
    identity = 2.0 * t.a * t.d - t.b * t.f11 - 2.0 * t.e02 * t.c
    payload = {
        "recipe": cfg.family["recipe"],
        "lam": family.lam,
        "beta1": family.beta1,
        "mu": family.mu,
        "taylor": t,
        "alpha": family.alpha,
        "s0": family.s0,
        "bc_minus_one": bc_minus_one,
        "identity_residual": identity,
        "audit": {
            "unit_product": abs(bc_minus_one) <= 1e-8,
            "determinant_identity": abs(identity) <= 1e-8,
        },
    }
    rows = [["name", "value"]]
    coeffs = _jsonify(t)
    for name in coeffs:
        rows.append([name, _cell(coeffs[name])])
    for name in ("alpha", "s0", "bc_minus_one", "identity_residual"):
        rows.append([name, _cell(payload[name])])
    for name in ("unit_product", "determinant_identity"):
        rows.append([f"audit_{name}", _cell(payload["audit"][name])])
    chart = line_chart(
        [
            Series(
                "jet coefficient",
                list(range(len(coeffs))),
                list(coeffs.values()),
                marker=True,
            )
        ],
        title="Global map jet at the tangency point",
        xlabel="coefficient index",
        ylabel="value",
    )
    return payload, rows, {f"{cfg.subcommand}.svg": chart}, []


def _run_cross_form(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    report = validate_cross_form(family, _k_range(family, exp))
    rows = [["k", "sup_normalized", "slope_per_k"]]
    for k, sup, slope in zip(
        report.k_values, report.sup_normalized, report.slope_per_k
    ):
        rows.append([_cell(k), _cell(sup), _cell(slope)])
    chart = line_chart(
        [
            Series(
                "sup residual / lam^2k",
                list(report.k_values),
                list(report.sup_normalized),
                marker=True,
            )
        ],
        title="Cross-form residual of the saddle power",
        xlabel="k",
        ylabel="normalized residual",
    )
    return report, rows, {f"{cfg.subcommand}.svg": chart}, []


def _run_classify(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    result = classify_horseshoe(
        family, _k_range(family, exp)
    )
    warnings = []
    if not result.agrees:
        warnings.append(
            f"observed tag {result.tag!r} disagrees "
            f"with prediction {result.predicted!r}"
        )
    rows = [["k", "components"]]
    ks = sorted(result.evidence)
    for k in ks:
        rows.append([_cell(k), _cell(result.evidence[k])])
    chart = line_chart(
        [
            Series(
                "component count",
                [float(k) for k in ks],
                [result.evidence[k] for k in ks],
                marker=True,
            )
        ],
        title=f"Invariant-set components per k (tag: {result.tag})",
        xlabel="k",
        ylabel="count",
    )
    return result, rows, {f"{cfg.subcommand}.svg": chart}, warnings


def _run_cascade(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    result = run_cascade(family, _k_range(family, exp))
    warnings = [
        f"k={row.k}: {row.error}" for row in result.rows if row.error
    ]
    rows = [["k", "mu_plus", "mu_minus", "monotone", "flags", "error"]]
    for row in result.rows:
        flag_text = ";".join(
            f"{fl.tag}:{_cell(fl.mu)}" for fl in row.flags
        )
        rows.append(
            [
                _cell(row.k),
                _cell(row.mu_plus),
                _cell(row.mu_minus),
                _cell(row.monotone),
                flag_text,
                _cell(row.error),
            ]
        )
    lam = result.lam
    good = [row for row in result.rows if row.error is None]
    interval_chart = line_chart(
        [
            Series(
                "mu+ / lam^2k",
                [float(row.k) for row in good],
                [row.mu_plus / lam ** (2 * row.k) for row in good],
                marker=True,
            ),
            Series(
                "mu- / lam^2k",
                [float(row.k) for row in good],
                [row.mu_minus / lam ** (2 * row.k) for row in good],
                marker=True,
            ),
        ],
        title="Bifurcation interval endpoints, rescaled",
        xlabel="k",
        ylabel="mu / lam^2k",
    )
    phase_series = [
        Series(
            f"k={row.k}",
            [mu / lam ** (2 * row.k) for mu, _ in row.phi_curve],
            [phi for _, phi in row.phi_curve],
        )
        for row in good
        if row.phi_curve
    ]
    phase_chart = line_chart(
        phase_series,
        title="Elliptic phase along the interval",
        xlabel="mu / lam^2k",
        ylabel="phi",
    )
    svgs = {
        f"{cfg.subcommand}.svg": interval_chart,
        "cascade_phases.svg": phase_chart,
    }
    return result, rows, svgs, warnings


def _run_atlas2d(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    atlas = run_strip_atlas(
        family,
        _k_range(family, exp),
        eps=exp["eps"],
        n_alpha=exp["n_alpha"],
    )
    warnings = [
        f"k={k} alpha={alpha:.6g} {stage}: {note}"
        for k, alpha, stage, note in atlas.failures
    ]
    rows = [["k", "alpha", "mu_plus", "mu_minus"]]
    for band in atlas.bands:
        for alpha, mp, mm in zip(
            atlas.alphas, band.mu_plus, band.mu_minus
        ):
            rows.append(
                [_cell(band.k), _cell(alpha), _cell(mp), _cell(mm)]
            )
    lam = family.lam
    series = []
    for band in atlas.bands:
        scale = lam ** (2 * band.k)
        series.append(
            Series(
                f"k={band.k} mu+",
                list(atlas.alphas),
                [
                    None if v is None else v / scale
                    for v in band.mu_plus
                ],
            )
        )
        series.append(
            Series(
                f"k={band.k} mu-",
                list(atlas.alphas),
                [
                    None if v is None else v / scale
                    for v in band.mu_minus
                ],
            )
        )
    chart = line_chart(
        series,
        title="Strip boundaries over the splitting parameter",
        xlabel="alpha",
        ylabel="mu / lam^2k",
    )
    return atlas, rows, {f"{cfg.subcommand}.svg": chart}, warnings


def _run_resonance(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    cert = certify_global_resonance(
        family, _k_range(family, exp)
    )
    warnings = [f"exceptional value flag: {tag}" for tag in cert.flags]
    for rec in cert.records:
        if rec.failure:
            warnings.append(f"k={rec.k}: {rec.failure}")
    spans = {k: (lo, hi) for k, lo, hi in cert.intervals}
    rows = [
        [
            "k",
            "cos_phi",
            "phase",
            "margin",
            "limit_error",
            "mu_lo",
            "mu_hi",
            "failure",
        ]
    ]
    for rec in cert.records:
        lo, hi = spans.get(rec.k, (None, None))
        rows.append(
            [
                _cell(rec.k),
                _cell(rec.cos_phi),
                _cell(rec.phase),
                _cell(rec.margin),
                _cell(rec.limit_error),
                _cell(lo),
                _cell(hi),
                _cell(rec.failure),
            ]
        )
    limit = 1.0 + 2.0 * cert.s0
    ks = [float(rec.k) for rec in cert.records]
    chart = line_chart(
        [
            Series(
                "cos(phi) at mu=0",
                ks,
                [rec.cos_phi for rec in cert.records],
                marker=True,
            ),
            Series("limit value", [min(ks), max(ks)], [limit, limit]),
        ],
        title=f"Elliptic 2-orbit phase (verdict: {cert.verdict})",
        xlabel="k",
        ylabel="cos(phi)",
    )
    return cert, rows, {f"{cfg.subcommand}.svg": chart}, warnings


def _run_rescale_verify(cfg):
    family = family_from_config(cfg.family)
    exp = cfg.experiment
    report = convergence_report(
        family,
        _k_range(family, exp),
        m=exp["m"],
        grid_n=exp["grid_n"],
    )
    warnings = []
    if not report.bounded:
        warnings.append("normalized residual is not bounded in k")
    if report.slope_in_band is False:
        warnings.append(
            f"log-residual slope {report.log_slope:.4f} outside "
            f"band {report.slope_band}"
        )
    rows = [["k", "sup_residual", "normalized"]]
    for k, sup, norm in zip(
        report.k_values, report.sup_residual, report.normalized
    ):
        rows.append([_cell(k), _cell(sup), _cell(norm)])
    chart = line_chart(
        [
            Series(
                "sup residual",
                list(report.k_values),
                list(report.sup_residual),
                marker=True,
            ),
            Series(
                "sup / (k lam^2k)",
                list(report.k_values),
                list(report.normalized),
                marker=True,
            ),
        ],
        title="Distance to the limit form under rescaling",
        xlabel="k",
        ylabel="residual",
        logy=True,
    )
    return report, rows, {f"{cfg.subcommand}.svg": chart}, warnings


_HANDLERS = {
    "henon": _run_henon,
    "family-check": _run_family_check,
    "cross-form": _run_cross_form,
    "classify": _run_classify,
    "cascade": _run_cascade,
    "atlas2d": _run_atlas2d,
    "resonance": _run_resonance,
    "rescale-verify": _run_rescale_verify,
}


# ------------------------------------------------------------ serialization


def _formats(cfg) -> tuple:
    chosen = tuple(
        part.strip()
        for part in cfg.output["formats"].split(",")
        if part.strip()
    )
    for fmt in chosen:
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}")
    return chosen


def _write_outputs(cfg, payload, rows, svgs, warnings, elapsed):
    """Serialize the result envelope, then write the chosen formats.  A
    non-finite number raises NonFiniteResultError before any file is
    written; an OSError from making the output directory or writing into
    it raises ConfigError."""
    out_dir = cfg.output["dir"]
    formats = _formats(cfg)
    envelope = _jsonify({
        "schema_version": 1,
        "tool": "homatlas",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": {
            "family": cfg.family,
            "experiment": cfg.experiment,
            "output": cfg.output,
        },
        "wall_clock_s": elapsed,
        "warnings": warnings,
        "payload": payload,
    })
    try:
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(f"result not serializable: {exc}") from exc
    try:
        os.makedirs(out_dir, exist_ok=True)
        if "json" in formats:
            path = os.path.join(out_dir, "result.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        if "csv" in formats:
            path = os.path.join(out_dir, f"{cfg.subcommand}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerows(rows)
        if "svg" in formats:
            for name, chart in svgs.items():
                save_svg(os.path.join(out_dir, name), chart)
    except OSError as exc:
        raise ConfigError(f"cannot write output to {out_dir!r}: {exc}") from exc


def _error_obj(subcommand, exc):
    return {
        "schema_version": 1,
        "subcommand": subcommand,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def _report_error(subcommand, exc, out_dir=None):
    obj = _error_obj(subcommand, exc)
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "error.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass


@functools.cache
def _build_parser():
    # built on the first call to main, not on import, and then shared: a
    # parse leaves the parser unchanged, and the append action copies the
    # --set default list before it appends
    parser = argparse.ArgumentParser(
        prog="homatlas",
        description=(
            "Experiments on homoclinic tangencies of area-preserving maps"
        ),
    )
    sub = parser.add_subparsers(dest="command")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; sweeps run sequentially")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(
            args.command,
            path=args.config,
            overrides=args.set,
            out_dir=args.out,
        )
        _formats(cfg)
    except ConfigError as exc:
        _report_error(args.command, exc)
        return 1
    start = time.monotonic()
    try:
        payload, rows, svgs, warnings = _HANDLERS[cfg.subcommand](cfg)
    except ConfigError as exc:
        _report_error(cfg.subcommand, exc)
        return 1
    except HomatlasError as exc:
        _report_error(cfg.subcommand, exc, out_dir=cfg.output["dir"])
        return 2
    elapsed = time.monotonic() - start
    try:
        _write_outputs(cfg, payload, rows, svgs, warnings, elapsed)
    except ConfigError as exc:
        _report_error(cfg.subcommand, exc)
        return 1
    except NonFiniteResultError as exc:
        _report_error(cfg.subcommand, exc, out_dir=cfg.output["dir"])
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
