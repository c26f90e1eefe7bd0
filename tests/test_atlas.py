"""Cascade, strip-atlas, and resonance-certificate orchestration."""

import math
import sys

import numpy as np
import pytest

from homatlas import returnmap
from homatlas.atlas import (
    _cascade_row,
    boundary_slope,
    certify_global_resonance,
    pairwise_intersections,
    run_cascade,
    run_strip_atlas,
)
from homatlas.exceptions import ResonanceWindowError
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    build_family,
    tune_to,
)
from homatlas.orbits import locate_bifurcation
from homatlas.rescale import build_frame


def _exact_family(lam=0.5):
    return build_family(LocalMapParams(lam), HenonLikeRecipe())


def _s0_family(s0, lam=0.5):
    # outgoing quadratic jet sets s0 = -p2^2 while alpha stays 0
    recipe = HenonLikeRecipe(p=(0.0, 1.0, math.sqrt(-s0)))
    return build_family(LocalMapParams(lam), recipe)


def test_cascade_exact_family_rows():
    family = _exact_family()
    result = run_cascade(family, (8, 10))
    assert result.lam == 0.5
    assert abs(result.alpha) < 1e-9
    assert abs(result.s0) < 1e-9
    assert [row.k for row in result.rows] == [8, 10]
    for row in result.rows:
        lam2k = 0.5 ** (2 * row.k)
        assert row.error is None
        assert abs(row.mu_plus) <= 1e-8 * lam2k
        assert abs(row.mu_minus + lam2k) <= 1e-8 * lam2k
        assert row.interval == tuple(sorted((row.mu_plus, row.mu_minus)))
        assert row.monotone
        # flags sit at M = 1/2, 5/8, 3/4, i.e. mu = -M lam^(2k)
        tags = [f.tag for f in row.flags]
        assert tags == ["resonance-1:4", "twistless", "resonance-1:3"]
        for flag, m_expected in zip(row.flags, (0.5, 0.625, 0.75)):
            assert abs(flag.mu / lam2k + m_expected) < 1e-9
        assert len(row.phi_curve) == 25
        mu_mid, phi_mid = row.phi_curve[12]
        assert abs(mu_mid / lam2k + 0.5) < 1e-9
        assert abs(phi_mid - math.pi / 2.0) < 1e-9


def test_cascade_disjoint_intervals_and_width_ratio():
    base = _exact_family()
    family = tune_to(base, alpha_target=-0.1)
    result = run_cascade(family, range(10, 15))
    rows = result.rows
    assert all(row.error is None for row in rows)
    for r1 in rows:
        for r2 in rows:
            if r1.k >= r2.k:
                continue
            lo1, hi1 = r1.interval
            lo2, hi2 = r2.interval
            assert hi2 < lo1 or hi1 < lo2
    widths = {row.k: row.interval[1] - row.interval[0] for row in rows}
    for k in (12, 13):
        ratio = widths[k + 1] / widths[k]
        assert abs(ratio / 0.25 - 1.0) < 0.05
    # width against the leading prediction lam^(2k)/|d|
    for k in (12, 13, 14):
        assert abs(widths[k] / 0.5 ** (2 * k) - 1.0) < 0.10
    for row in rows:
        assert row.monotone


def test_cascade_partial_failure_flagged():
    family = _exact_family()
    result = run_cascade(family, (3, 10))
    bad, good = result.rows
    assert bad.k == 3
    assert bad.error is not None
    assert bad.interval is None
    assert good.error is None


def test_strip_atlas_exact_family():
    template = _exact_family()
    atlas = run_strip_atlas(template, (8, 9), n_alpha=9)
    assert atlas.k_values == (8, 9)
    assert len(atlas.alphas) == 9
    assert atlas.alphas[0] == -0.05 and atlas.alphas[-1] == 0.05
    assert atlas.failures == ()
    for band in atlas.bands:
        lam2k = 0.5 ** (2 * band.k)
        assert all(m is not None for m in band.mu_plus)
        assert all(m is not None for m in band.mu_minus)
        # boundary gap stays at the interval width lam^(2k)/|d|
        for up, dn in zip(band.mu_plus, band.mu_minus):
            assert abs((up - dn) / lam2k - 1.0) < 1e-6
    # leading slope of each boundary is -lam^k * y_minus
    for k in (8, 9):
        for kind in ("plus", "minus"):
            slope = boundary_slope(atlas, k, kind)
            assert abs(slope + 0.5**k) < 1e-9 * 0.5**k + 1e-12
    # strips cross mu = 0 near alpha = 0 and overlap there
    assert atlas.axis_crossings == ((8, True), (9, True))
    assert atlas.intersections == ((8, 9, True),)
    # away from alpha = 0 the strips separate
    assert pairwise_intersections(atlas, alpha_min=10.0 * 0.5**8) == (
        (8, 9, False),
    )


def test_strip_atlas_flags_cell_failures():
    template = _exact_family()
    atlas = run_strip_atlas(template, (3, 8), n_alpha=5)
    (bad,) = [b for b in atlas.bands if b.k == 3]
    assert all(m is None for m in bad.mu_plus)
    notes = [f[3] for f in atlas.failures if f[0] == 3]
    assert notes == ["plus: StripWindowError; minus: StripWindowError"] * 5
    assert dict(atlas.axis_crossings)[3] is False
    assert dict(atlas.axis_crossings)[8] is True
    assert atlas.intersections == ((3, 8, False),)


def test_certificate_certified_s0_minus_04():
    family = _s0_family(-0.4)
    cert = certify_global_resonance(family, range(8, 13))
    assert cert.verdict == "certified"
    assert cert.flags == ()
    assert cert.nesting == "nested"
    assert abs(cert.s0 + 0.4) < 1e-7
    for rec in cert.records:
        assert rec.failure is None
        assert rec.margin > 0.0
        assert rec.limit_error <= 6.0 * rec.k * 0.5**rec.k
    # error against the limit value shrinks along k
    errs = [rec.limit_error for rec in cert.records]
    assert errs[-1] < errs[0]
    # sub-range certification follows from the full range
    sub = certify_global_resonance(family, (10, 11))
    assert sub.verdict == "certified"


def test_certificate_flags_exceptional_values():
    expected = {
        -0.5: "limit-resonance-1:4",
        -0.625: "limit-twistless",
        -0.75: "limit-resonance-1:3",
        -math.sqrt(0.5): "limit-exceptional-candidate",
    }
    for s0, tag in expected.items():
        cert = certify_global_resonance(_s0_family(s0), (8, 10))
        assert cert.verdict == "withheld"
        assert cert.flags == (tag,)
        for rec in cert.records:
            assert rec.failure is None


def test_certificate_window_error():
    with pytest.raises(ResonanceWindowError):
        certify_global_resonance(_exact_family(), (8, 10))
    with pytest.raises(ResonanceWindowError):
        certify_global_resonance(_s0_family(-1.2), (8, 10))


def test_certificate_incomplete_on_solver_failure():
    family = _s0_family(-0.4)
    cert = certify_global_resonance(family, (3, 10))
    assert cert.verdict == "incomplete"
    assert cert.nesting == "incomplete"
    assert cert.records[0].failure is not None
    assert cert.records[1].failure is None


def _count_window_checks(monkeypatch):
    """Patch a counter onto check_window under every name that a homatlas
    module holds it by; returns the list that gets one entry per call."""
    calls = []
    original = returnmap.check_window

    def counted(family, k):
        calls.append(k)
        original(family, k)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "homatlas":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_sweep_unit_checks_its_window_once(monkeypatch):
    # the mu-independent part of the rescaled map, window check included,
    # is built once per unit, not once per residual of its solves
    family = tune_to(_s0_family(-0.4), alpha_target=-0.02)
    calls = _count_window_checks(monkeypatch)
    for kind in ("plus", "minus"):
        calls.clear()
        locate_bifurcation(build_frame(family, 9), kind)
        assert calls == [9]
    calls.clear()
    row = _cascade_row(family, 9)
    assert row.error is None and len(row.phi_curve) == 25
    assert len(row.flags) == 3
    assert calls == [9]
    calls.clear()
    atlas = run_strip_atlas(family, (8, 9), n_alpha=2)
    assert atlas.failures == ()
    assert calls == [8, 8, 9, 9]
