"""Cascade, strip-atlas, and resonance-certificate orchestration."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from homatlas import atlas as atlas_mod
from homatlas import orbits, returnmap
from homatlas.atlas import (
    _M_RANGE,
    _N_PHI,
    CascadeRow,
    CertRecord,
    ResonanceFlag,
    boundary_slope,
    certify_global_resonance,
    pairwise_intersections,
    run_cascade,
    run_strip_atlas,
)
from homatlas.exceptions import (
    BracketError,
    EscapeError,
    HomatlasError,
    NewtonDivergedError,
    ResonanceWindowError,
    ResonantParameterError,
    TangencyError,
)
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    ShearSandwichRecipe,
    build_family,
    tune_to,
)
from homatlas.henon import ELLIPTIC_EVENTS
from homatlas.orbits import (find_two_periodic, locate_bifurcation,
                             two_orbit_trace)
from homatlas.rescale import build_frame, m_from_mu


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
    }
    for s0, tag in expected.items():
        cert = certify_global_resonance(_s0_family(s0), (8, 10))
        assert cert.verdict == "withheld"
        assert cert.flags == (tag,)
        for rec in cert.records:
            assert rec.failure is None


def test_certificate_at_minus_one_over_sqrt2_is_not_withheld():
    # cos(phi) = 1 - sqrt(2) is no resonance of order 4 or less, and the
    # twist b1 is nonzero there (its root sits at s0 = -5/8)
    cert = certify_global_resonance(_s0_family(-math.sqrt(0.5)), (8, 10))
    assert cert.flags == ()
    assert cert.nesting == "nested"
    assert cert.verdict == "certified"
    for rec in cert.records:
        assert abs(rec.cos_phi - (1.0 - math.sqrt(2.0))) < 1e-3


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


def test_certificate_records_a_k_whose_lam_2k_leaves_binary64():
    # m_from_mu raises at k = +-2000; each k still fails by its frame
    cert = certify_global_resonance(_s0_family(-0.4), (2000, 10, -2000))
    assert [rec.failure and rec.failure.split(":")[0]
            for rec in cert.records] == [
        "PrecisionFloorError", None, "StripWindowError"]


def test_sweeps_record_any_homatlas_error(monkeypatch):
    # every HomatlasError of a sweep unit or of a tuning is recorded,
    # not just the solver errors that the units raise today: a locator
    # call with minus lanes raises for all its lanes
    real_lanes = atlas_mod.locate_bifurcation_lanes

    def resonant_minus_lanes(frame, kinds):
        if "minus" in kinds:
            raise ResonantParameterError("blocked")
        return real_lanes(frame, kinds)

    monkeypatch.setattr(atlas_mod, "locate_bifurcation_lanes",
                        resonant_minus_lanes)
    (row,) = run_cascade(_exact_family(), (8,)).rows
    assert row.error == "ResonantParameterError: blocked"
    atlas = run_strip_atlas(_exact_family(), (8,), n_alpha=2)
    assert [f[2:] for f in atlas.failures] == [
        ("locate", "minus: ResonantParameterError")
    ] * 2
    assert all(m is not None for m in atlas.bands[0].mu_plus)
    cert = certify_global_resonance(_s0_family(-0.4), (8,))
    assert cert.intervals == ((8, None, None),)
    assert cert.records[0].failure is None

    # the 2-orbits of all k share one lane call: an error that it raises
    # is the record of every k
    def resonant_orbit_lanes(frame, m, seeds):
        raise ResonantParameterError("blocked")

    monkeypatch.setattr(atlas_mod, "find_two_periodic_lanes",
                        resonant_orbit_lanes)
    cert = certify_global_resonance(_s0_family(-0.4), (3, 8, 9))
    assert [rec.failure for rec in cert.records] == [
        "StripWindowError: strip outside window: k=3 < 4",
        "ResonantParameterError: blocked",
        "ResonantParameterError: blocked",
    ]
    assert cert.verdict == "incomplete"

    def no_tangency(handle, **targets):
        raise TangencyError("degenerate")

    monkeypatch.setattr(atlas_mod, "tune_to", no_tangency)
    atlas = run_strip_atlas(_exact_family(), (8,), n_alpha=2)
    assert atlas.bands[0].mu_plus == (None, None)
    assert [f[::2] for f in atlas.failures[:2]] == [
        (None, "tune"), (None, "tune")
    ]
    assert atlas.failures[0][3] == "TangencyError: degenerate"


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
    (row,) = run_cascade(family, (9,)).rows
    assert row.error is None and len(row.phi_curve) == 25
    assert len(row.flags) == 3
    assert calls == [9]
    calls.clear()
    atlas = run_strip_atlas(family, (8, 9), n_alpha=2)
    assert atlas.failures == ()
    assert calls == [8, 8, 9, 9]


def _count_map_passes(monkeypatch):
    """Patch a counter onto orbits.eval_rescaled; returns the list that
    gets one entry per rescaled-map pass."""
    calls = []
    real = orbits.eval_rescaled

    def counted(rr, p):
        calls.append(None)
        return real(rr, p)

    monkeypatch.setattr(orbits, "eval_rescaled", counted)
    return calls


def test_cascade_row_map_passes(monkeypatch):
    # the seven rows' borders and flags share the map passes of two lane
    # Newtons across k, and their 175 phase-curve points those of one
    # more: 17 rescaled-map passes where one row at a time made 230
    base = build_family(
        LocalMapParams(0.5),
        HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)),
    )
    family = tune_to(base, alpha_target=-0.1)
    calls = _count_map_passes(monkeypatch)
    rows = run_cascade(family, range(8, 15)).rows
    assert all(row.error is None and len(row.phi_curve) == 25
               for row in rows)
    assert len(calls) <= 17


def test_certificate_map_passes(monkeypatch):
    # the borders of all seven k share the map passes of two lane Newtons,
    # and their 2-orbits at mu = 0 those of one more, whose last
    # evaluation also serves the collapse check: 15 rescaled-map passes,
    # where one 2-orbit solve per k made 58
    family = build_family(LocalMapParams(0.5),
                          HenonLikeRecipe(p=(0.0, 1.0, 0.3162)))
    calls = _count_map_passes(monkeypatch)
    cert = certify_global_resonance(family, range(8, 15))
    assert cert.verdict == "certified"
    assert len(calls) <= 15


def _fold_family(lam=0.5, beta=()):
    return build_family(LocalMapParams(lam, beta),
                        HenonLikeRecipe(p=(0.0, 1.0, 0.3)))


def _one_lane_cell(fam, k):
    """(mu_plus, mu_minus, note) of one atlas cell from locate_bifurcation
    on the cell's own float frame, worded as the sweep words its notes."""
    if fam is None:
        return (None, None, "family tuning failed")
    try:
        frame = build_frame(fam, k)
    except HomatlasError as exc:
        name = type(exc).__name__
        return (None, None, f"plus: {name}; minus: {name}")
    mus, notes = [], []
    for kind in ("plus", "minus"):
        try:
            mus.append(locate_bifurcation(frame, kind))
        except HomatlasError as exc:
            mus.append(None)
            notes.append(f"{kind}: {type(exc).__name__}")
    return (*mus, "; ".join(notes) or None)


def _hex(mu):
    return None if mu is None else mu.hex()


def _assert_cells_match_one_lane_solves(template, k_range, **grid):
    """Every cell of run_strip_atlas equals its one-lane solves bit for
    bit, and every failure note is the one-lane wording; returns the
    atlas."""
    atlas = run_strip_atlas(template, k_range, **grid)
    tuned = []
    for a in atlas.alphas:
        try:
            tuned.append(tune_to(template, alpha_target=a))
        except HomatlasError:
            tuned.append(None)
    failures = [f for f in atlas.failures if f[2] == "tune"]
    for band in atlas.bands:
        for i, (a, fam) in enumerate(zip(atlas.alphas, tuned)):
            plus, minus, note = _one_lane_cell(fam, band.k)
            assert _hex(band.mu_plus[i]) == _hex(plus)
            assert _hex(band.mu_minus[i]) == _hex(minus)
            if note is not None:
                failures.append((band.k, a, "locate", note))
    assert list(atlas.failures) == failures
    return atlas


@pytest.mark.parametrize("template, k_range, grid, n_failed", [
    # a benchmark-like fold
    (_fold_family(), range(8, 13), {"n_alpha": 21}, 0),
    # Moser terms, also with a negative multiplier
    (_fold_family(beta=(1.0,)), range(8, 11), {"n_alpha": 9}, 0),
    (_fold_family(-0.51, (0.5,)), range(8, 11), {"n_alpha": 9}, 0),
    # k = 3 lies below the strip window: every frame fails
    (_fold_family(), range(3, 9), {"n_alpha": 5}, 5),
    # the outer columns' borders leave their brackets
    (_fold_family(), range(8, 10), {"eps": 3.0, "n_alpha": 9}, 2),
    # the sandwich recipe exposes no knob: every tuning fails
    (build_family(LocalMapParams(0.5), ShearSandwichRecipe()), (8, 9),
     {"n_alpha": 3}, 9),
])
def test_strip_atlas_cells_match_one_lane_solves(template, k_range, grid,
                                                 n_failed):
    atlas = _assert_cells_match_one_lane_solves(template, k_range, **grid)
    assert len(atlas.failures) == n_failed


def test_strip_atlas_lane_that_escapes_fails_alone(monkeypatch):
    # one lane's every evaluation escapes: the batch raises, each lane
    # reruns alone, and only that lane's cell fails
    template = _fold_family()
    alpha = float(np.linspace(-0.05, 0.05, 5)[3])
    poisoned = tune_to(template, alpha_target=alpha)
    # the first-order base of that cell, unique over the grid
    base = build_frame(poisoned, 9).m1_terms[0]
    real = orbits.eval_rescaled

    def escaping(rr, p):
        if np.any(np.asarray(rr.frame.m1_terms[0]) == base):
            raise EscapeError("forced escape")
        return real(rr, p)

    monkeypatch.setattr(orbits, "eval_rescaled", escaping)
    atlas = _assert_cells_match_one_lane_solves(template, (8, 9), n_alpha=5)
    assert atlas.failures == ((
        9, alpha, "locate",
        "plus: NewtonDivergedError; minus: NewtonDivergedError",
    ),)
    monkeypatch.undo()
    clean = run_strip_atlas(template, (8, 9), n_alpha=5)
    for band, ref in zip(atlas.bands, clean.bands):
        for kind in ("mu_plus", "mu_minus"):
            got = [_hex(mu) for mu in getattr(band, kind)]
            want = [_hex(mu) for mu in getattr(ref, kind)]
            if band.k == 9:
                got[3] = want[3] = None
            assert got == want


def _fold_q_family():
    return build_family(
        LocalMapParams(0.5),
        HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)),
    )


def test_strip_atlas_map_passes(monkeypatch):
    # every (k, column) cell locates each border as a lane of one Newton:
    # 11 rescaled-map passes, where one k at a time made 20 and one solve
    # per cell 164
    calls = _count_map_passes(monkeypatch)
    atlas = run_strip_atlas(_fold_q_family(), (8, 9), n_alpha=9)
    assert atlas.failures == ()
    assert len(calls) <= 11


def test_benchmark_like_strip_atlas_map_passes(monkeypatch):
    # five k over 21 columns take the passes of two Newtons too: 11, where
    # one k at a time made 47
    calls = _count_map_passes(monkeypatch)
    atlas = run_strip_atlas(_fold_q_family(), range(8, 13), n_alpha=21)
    assert atlas.failures == ()
    assert len(calls) <= 11


def test_strip_atlas_whole_call_error_reaches_every_k(monkeypatch):
    # the cells of all k share one locator call per border: an error that
    # the minus call raises notes every cell of every k, and spares the
    # plus borders
    real_lanes = atlas_mod.locate_bifurcation_lanes
    kinds_seen = []

    def resonant_minus_lanes(frame, kinds):
        kinds_seen.append(set(kinds))
        if "minus" in kinds:
            raise ResonantParameterError("blocked")
        return real_lanes(frame, kinds)

    monkeypatch.setattr(atlas_mod, "locate_bifurcation_lanes",
                        resonant_minus_lanes)
    atlas = run_strip_atlas(_exact_family(), (8, 9), n_alpha=3)
    assert kinds_seen == [{"plus"}, {"minus"}]
    assert atlas.failures == tuple(
        (k, a, "locate", "minus: ResonantParameterError")
        for k in (8, 9) for a in atlas.alphas
    )
    monkeypatch.undo()
    clean = run_strip_atlas(_exact_family(), (8, 9), n_alpha=3)
    for band, ref in zip(atlas.bands, clean.bands):
        assert band.mu_minus == (None, None, None)
        assert [_hex(mu) for mu in band.mu_plus] == [
            _hex(mu) for mu in ref.mu_plus]
        assert None not in band.mu_plus


# the cross-k lane families: both recipes, without Moser terms or with
# one, over six |lam| of both signs; each family runs the rows k = 8..14
_CROSS_K_RECIPES = {
    "fold": lambda local: tune_to(
        build_family(local, HenonLikeRecipe(p=(0.0, 1.0, 0.3),
                                            q=(0.0, 0.0, 1.0, 1.0))),
        alpha_target=-0.1,
    ),
    "sandwich": lambda local: build_family(local, ShearSandwichRecipe()),
}
_CROSS_K_LAMS = tuple(sign * lam
                      for lam in (0.45, 0.47, 0.49, 0.51, 0.53, 0.55)
                      for sign in (1.0, -1.0))
_CROSS_K_BETAS = [(), (0.5,), (1.0,)]
# the rows of those families that fail, all with a NewtonDivergedError
_CROSS_K_FAILED_ROWS = {("fold", (1.0,)): 5, ("sandwich", (0.5,)): 5,
                        ("sandwich", (1.0,)): 15}


def _hexed(value):
    """value with every float replaced by its float.hex, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_hexed(v) for v in value)
    return value


def _one_lane_row(family, k):
    """The cascade row of k from one-lane solves on its own float frame
    (``locate_bifurcation``, ``two_orbit_trace``), event after event, in
    the sweep's error order and wording."""
    try:
        frame = build_frame(family, k)
        mu_plus = locate_bifurcation(frame, "plus")
        mu_minus = locate_bifurcation(frame, "minus")
        m_grid = np.linspace(*_M_RANGE, _N_PHI)
        traces = two_orbit_trace(frame, m_grid)
        flags = []
        for tag in ELLIPTIC_EVENTS:
            try:
                mu = locate_bifurcation(frame, tag)
            except BracketError:
                continue
            flags.append(ResonanceFlag(tag, mu))
    except HomatlasError as exc:
        return CascadeRow(k, error=f"{type(exc).__name__}: {exc}")
    phis = np.arccos(np.clip(traces / 2.0, -1.0, 1.0))
    return CascadeRow(
        k=k,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        interval=tuple(sorted((mu_plus, mu_minus))),
        phi_curve=tuple(zip(frame.mu_from_m(m_grid).tolist(),
                            phis.tolist())),
        flags=tuple(flags),
        monotone=bool(np.all(np.diff(traces) < 0.0)),
    )


@pytest.mark.parametrize("beta", _CROSS_K_BETAS)
@pytest.mark.parametrize("recipe", sorted(_CROSS_K_RECIPES))
def test_cascade_lanes_match_one_lane_solves(recipe, beta):
    """Every border, flag and phase point of run_cascade's lanes across
    k, and every row error, is bit for bit that of the one-lane solves
    on the row's own frame, over 84 rows per case."""
    failed = 0
    for lam in _CROSS_K_LAMS:
        family = _CROSS_K_RECIPES[recipe](LocalMapParams(lam, beta))
        rows = run_cascade(family, range(8, 15)).rows
        for row in rows:
            want = _one_lane_row(family, row.k)
            assert (_hexed(dataclasses.astuple(row))
                    == _hexed(dataclasses.astuple(want))), (lam, row.k)
            failed += row.error is not None
    # rows whose phase curve has a grid point without a 2-orbit fail
    # (sandwich with beta 1.0 at lam 0.51, k = 8 and 9, say)
    assert failed == _CROSS_K_FAILED_ROWS.get((recipe, beta), 0)


def _one_lane_record(family, k):
    """The certificate record of k from ``find_two_periodic`` on its own
    float frame, from the limit 2-orbit at mu = 0, in the sweep's
    wording."""
    root = math.sqrt(-family.s0)
    try:
        frame = build_frame(family, k)
        orbit = find_two_periodic(frame, m_from_mu(family, k, 0.0),
                                  (-root, root))
    except HomatlasError as exc:
        return CertRecord(k, failure=f"{type(exc).__name__}: {exc}")
    phase = orbit.stability.phase
    if phase is None:
        return CertRecord(
            k, failure=f"orbit not elliptic: {orbit.stability.tag}")
    cos_phi = math.cos(phase)
    return CertRecord(k, cos_phi=cos_phi, phase=phase,
                      margin=2.0 - abs(2.0 * cos_phi),
                      limit_error=abs(cos_phi - (1.0 + 2.0 * family.s0)))


def _check_certificate_lanes(family, k_range=range(8, 15)):
    """Assert that every interval and record of the certificate over
    k_range is bit for bit that of the one-lane solves on the k's own
    frame; returns the certificate."""
    cert = certify_global_resonance(family, k_range)
    assert [rec.k for rec in cert.records] == list(k_range)
    assert [k for k, _, _ in cert.intervals] == list(k_range)
    for (k, lo, hi), rec in zip(cert.intervals, cert.records):
        try:
            frame = build_frame(family, k)
            want = sorted(locate_bifurcation(frame, kind)
                          for kind in ("plus", "minus"))
        except HomatlasError:
            want = [None, None]
        assert _hexed((lo, hi)) == _hexed(tuple(want)), k
        assert (_hexed(dataclasses.astuple(rec))
                == _hexed(dataclasses.astuple(_one_lane_record(family, k)))
                ), k
    return cert


@pytest.mark.parametrize("beta", _CROSS_K_BETAS)
@pytest.mark.parametrize("recipe", [
    "fold", ShearSandwichRecipe(p1=-0.3),  # s0 = -0.1: inside the window
])
def test_certificate_lanes_match_one_lane_solves(recipe, beta):
    """Every interval and record of the certificate's lanes across k is
    bit for bit that of the one-lane solves on the k's own frame."""
    for lam in _CROSS_K_LAMS:
        local = LocalMapParams(lam, beta)
        family = (_CROSS_K_RECIPES["fold"](local) if recipe == "fold"
                  else build_family(local, recipe))
        _check_certificate_lanes(family)


# certificate families whose 2-orbits fail: one that collapses onto a
# fixed point at k = 9, is a saddle at k = 11 and 13 and diverges at the
# other k, and a sandwich whose every 2-orbit seed escapes
_FAILING_CERTIFICATES = {
    "collapse": (
        lambda: tune_to(
            build_family(LocalMapParams(-0.630, (-0.741,)),
                         HenonLikeRecipe(q=(0.0, 0.0, 1.0, 1.946),
                                         y_minus=0.874)),
            s0_target=-0.8964,
        ),
        {"CollapsedOrbitError: collapsed to fixed point",
         "orbit not elliptic: saddle",
         "NewtonDivergedError: Newton diverged: no descent step"},
    ),
    "diverging": (
        lambda: build_family(LocalMapParams(-0.531, (2.881,)),
                             ShearSandwichRecipe(p1=-0.294, w1=0.131,
                                                 y_minus=2.604)),
        {"NewtonDivergedError: Newton diverged: seed escaped"},
    ),
}


@pytest.mark.parametrize("case", sorted(_FAILING_CERTIFICATES))
def test_failing_certificate_lanes_match_one_lane_solves(case):
    """The failed records of the certificate's 2-orbit lanes carry the
    errors of the one-lane solves, and its other records their values."""
    family, failures = _FAILING_CERTIFICATES[case]
    cert = _check_certificate_lanes(family())
    assert {rec.failure for rec in cert.records} - {None} == failures


def test_cascade_row_reports_its_first_error_in_order(monkeypatch):
    """Each row reports the first failure in the order frame, plus,
    minus, phase curve (lowest M first), flags, where a flag's
    BracketError only drops that flag; a row takes no phase lanes once a
    border failed, and no lanes at all once its frame failed."""
    def diverged(site):
        return NewtonDivergedError(f"at {site}")

    inject = {
        8: {"plus": diverged("plus"), "minus": diverged("minus")},
        9: {"minus": diverged("minus"), 3: diverged("phase")},
        10: {7: diverged("phase 7"), 5: diverged("phase 5"),
             "twistless": diverged("twistless")},
        11: {"resonance-1:4": BracketError("bracket"),
             "twistless": diverged("twistless"),
             "resonance-1:3": diverged("1:3")},
        12: {"resonance-1:4": BracketError("bracket")},
    }
    grid = np.linspace(*_M_RANGE, _N_PHI).tolist()
    lanes = {"locate": [], "trace": []}
    real_locate = atlas_mod.locate_bifurcation_lanes
    real_trace = atlas_mod.two_orbit_trace_lanes

    def locate(frame, kinds):
        lanes["locate"] += frame.k.tolist()
        return [inject.get(k, {}).get(kind, mu) for k, kind, mu in
                zip(frame.k.tolist(), kinds, real_locate(frame, kinds))]

    def trace(frame, m):
        lanes["trace"] += frame.k.tolist()
        return [inject.get(k, {}).get(grid.index(v), t) for k, v, t in
                zip(frame.k.tolist(), m, real_trace(frame, m))]

    monkeypatch.setattr(atlas_mod, "locate_bifurcation_lanes", locate)
    monkeypatch.setattr(atlas_mod, "two_orbit_trace_lanes", trace)
    result = run_cascade(_exact_family(), (3, *range(8, 14)))
    rows = {row.k: row for row in result.rows}
    assert rows[3].error.startswith("StripWindowError")
    assert [rows[k].error for k in range(8, 14)] == [
        "NewtonDivergedError: at plus",
        "NewtonDivergedError: at minus",
        "NewtonDivergedError: at phase 5",
        "NewtonDivergedError: at twistless",
        None,
        None,
    ]
    assert [f.tag for f in rows[12].flags] == ["twistless", "resonance-1:3"]
    assert len(rows[13].flags) == 3
    assert sorted(set(lanes["locate"])) == list(range(8, 14))
    assert lanes["trace"] == [k for k in range(10, 14) for _ in grid]


@pytest.mark.parametrize("k_range", [(8, 8, 9), (9, 8, 9, 8), (1, 2, 3)],
                         ids=["repeated", "repeated-unsorted", "all-failing"])
def test_repeated_and_failing_units_match_one_lane_solves(monkeypatch,
                                                          k_range):
    """A repeated k gets its own row, record and band, each bit for bit
    the one-lane solves on its float frame; a range whose every frame
    fails makes no lane call."""
    calls = []
    for name in ("locate_bifurcation_lanes", "two_orbit_trace_lanes",
                 "find_two_periodic_lanes"):
        def counted(frame, *args, real=getattr(atlas_mod, name)):
            calls.append(frame.k.tolist())
            return real(frame, *args)

        monkeypatch.setattr(atlas_mod, name, counted)
    family = _CROSS_K_RECIPES["fold"](LocalMapParams(0.5))
    rows = run_cascade(family, k_range).rows
    assert [row.k for row in rows] == list(k_range)
    for row in rows:
        assert (_hexed(dataclasses.astuple(row))
                == _hexed(dataclasses.astuple(_one_lane_row(family, row.k))))
    _check_certificate_lanes(family, k_range)
    if min(k_range) < 4:
        assert calls == []
        return
    assert all(row.error is None for row in rows)
    atlas = _assert_cells_match_one_lane_solves(_fold_family(), k_range,
                                                eps=3.0, n_alpha=9)
    assert [band.k for band in atlas.bands] == list(k_range)
    assert len(atlas.failures) == len(k_range)
