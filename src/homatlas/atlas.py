"""Sweep orchestration: cascades in mu, two-parameter strip maps in
(mu, alpha), and the global-resonance certificate.

Everything here composes the bordered locator and the 2-orbit solver
over grids, one cell after another in grid order.  Each sweep unit (a
cascade row, an atlas cell, a certificate k) builds its
``rescale.RescaleFrame`` once and hands it to every solve of the unit.
Individual solver failures are recorded as flagged partial results
instead of aborting a whole sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BracketError,
    CollapsedOrbitError,
    CrossFormSolveError,
    EscapeError,
    ExtractionError,
    NewtonDivergedError,
    PrecisionFloorError,
    ResonanceWindowError,
    StripWindowError,
    TangencyError,
    TargetUnreachableError,
)
from .family import FamilyHandle, tune_to
from .mapcore import _locate_trace
from .orbits import (
    _map_at,
    find_two_periodic,
    locate_bifurcation,
    two_orbit_trace,
)
from .rescale import RescaleFrame, build_frame, m_from_mu, mu_from_m

__all__ = [
    "ResonanceFlag",
    "CascadeRow",
    "CascadeResult",
    "StripBand",
    "StripMap2D",
    "CertRecord",
    "ResonanceCertificate",
    "run_cascade",
    "run_strip_atlas",
    "pairwise_intersections",
    "boundary_slope",
    "certify_global_resonance",
]

_SOLVER_ERRORS = (
    BracketError,
    CollapsedOrbitError,
    CrossFormSolveError,
    EscapeError,
    NewtonDivergedError,
    PrecisionFloorError,
    StripWindowError,
    TangencyError,
)

# trace targets of the second-iterate derivative where the rotation
# number passes a low-order resonance: cos(phi) = trace/2 hits 0 at the
# 1:4 resonance, -1/4 at the twistless value, -1/2 at the 1:3 resonance
_TRACE_TARGETS = (
    (0.0, "resonance-1:4"),
    (-0.5, "twistless"),
    (-1.0, "resonance-1:3"),
)
# the M range of a cascade row's phase curve and resonance flags
_M_RANGE = (0.02, 0.98)
_N_PHI = 25
# distance of s0 from an exceptional value that withholds a certificate
_FLAG_TOL = 1e-4


@dataclass(frozen=True)
class ResonanceFlag:
    tag: str
    mu: float


@dataclass(frozen=True)
class CascadeRow:
    k: int
    mu_plus: float | None
    mu_minus: float | None
    interval: tuple | None
    phi_curve: tuple
    flags: tuple
    monotone: bool
    error: str | None = None


@dataclass(frozen=True)
class CascadeResult:
    lam: float
    alpha: float
    s0: float
    rows: tuple


@dataclass(frozen=True)
class StripBand:
    k: int
    mu_plus: tuple
    mu_minus: tuple


@dataclass(frozen=True)
class StripMap2D:
    alphas: tuple
    k_values: tuple
    bands: tuple
    intersections: tuple
    axis_crossings: tuple
    failures: tuple


@dataclass(frozen=True)
class CertRecord:
    k: int
    cos_phi: float | None
    phase: float | None
    margin: float | None
    limit_error: float | None
    failure: str | None = None


@dataclass(frozen=True)
class ResonanceCertificate:
    s0: float
    k_range: tuple
    records: tuple
    intervals: tuple
    nesting: str
    flags: tuple
    verdict: str


def _cascade_row(family: FamilyHandle, k: int) -> CascadeRow:
    try:
        frame = build_frame(family, k)
        mu_plus = locate_bifurcation(frame, "plus")
        mu_minus = locate_bifurcation(frame, "minus")
        m_grid = np.linspace(*_M_RANGE, _N_PHI)
        traces = np.array([two_orbit_trace(frame, float(m)) for m in m_grid])
        mus = np.array([mu_from_m(family, k, float(m)) for m in m_grid])
        phis = np.arccos(np.clip(traces / 2.0, -1.0, 1.0))
        curve = tuple(zip(mus.tolist(), phis.tolist()))
        flags = []
        map_at = _map_at(frame)
        for target, tag in _TRACE_TARGETS:
            try:
                m_star = _locate_trace(map_at, 2, target, _M_RANGE)
            except BracketError:
                continue
            flags.append(ResonanceFlag(tag, mu_from_m(family, k, m_star)))
        return CascadeRow(
            k=k,
            mu_plus=mu_plus,
            mu_minus=mu_minus,
            interval=tuple(sorted((mu_plus, mu_minus))),
            phi_curve=curve,
            flags=tuple(flags),
            monotone=bool(np.all(np.diff(traces) < 0.0)),
        )
    except _SOLVER_ERRORS as exc:
        return CascadeRow(
            k=k,
            mu_plus=None,
            mu_minus=None,
            interval=None,
            phi_curve=(),
            flags=(),
            monotone=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_cascade(family: FamilyHandle, k_range):
    """Bifurcation intervals, phase curves, and resonance flags per k."""
    rows = tuple(_cascade_row(family, int(k)) for k in k_range)
    return CascadeResult(
        lam=family.lam, alpha=family.alpha, s0=family.s0, rows=rows
    )


def _band_interval(band: StripBand, i: int):
    a, b = band.mu_plus[i], band.mu_minus[i]
    if a is None or b is None:
        return None
    return (a, b) if a <= b else (b, a)


def _bands_overlap(alphas, b1, b2, alpha_min):
    for i, alpha in enumerate(alphas):
        if abs(alpha) < alpha_min:
            continue
        s1 = _band_interval(b1, i)
        s2 = _band_interval(b2, i)
        if s1 is None or s2 is None:
            continue
        if s1[0] <= s2[1] and s2[0] <= s1[1]:
            return True
    return False


def _intersections(alphas, bands, alpha_min):
    out = []
    for i, b1 in enumerate(bands):
        for b2 in bands[i + 1:]:
            out.append((b1.k, b2.k, _bands_overlap(alphas, b1, b2, alpha_min)))
    return tuple(out)


def pairwise_intersections(atlas: StripMap2D, alpha_min: float = 0.0):
    """(k1, k2, overlap) over k-pairs, restricted to |alpha| >= alpha_min."""
    return _intersections(atlas.alphas, atlas.bands, alpha_min)


def boundary_slope(atlas: StripMap2D, k: int, kind: str,
                   alpha_min: float = 0.0) -> float:
    """Least-squares slope of the mu(alpha) boundary polyline."""
    (band,) = [b for b in atlas.bands if b.k == k]
    values = band.mu_plus if kind == "plus" else band.mu_minus
    pts = [
        (a, m)
        for a, m in zip(atlas.alphas, values)
        if m is not None and abs(a) >= alpha_min
    ]
    if len(pts) < 2:
        raise ValueError(f"not enough boundary points for k={k} {kind}")
    arr = np.array(pts)
    return float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])


def _atlas_cell(fam, k):
    """(mu_plus, mu_minus, note) of one atlas cell; a failed border is
    None and named in the note."""
    if fam is None:
        return (None, None, "family tuning failed")
    try:
        frame = build_frame(fam, k)
    except _SOLVER_ERRORS as exc:
        name = type(exc).__name__
        return (None, None, f"plus: {name}; minus: {name}")
    mus, notes = [], []
    for kind in ("plus", "minus"):
        try:
            mus.append(locate_bifurcation(frame, kind))
        except _SOLVER_ERRORS as exc:
            mus.append(None)
            notes.append(f"{kind}: {type(exc).__name__}")
    return (*mus, "; ".join(notes) or None)


def run_strip_atlas(family_template: FamilyHandle, k_range,
                    eps: float = 0.05, n_alpha: int = 41) -> StripMap2D:
    """Trace the border curves over an alpha-grid of tuned families.

    The grid is n_alpha points over [-eps, eps].  Each grid column retunes
    the family to the target alpha; each cell locates both borders.  Cell
    failures are flagged and leave holes in the polylines rather than
    aborting the sweep.
    """
    alphas = tuple(float(a) for a in np.linspace(-eps, eps, int(n_alpha)))
    k_values = tuple(int(k) for k in k_range)
    failures = []
    tuned = []
    for a in alphas:
        try:
            tuned.append(tune_to(family_template, alpha_target=a))
        except (TargetUnreachableError, ExtractionError) as exc:
            tuned.append(None)
            failures.append((None, a, "tune", f"{type(exc).__name__}: {exc}"))

    bands = []
    for k in k_values:
        plus, minus = [], []
        for a, fam in zip(alphas, tuned):
            mu_plus, mu_minus, note = _atlas_cell(fam, k)
            plus.append(mu_plus)
            minus.append(mu_minus)
            if note is not None:
                failures.append((k, a, "locate", note))
        bands.append(
            StripBand(k=k, mu_plus=tuple(plus), mu_minus=tuple(minus))
        )
    bands = tuple(bands)
    crossings = []
    for band in bands:
        hit = False
        for i in range(len(alphas)):
            span = _band_interval(band, i)
            if span is not None and span[0] <= 0.0 <= span[1]:
                hit = True
                break
        crossings.append((band.k, hit))
    return StripMap2D(
        alphas=alphas,
        k_values=k_values,
        bands=bands,
        intersections=_intersections(alphas, bands, 0.0),
        axis_crossings=tuple(crossings),
        failures=tuple(failures),
    )


# cos(phi) at the limit is 1 + 2*s0, so the strong resonances sit at
# s0 = -1/2 (1:4) and -3/4 (1:3) and the twist coefficient vanishes at
# s0 = -5/8.  The guard value -1/sqrt(2) is kept alongside -3/4 so
# families near either candidate are never silently certified.
_EXCEPTIONAL_S0 = (
    (-0.5, "limit-resonance-1:4"),
    (-0.625, "limit-twistless"),
    (-0.75, "limit-resonance-1:3"),
    (-math.sqrt(0.5), "limit-exceptional-candidate"),
)


def certify_global_resonance(family: FamilyHandle,
                             k_range) -> ResonanceCertificate:
    """Check for an elliptic 2-orbit at mu = 0 for every k in range.

    Requires s0 in (-1, 0).  Proximity of s0 to an exceptional value is
    flagged and downgrades the verdict from "certified" to "withheld";
    a missing or non-elliptic orbit at any k gives "incomplete".
    """
    s0 = family.s0
    if not (-1.0 < s0 < 0.0):
        raise ResonanceWindowError(
            f"s0 = {s0:.6g} not in resonance window (-1, 0)"
        )
    flags = tuple(
        tag for value, tag in _EXCEPTIONAL_S0 if abs(s0 - value) <= _FLAG_TOL
    )
    ks = tuple(int(k) for k in k_range)
    records = []
    intervals = []
    for k in ks:
        try:
            frame = build_frame(family, k)
        except _SOLVER_ERRORS as exc:
            records.append(_failed_record(k, exc))
            intervals.append((k, None, None))
            continue
        records.append(_cert_record(frame))
        try:
            mu_plus = locate_bifurcation(frame, "plus")
            mu_minus = locate_bifurcation(frame, "minus")
            intervals.append((k,) + tuple(sorted((mu_plus, mu_minus))))
        except _SOLVER_ERRORS:
            intervals.append((k, None, None))
    nesting = _nesting_verdict(intervals)
    if any(rec.failure is not None for rec in records):
        verdict = "incomplete"
    elif flags:
        verdict = "withheld"
    else:
        verdict = "certified"
    return ResonanceCertificate(
        s0=s0,
        k_range=ks,
        records=tuple(records),
        intervals=tuple(intervals),
        nesting=nesting,
        flags=flags,
        verdict=verdict,
    )


def _failed_record(k: int, exc: Exception) -> CertRecord:
    return CertRecord(k, None, None, None, None,
                      f"{type(exc).__name__}: {exc}")


def _cert_record(frame: RescaleFrame) -> CertRecord:
    """The frame's elliptic 2-orbit at mu = 0, solved from the limit
    2-orbit (-sqrt(-s0), sqrt(-s0)), against the limit cos(phi) = 1 + 2 s0."""
    k, s0 = frame.k, frame.family.s0
    root = math.sqrt(-s0)
    try:
        m0 = m_from_mu(frame.family, k, 0.0)
        rec = find_two_periodic(frame, m0, (-root, root))
    except _SOLVER_ERRORS as exc:
        return _failed_record(k, exc)
    phase = rec.stability.phase
    if phase is None:
        return CertRecord(k, None, None, None, None,
                          f"orbit not elliptic: {rec.stability.tag}")
    cos_phi = math.cos(phase)
    return CertRecord(
        k=k,
        cos_phi=cos_phi,
        phase=phase,
        margin=2.0 - abs(2.0 * cos_phi),
        limit_error=abs(cos_phi - (1.0 + 2.0 * s0)),
    )


def _nesting_verdict(intervals):
    spans = [(k, lo, hi) for k, lo, hi in intervals if lo is not None]
    if len(spans) < len(intervals):
        return "incomplete"
    for k, lo, hi in spans:
        if not (lo < 0.0 < hi):
            return f"mu=0 outside interval at k={k}"
    for (_, lo1, hi1), (k2, lo2, hi2) in zip(spans, spans[1:]):
        if not (lo1 < lo2 and hi2 < hi1):
            return f"nesting violated at k={k2}"
    return "nested"
