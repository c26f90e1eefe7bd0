"""Sweep orchestration: cascades in mu, two-parameter strip maps in
(mu, alpha), and the global-resonance certificate.

Every sweep runs its units (a cascade row, an atlas cell, a certificate
k) as lanes through one helper, ``_Sweep``.  It builds each unit's
``rescale.RescaleFrame`` once, on floats and in unit order, and stacks
the frames that were built once (``rescale.stack_frames``).
``_Sweep.solve(entry, lanes)`` makes one lane call of an ``orbits``
entry over the lanes that the units ask for, each lane selecting its
unit's frame by index, and hands each unit its lanes' outcomes, a value
or a ``HomatlasError`` per lane.  Failures take this one path: a unit
whose frame failed takes no lanes, and its frame's error is the outcome
of each of its lanes; an error raised for the whole call is the outcome
of every lane in it.  A sweep reads a unit's first error from its
outcomes (``mapcore._failed``) and never asks how the unit failed.

Each sweep makes two such calls: a cascade locates the borders and
resonance flags of its rows (``orbits.locate_bifurcation_lanes``), then
solves the phase curves of the rows whose borders were found
(``orbits.two_orbit_trace_lanes``); the certificate locates the borders
of its k, then solves their 2-orbits at mu = 0
(``orbits.find_two_periodic_lanes``); the strip atlas locates the plus
border of every cell, then the minus border.  Every lane is bit for bit
the one-lane solve on its own frame.  Any ``HomatlasError`` of a unit,
or of the atlas' tuning of a grid column, is recorded as a flagged
partial result instead of aborting the whole sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (BracketError, DomainError, HomatlasError,
                         ResonanceWindowError)
from .family import FamilyHandle, tune_to
from .henon import ELLIPTIC_EVENTS, TRACE_EVENTS
from .mapcore import _failed, _whole
from .orbits import (find_two_periodic_lanes, locate_bifurcation_lanes,
                     two_orbit_trace_lanes)
from .rescale import RescaleFrame, build_frame, m_from_mu, stack_frames

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

# the M range of a cascade row's phase curve: its resonance flags' bracket
_M_RANGE = TRACE_EVENTS[ELLIPTIC_EVENTS[0]][2]
_N_PHI = 25
# the located events of a cascade row, in the order the row reports
# their errors: the borders, then the flags
_ROW_EVENTS = ("plus", "minus") + ELLIPTIC_EVENTS
# distance of s0 from an exceptional value that withholds a certificate
_FLAG_TOL = 1e-4


@dataclass(frozen=True)
class ResonanceFlag:
    tag: str
    mu: float


@dataclass(frozen=True)
class CascadeRow:
    k: int
    mu_plus: float | None = None
    mu_minus: float | None = None
    interval: tuple | None = None
    phi_curve: tuple = ()
    flags: tuple = ()
    monotone: bool = False
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
    cos_phi: float | None = None
    phase: float | None = None
    margin: float | None = None
    limit_error: float | None = None
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


def _named(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Sweep:
    """The units of a sweep as lanes: ``frames`` holds each unit's frame,
    built on floats in unit order, or the HomatlasError that building it
    raised, and the built frames are stacked once."""

    def __init__(self, units):
        """units: (unit, family, k) in unit order."""
        self.frames = {}
        for unit, family, k in units:
            try:
                self.frames[unit] = build_frame(family, k)
            except HomatlasError as exc:
                self.frames[unit] = exc
        built = [unit for unit, frame in self.frames.items()
                 if isinstance(frame, RescaleFrame)]
        self._lane = {unit: j for j, unit in enumerate(built)}
        self._stacked = (stack_frames([self.frames[u] for u in built])
                         if built else None)

    def solve(self, entry, lanes) -> dict:
        """One lane call entry(frame, *args) over the lanes of lanes =
        {unit: [args of each of its lanes]}: frame holds each lane's
        unit, and args[i] the i-th argument of every lane.  Returns
        {unit: its lanes' outcomes}.  A unit whose frame failed takes no
        lanes, and its frame's error is the outcome of each of its lanes;
        a HomatlasError raised for the whole call is the outcome of every
        lane in it; no lanes make no call."""
        live = {u: args for u, args in lanes.items() if u in self._lane}
        index = [self._lane[u] for u, args in live.items() for _ in args]
        outcomes = iter(())
        if index:
            try:
                outcomes = iter(entry(
                    self._stacked.take(index),
                    *zip(*(a for args in live.values() for a in args))))
            except HomatlasError as exc:
                outcomes = itertools.repeat(exc)
        return {u: [next(outcomes) if u in live else self.frames[u]
                    for _ in args] for u, args in lanes.items()}


def _row(k: int, frame, located, traces) -> CascadeRow:
    """A cascade row from its frame (or the frame's error, which is then
    every outcome of located) and its lanes' outcomes: located, one per
    _ROW_EVENTS, and traces, its phase curve's (empty when a border
    failed).  The first error in the order plus, minus, phase curve,
    flags is the row's; a flag whose M leaves its bracket is left out."""
    mu_plus, mu_minus, *marks = located
    error = _failed((mu_plus, mu_minus, *traces, *(
        mu for mu in marks if not isinstance(mu, BracketError))))
    if error is not None:
        return CascadeRow(k, error=_named(error))
    flags = [ResonanceFlag(tag, mu) for tag, mu in zip(ELLIPTIC_EVENTS, marks)
             if not isinstance(mu, BracketError)]
    traces = np.array(traces)
    mus = frame.mu_from_m(np.linspace(*_M_RANGE, _N_PHI))
    phis = np.arccos(np.clip(traces / 2.0, -1.0, 1.0))
    return CascadeRow(
        k=k,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        interval=tuple(sorted((mu_plus, mu_minus))),
        phi_curve=tuple(zip(mus.tolist(), phis.tolist())),
        flags=tuple(flags),
        monotone=bool(np.all(np.diff(traces) < 0.0)),
    )


def run_cascade(family: FamilyHandle, k_range) -> CascadeResult:
    """Bifurcation intervals, phase curves, and resonance flags per k.

    Each k's frame is built on floats and the frames are stacked once;
    then one call of the locator solves the plus borders of all rows as
    one bordered Newton and their minus borders and flags as another,
    and the phase curves of the rows whose borders were found run as
    lanes of one 2-orbit Newton, 25 lanes per row.  A row whose frame
    fails takes no lanes and reports its frame's error.
    """
    ks = tuple(_whole(k, "k") for k in k_range)
    sweep = _Sweep((j, family, k) for j, k in enumerate(ks))
    located = sweep.solve(locate_bifurcation_lanes, {
        j: [(kind,) for kind in _ROW_EVENTS] for j in sweep.frames})
    grid = np.linspace(*_M_RANGE, _N_PHI).tolist()
    traces = sweep.solve(two_orbit_trace_lanes, {
        j: [(m,) for m in grid] for j, found in located.items()
        if _failed(found[:2]) is None})
    rows = tuple(_row(k, sweep.frames[j], located[j], traces.get(j, ()))
                 for j, k in enumerate(ks))
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
    """Least-squares slope of the mu(alpha) boundary polyline of the
    first band of k, kind "plus" or "minus"."""
    band = next((b for b in atlas.bands if b.k == k), None)
    if band is None or kind not in ("plus", "minus"):
        raise DomainError(f"no {kind!r} border of k={k} in the atlas")
    values = getattr(band, "mu_" + kind)
    pts = [
        (a, m)
        for a, m in zip(atlas.alphas, values)
        if m is not None and abs(a) >= alpha_min
    ]
    if len(pts) < 2:
        raise DomainError(f"not enough boundary points for k={k} {kind}")
    arr = np.array(pts)
    return float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])


def run_strip_atlas(family_template: FamilyHandle, k_range,
                    eps: float = 0.05, n_alpha: int = 41) -> StripMap2D:
    """Trace the border curves over an alpha-grid of tuned families.

    The grid is n_alpha points over [-eps, eps].  Each grid column retunes
    the family to the target alpha.  The frame of every (k, column) cell
    is built on floats, k after k and column after column, and the frames
    are stacked once; then the plus border of every cell is located as
    lanes of one bordered Newton, and the minus border as lanes of
    another.  A failed tuning or frame is a hole, and each failed border
    is None and named in its cell's note; the failures list the tuning
    holes first, then the notes of each k by column.  An error that the
    locator raises for a whole call gives that border's note to the cells
    of every k, not only of one k, and leaves the other border as it was
    found.
    """
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, not {eps!r}")
    alphas = tuple(float(a) for a in np.linspace(
        -eps, eps, _whole(n_alpha, "n_alpha")))
    k_values = tuple(_whole(k, "k") for k in k_range)
    failures = []
    tuned = []
    for a in alphas:
        try:
            tuned.append(tune_to(family_template, alpha_target=a))
        except HomatlasError as exc:
            tuned.append(None)
            failures.append((None, a, "tune", _named(exc)))

    # cells are (position in k_values, column): a repeated k keeps its band
    cells = [(j, i) for j in range(len(k_values)) for i in range(len(alphas))]
    sweep = _Sweep(((j, i), tuned[i], k_values[j]) for j, i in cells
                   if tuned[i] is not None)
    notes = {(j, i): ["family tuning failed"] for j, i in cells
             if tuned[i] is None}
    mus = {kind: [[None] * len(alphas) for _ in k_values]
           for kind in ("plus", "minus")}
    for kind, grid in mus.items():
        found = sweep.solve(locate_bifurcation_lanes,
                            {cell: [(kind,)] for cell in sweep.frames})
        for (j, i), (mu,) in found.items():
            if isinstance(mu, HomatlasError):
                notes.setdefault((j, i), []).append(
                    f"{kind}: {type(mu).__name__}")
            else:
                grid[j][i] = mu
    bands = tuple(StripBand(k=k, mu_plus=tuple(mus["plus"][j]),
                            mu_minus=tuple(mus["minus"][j]))
                  for j, k in enumerate(k_values))
    failures.extend((k_values[j], alphas[i], "locate", "; ".join(note))
                    for (j, i), note in sorted(notes.items()))
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


# the limit 2-orbit at mu = 0 has tr D(F^2) = 2 + 4*s0, so each elliptic
# event sits at s0 = (trace - 2)/4: -1/2, -5/8 and -3/4
_EXCEPTIONAL_S0 = tuple(
    ((TRACE_EVENTS[name][1] - 2.0) / 4.0, "limit-" + name)
    for name in ELLIPTIC_EVENTS
)


def certify_global_resonance(family: FamilyHandle,
                             k_range) -> ResonanceCertificate:
    """Check for an elliptic 2-orbit at mu = 0 for every k in range.

    Requires s0 in (-1, 0).  Proximity of s0 to an exceptional value is
    flagged and downgrades the verdict from "certified" to "withheld";
    a missing or non-elliptic orbit at any k gives "incomplete", and
    no k is a DomainError.  The
    borders and the 2-orbits at mu = 0 (from the limit 2-orbit
    (-sqrt(-s0), sqrt(-s0))) of all k run as lanes across k; a k whose
    frame fails takes no lanes and its record carries the frame's error,
    and an error raised for a whole call reaches every k.
    """
    s0 = family.s0
    if not (-1.0 < s0 < 0.0):
        raise ResonanceWindowError(
            f"s0 = {s0:.6g} not in resonance window (-1, 0)"
        )
    flags = tuple(
        tag for value, tag in _EXCEPTIONAL_S0 if abs(s0 - value) <= _FLAG_TOL
    )
    ks = tuple(_whole(k, "k") for k in k_range)
    if not ks:
        raise DomainError("no k to certify")
    sweep = _Sweep((j, family, k) for j, k in enumerate(ks))
    borders = sweep.solve(locate_bifurcation_lanes, {
        j: [("plus",), ("minus",)] for j in sweep.frames})
    root = math.sqrt(-s0)
    # M at mu = 0 is taken inside the call, so only for a k whose frame
    # was built: at a k whose lam**2k leaves binary64 m_from_mu raises,
    # and that k must fail by its frame's error, not abort the certificate
    two_orbits = sweep.solve(
        lambda frame, k, seed: find_two_periodic_lanes(
            frame, [m_from_mu(family, kj, 0.0) for kj in k], seed),
        {j: [(k, (-root, root))] for j, k in enumerate(ks)})
    records = tuple(_cert_record(k, s0, two_orbits[j][0])
                    for j, k in enumerate(ks))
    intervals = [(k, *sorted(borders[j])) if _failed(borders[j]) is None
                 else (k, None, None) for j, k in enumerate(ks)]
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
        records=records,
        intervals=tuple(intervals),
        nesting=nesting,
        flags=flags,
        verdict=verdict,
    )


def _cert_record(k: int, s0: float, orbit) -> CertRecord:
    """The record of k from its 2-orbit at mu = 0 (an ``OrbitRecord``, or
    the error of its solve), against the limit cos(phi) = 1 + 2 s0."""
    if isinstance(orbit, HomatlasError):
        return CertRecord(k, failure=_named(orbit))
    phase = orbit.stability.phase
    if phase is None:
        tag = orbit.stability.tag
        return CertRecord(k, failure=f"orbit not elliptic: {tag}")
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
