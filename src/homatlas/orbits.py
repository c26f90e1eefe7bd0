"""Newton solvers for periodic orbits of the first-return map.

All Newton iterations run in the rescaled (X, Y) coordinates where the
map is O(1) and the Jacobians are well conditioned, and located points
and residuals are reported in those coordinates.  Seeds come from the
closed-form orbits of the limit map x' = y, y' = M + x - y^2: fixed
points at X = Y = +-sqrt(M), the 2-periodic orbit swapping (-s, s) and
(s, -s) with s = sqrt(M).

Every solve runs r = 1 or 2 rounds of the rescaled return map F on Taylor
jets: of degree 1 in (X, Y) for an orbit, of degree 2 in (X, Y, M) for a
border, where they give the exact bordered Jacobian.

A phase curve (``two_orbit_trace_lanes`` on an array of M) solves the
2-orbits at all its M values as lanes of one Newton: the jets'
coefficients are arrays over the lanes, so each pass of F serves every
M, and each lane runs the damped Newton of a one-lane solve
(``mapcore._damped_newton``) to its own outcome: a trace or an error.
Each lane that converges is bit for bit the one-lane solve at its M on
Python floats, whether or not other lanes fail.  ``two_orbit_trace``
raises the error of the lowest failing M, as a loop over the grid
would.

Bifurcation location works in the parameter M rather than mu, again for
conditioning.  A fixed point has multipliers (+1, -1) exactly when its
trace vanishes, because the product of its multipliers is -1; the
2-orbit has a double multiplier -1 when the trace of the second-iterate
derivative is -2.  The bordered locator ``mapcore._locate_trace`` solves
(F^r(z) - z, tr D(F^r) - t) = 0 for both borders and for the 2-orbit's
resonance traces; this module hands it M -> F as ``_map_at``, and
``henon.bifurcation_values`` hands it the limit map.  Every solver takes
a ``rescale.RescaleFrame``, the mu-independent part of the map built once
per (family, k) by the caller, and derives the map at each M from it.

Both lane entries take a stacked frame (``rescale.stack_frames``) whose
lanes may be the frames of several families (the alpha columns of a
strip atlas) or of one family at several k (the rows of a cascade, the
k of a certificate), selected by index (``RescaleFrame.take``), so each
pass of F serves every lane.  ``locate_bifurcation_lanes`` gives each
lane its own event and runs the lanes of one round count as one
bordered Newton; each lane's mu, or its error, is that of
``locate_bifurcation`` on its own frame.  Both residuals turn their
output jets into rows with ``mapcore._jet_rows``: one ``np.array`` per
output on one lane, a leading lane axis on lanes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (CollapsedOrbitError, DomainError, HomatlasError,
                         NewtonDivergedError)
from .henon import (ELLIPTIC_EVENTS, TRACE_EVENTS, StabilityClass,
                    classify_from_trace)
from .mapcore import (Jet, _jet_rows, _lane_newton, _locate_trace,
                      _locate_trace_lanes, _newton)
from .rescale import RescaleFrame, eval_rescaled, rescaled_window

__all__ = [
    "OrbitRecord",
    "find_two_periodic",
    "locate_bifurcation",
    "locate_bifurcation_lanes",
    "two_orbit_trace",
    "two_orbit_trace_lanes",
]


@dataclass(frozen=True)
class OrbitRecord:
    points: tuple
    multipliers: tuple
    stability: StabilityClass
    residual: float
    mu_at: float


def _orbit_residual(rr, rounds, z):
    """F^rounds(z) - z, its Jacobian D(F^rounds) - I and D(F^rounds) at z,
    from one pass on degree-1 jets.  z of shape (2,) is one point on
    Python floats; z of shape (L, 2) is L lanes, each at its own lane of
    rr, whose jets carry array coefficients."""
    if z.ndim == 1:
        x, y = float(z[0]), float(z[1])
    else:
        x, y = z[:, 0], z[:, 1]
    fx, fy = x, y = Jet.variables(x, y, 1)
    for _ in range(rounds):
        fx, fy = eval_rescaled(rr, (fx, fy))
    f, jac = _jet_rows((fx, fy), 2)
    return f - z, jac - np.eye(2), jac


def _solve_orbit(rr, z0, rounds, window=None):
    """Newton for F^rounds(z) = z from a rescaled seed; returns z, the
    residual and D(F^rounds) there.  Each step reads the residual and
    D(F^rounds) from one pass on degree-1 jets."""
    z, (f, _, jac) = _newton(
        functools.partial(_orbit_residual, rr, rounds), z0, window=window
    )
    return z, f, jac


def find_two_periodic(frame: RescaleFrame, m: float, seed) -> OrbitRecord:
    """2-periodic orbit of the frame's return map at rescaled parameter M,
    from a rescaled seed; rejects collapse onto a fixed point.

    Points and residual are in rescaled coordinates.  The multipliers are
    the eigenvalues of D(F^2); at a converged orbit its determinant agrees
    with +1 to solver accuracy.
    """
    rr = frame.at_m(m)
    win = 1.5 * rescaled_window(rr) + 2.0
    z, f, jac2 = _solve_orbit(rr, seed, 2, window=win)
    mid = np.array(eval_rescaled(rr, z))
    if float(np.max(np.abs(mid - z))) < 1e-6:
        raise CollapsedOrbitError("collapsed to fixed point")
    eigs = np.linalg.eigvals(jac2)
    if float(np.max(np.abs(eigs.imag))) < 1e-9 * float(np.max(np.abs(eigs))):
        mults = tuple(sorted(eigs.real, key=abs, reverse=True))
    else:
        mults = tuple(eigs)
    return OrbitRecord(
        points=(tuple(z.tolist()), tuple(mid.tolist())),
        multipliers=mults,
        stability=classify_from_trace(
            float(np.trace(jac2)), float(np.linalg.det(jac2))
        ),
        residual=float(np.max(np.abs(f))),
        mu_at=rr.mu,
    )


def _map_at(frame: RescaleFrame):
    """M -> the rescaled return map at M, for the bordered locator."""
    return lambda m: functools.partial(eval_rescaled, frame.at_m(m))


# kind -> its row of henon.TRACE_EVENTS
_KINDS = {"plus": "fixed-point-birth", "minus": "period-doubling",
          **{name: name for name in ELLIPTIC_EVENTS}}


def _event(kind: str):
    """(rounds, trace, M bracket) of a locator kind."""
    if kind not in _KINDS:
        raise DomainError(f"unknown bifurcation kind {kind!r}")
    return TRACE_EVENTS[_KINDS[kind]]


def locate_bifurcation(frame: RescaleFrame, kind: str) -> float:
    """Parameter mu where the frame's return map meets a trace event.

    kind "plus" targets the fixed-point border with multipliers
    (+1, -1), where tr DF = 0; kind "minus" targets the 2-orbit's double
    multiplier -1, where tr D(F^2) = -2; a name of
    ``henon.ELLIPTIC_EVENTS`` targets that resonance trace of the 2-orbit.
    Raises NewtonDivergedError when the Newton fails and BracketError
    when the M it finds lies outside the event's bracket.
    """
    m_star = _locate_trace(_map_at(frame), *_event(kind))
    return frame.mu_from_m(m_star)


def _lane_frames(frame: RescaleFrame):
    """lanes -> the frame of the listed lanes.  A frame on floats serves
    every lane as it is; a stacked frame gives them by index
    (``RescaleFrame.take``), taken once per lane list."""
    if frame.family is not None:
        return lambda lanes: frame
    taken = {}

    def of(lanes):
        key = tuple(lanes)
        if key not in taken:
            taken[key] = frame.take(lanes)
        return taken[key]

    return of


def locate_bifurcation_lanes(frame: RescaleFrame, kinds) -> list:
    """``locate_bifurcation`` on each lane of a stacked frame, lane i for
    the event kinds[i].

    The lanes of each round count (1 for "plus", 2 for the others) run
    from their own limit seeds as lanes of one bordered Newton, each lane
    to its own trace and M bracket; each pass of ``eval_rescaled`` serves
    every lane asking for an evaluation, and each lane takes the steps of
    its one-lane solve.  Returns one outcome per lane, in order: its mu,
    bit for bit that of ``locate_bifurcation`` on the lane's frame, or
    the NewtonDivergedError or BracketError that the one-lane solve
    raises.  A frame on floats serves every lane.
    """
    events = [_event(kind) for kind in kinds]
    lane_frame = _lane_frames(frame)
    outcomes = [None] * len(events)
    for rounds in sorted({rounds for rounds, _, _ in events}):
        group = [i for i, event in enumerate(events) if event[0] == rounds]

        def map_at(m, lanes):
            rows = lane_frame([group[i] for i in lanes])
            return functools.partial(eval_rescaled, rows.at_m(m))

        found = _locate_trace_lanes(map_at, rounds,
                                    [events[i][1] for i in group],
                                    [events[i][2] for i in group])
        for i, m in zip(group, found):
            outcomes[i] = m
    ms = [0.0 if isinstance(m, HomatlasError) else m for m in outcomes]
    mus = frame.mu_from_m(np.array(ms)).tolist()
    return [m if isinstance(m, HomatlasError) else mu
            for m, mu in zip(outcomes, mus)]


def two_orbit_trace_lanes(frame: RescaleFrame, m) -> list:
    """Traces of the second-iterate derivative along the continued
    2-orbit branch, at an array of rescaled M values, each from the limit
    seed (-sqrt(M), sqrt(M)): one outcome per M.

    frame serves every M, or is a stacked frame with one lane per M.  The
    M values are solved as lanes of one lane-wise Newton
    (``mapcore._lane_newton``): each pass of ``eval_rescaled`` serves
    every lane asking for an evaluation, on jets whose coefficients are
    arrays over those lanes.  Each outcome is the lane's trace, bit for
    bit that of a one-lane solve at its M on its frame, or its
    NewtonDivergedError.
    """
    m = np.asarray(m, dtype=float)
    roots = [math.sqrt(max(v, 1e-9)) for v in m.tolist()]
    lane_frame = _lane_frames(frame)

    def residual(z, lanes):
        return _orbit_residual(lane_frame(lanes).at_m(m[lanes]), 2, z)

    outcomes = _lane_newton(residual, np.array([(-r, r) for r in roots]),
                            1e-11, None)
    return [
        outcome if isinstance(outcome, NewtonDivergedError)
        else float(outcome[1][2][0, 0] + outcome[1][2][1, 1])
        for outcome in outcomes
    ]


def two_orbit_trace(frame: RescaleFrame, m):
    """The traces of ``two_orbit_trace_lanes`` as an array, or the
    NewtonDivergedError of the lowest failing M."""
    traces = two_orbit_trace_lanes(frame, m)
    for trace in traces:
        if isinstance(trace, NewtonDivergedError):
            raise trace
    return np.array(traces)
