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

The phase curve of a cascade row (``two_orbit_trace`` on the array of M)
solves the 2-orbits at all its M values as lanes of one Newton: the
jets' coefficients are arrays over the lanes, so each pass of F serves
every M, and each lane runs the damped Newton of a one-lane solve
(``mapcore._damped_newton``) to its own outcome: a point or an error.
Each lane that converges is bit for bit the one-lane solve at its M on
Python floats, whether or not other lanes fail; when any lane fails,
the row raises the error of the lowest failing M, as a loop over the
grid would.

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

``locate_bifurcation_lanes`` runs the locator on the frames of several
families at one k (the alpha columns of a strip atlas) as lanes of one
bordered Newton: the frames are stacked into one frame whose
per-family numbers are arrays over the lanes, so each pass of F serves
every lane, and each lane's mu, or its error, is that of
``locate_bifurcation`` on its own frame.  Both residuals turn their
output jets into rows with ``mapcore._jet_rows``: one ``np.array`` per
output on one lane, a leading lane axis on lanes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CollapsedOrbitError, HomatlasError
from .henon import (ELLIPTIC_EVENTS, TRACE_EVENTS, StabilityClass,
                    classify_from_trace)
from .mapcore import Jet, _jet_rows, _locate_trace, _newton
from .rescale import (RescaleFrame, eval_rescaled, rescaled_window,
                      stack_frames)

__all__ = [
    "OrbitRecord",
    "find_two_periodic",
    "locate_bifurcation",
    "locate_bifurcation_lanes",
    "two_orbit_trace",
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
        raise ValueError(f"unknown bifurcation kind {kind!r}")
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


def locate_bifurcation_lanes(frames, kind: str) -> list:
    """``locate_bifurcation`` on each of several frames at one k and one
    local saddle, solved as lanes of one bordered Newton.

    The frames are stacked (``rescale.stack_frames``) so that each pass
    of ``eval_rescaled`` serves every lane asking for an evaluation, and
    each lane takes the steps of its one-lane solve.  Returns one outcome
    per frame, in order: its mu, bit for bit that of
    ``locate_bifurcation`` on the frame, or the NewtonDivergedError or
    BracketError that the one-lane solve raises.
    """
    stacked = {}

    def map_at(m, lanes):
        key = tuple(lanes)
        if key not in stacked:
            stacked[key] = stack_frames([frames[i] for i in lanes])
        return functools.partial(eval_rescaled, stacked[key].at_m(m))

    outcomes = _locate_trace(map_at, *_event(kind), n_lanes=len(frames))
    return [
        m if isinstance(m, HomatlasError) else frame.mu_from_m(m)
        for frame, m in zip(frames, outcomes)
    ]


def two_orbit_trace(frame: RescaleFrame, m):
    """Traces of the second-iterate derivative along the continued
    2-orbit branch of the frame's return map, at an array of rescaled M
    values, each from the limit seed (-sqrt(M), sqrt(M)).

    The M values are solved as lanes of one lane-wise Newton
    (``mapcore._newton``): each pass of ``eval_rescaled`` serves every
    lane asking for an evaluation, on jets whose coefficients are arrays
    over those lanes, and each lane's trace is bit for bit that of a
    one-lane solve at its M.  Returns an array of traces, or raises the
    NewtonDivergedError of the lowest failing M.
    """
    m = np.asarray(m, dtype=float)
    roots = [math.sqrt(max(v, 1e-9)) for v in m.tolist()]

    def residual(z, lanes):
        return _orbit_residual(frame.at_m(m[lanes]), 2, z)

    _, (_, _, jac2) = _newton(residual, [(-r, r) for r in roots])
    return np.trace(jac2, axis1=1, axis2=2)
