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

Every solve is a lane solve.  One 2-orbit Newton serves the phase curve
(``two_orbit_trace_lanes``), ``find_two_periodic`` and the resonance
certificate (``find_two_periodic_lanes``), and one bordered locator
(``mapcore._locate_trace_lanes``) every border and resonance trace,
solving (F^r(z) - z, tr D(F^r) - t) = 0 in M rather than mu, for
conditioning: a fixed point has multipliers (+1, -1) exactly when its
trace vanishes, because their product is -1, and the 2-orbit a double
multiplier -1 when tr D(F^2) = -2.  The jets' coefficients are arrays
over the lanes, so each pass of F serves every lane, and each lane runs
the damped Newton of a one-lane solve (``mapcore._damped_newton``) to
its own outcome: a value or an error.  A batch of one lane runs on
Python floats on a frame on floats, because a lane of a stacked frame
runs on 1-element arrays: the same bits at a few times the cost (the
timings are in CHANGES.md).  Each lane that converges is bit for bit the
one-lane solve on its own frame on floats.  ``two_orbit_trace``,
``find_two_periodic`` and ``locate_bifurcation`` raise the error of
their lowest failing lane.

Every solver takes a ``rescale.RescaleFrame``, the mu-independent part
of the map built once per (family, k) by the caller: a frame on floats
serves every lane, and a stacked frame (``rescale.stack_frames``) of
several families or of one family at several k holds one lane per
outcome, selected by index (``RescaleFrame.take``).  Lane counts, M
values and seeds that do not fit raise DomainError before any
evaluation.
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
from .mapcore import (Jet, _jet_rows, _lane_newton, _lane_values,
                      _locate_trace_lanes, _raised)
from .rescale import RescaleFrame, eval_rescaled

__all__ = [
    "OrbitRecord",
    "find_two_periodic",
    "find_two_periodic_lanes",
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
    """F^rounds(z) - z, its Jacobian D(F^rounds) - I, D(F^rounds) and
    F(z) at each lane of z (shape (L, 2)), each at its lane of rr, from
    one pass on degree-1 jets; one lane runs on Python floats when rr's
    numbers are floats.  The outputs have a leading lane axis."""
    if len(z) == 1:
        x, y = z[0].tolist()
    else:
        x, y = z[:, 0], z[:, 1]
    x, y = Jet.variables(x, y, 1)
    first = fx, fy = eval_rescaled(rr, (x, y))
    for _ in range(rounds - 1):
        fx, fy = eval_rescaled(rr, (fx, fy))
    f, jac = _jet_rows((fx, fy, *first), 2)
    jac = jac[:, :2]
    return f[:, :2] - z, jac - np.eye(2), jac, f[:, 2:]


def _check_lanes(frame: RescaleFrame, n: int):
    """DomainError unless a stacked frame has n lanes; a frame on floats
    serves any number of lanes."""
    if frame.family is None and n != len(frame.k):
        raise DomainError(f"{n} lanes asked of a frame of {len(frame.k)}")


def _finite(values, ndim: int, what: str):
    """values as an ndim-D float array of finite numbers, or a
    DomainError naming what they are."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be numbers") from exc
    if values.ndim != ndim or not np.isfinite(values).all():
        raise DomainError(f"{what} must be a {ndim}-D array of finite numbers")
    return values


def _per_lane_list(make):
    """lanes -> make(lanes), made once per lane list."""
    made = {}

    def of(lanes):
        key = tuple(lanes)
        if key not in made:
            made[key] = make(lanes)
        return made[key]

    return of


def _two_orbit_lanes(frame: RescaleFrame, m, seeds, windows=None):
    """The 2-orbit at each M of m (one per lane) from its seed, as lanes
    of one Newton with one trial window per lane or none: per lane the
    point with ``_orbit_residual``'s outputs there, or the error."""
    maps = _per_lane_list(
        lambda lanes: frame.take(lanes).at_m(_lane_values(m, lanes)))
    return _lane_newton(lambda z, lanes: _orbit_residual(maps(lanes), 2, z),
                        seeds, 1e-11, windows)


def find_two_periodic_lanes(frame: RescaleFrame, m, seeds) -> list:
    """``find_two_periodic`` at each M of m from its seed (one pair per
    M), as lanes of one Newton, each in the window 1.5 |lam|**(-k/4) + 2
    of its own k.  Returns per M its OrbitRecord, bit for bit that of the
    one-lane solve on its frame, or its NewtonDivergedError or
    CollapsedOrbitError; the collapse check reads F(z) from the last
    evaluation."""
    m = _finite(m, 1, "M")
    _check_lanes(frame, len(m))
    seeds = _finite(seeds, 2, "the seeds")
    if seeds.shape != (len(m), 2):
        raise DomainError("each M takes one seed pair (X, Y)")
    ks = frame.k.tolist() if frame.family is None else [frame.k] * len(m)
    lam = abs(frame.local.lam)
    windows = [1.5 * lam ** (-k / 4.0) + 2.0 for k in ks]
    outcomes = _two_orbit_lanes(frame, m, seeds, windows)
    mus = frame.mu_from_m(m).tolist()
    return [outcome if isinstance(outcome, NewtonDivergedError)
            else _orbit_record(*outcome, mu)
            for outcome, mu in zip(outcomes, mus)]


def _orbit_record(z, out, mu):
    """The OrbitRecord of a converged 2-orbit lane at z, from
    ``_orbit_residual``'s outputs there, or the CollapsedOrbitError when
    F(z) sits on z."""
    f, _, jac2, mid = out
    if float(np.max(np.abs(mid - z))) < 1e-6:
        return CollapsedOrbitError("collapsed to fixed point")
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
        mu_at=mu,
    )


def find_two_periodic(frame: RescaleFrame, m: float, seed) -> OrbitRecord:
    """2-periodic orbit of the frame's return map at rescaled parameter M,
    from a rescaled seed; rejects collapse onto a fixed point.

    Points and residual are in rescaled coordinates.  The multipliers are
    the eigenvalues of D(F^2); at a converged orbit its determinant agrees
    with +1 to solver accuracy.  The one-lane case of
    ``find_two_periodic_lanes``, whose error it raises.
    """
    return _raised(find_two_periodic_lanes(frame, [m], [seed]))[0]


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
    when the M it finds lies outside the event's bracket: the one-lane
    case of ``locate_bifurcation_lanes``.
    """
    return _raised(locate_bifurcation_lanes(frame, [kind]))[0]


def locate_bifurcation_lanes(frame: RescaleFrame, kinds) -> list:
    """``locate_bifurcation`` on each lane, lane i for the event kinds[i].

    The lanes of each round count (1 for "plus", 2 for the others) run
    from their own limit seeds as lanes of one bordered Newton, each lane
    to its own trace and M bracket, taking the steps of its one-lane
    solve.  Returns one outcome per lane, in order: its mu, bit for bit
    that of ``locate_bifurcation`` on the lane's frame, or the
    NewtonDivergedError or BracketError that the one-lane solve raises.
    """
    events = [_event(kind) for kind in kinds]
    _check_lanes(frame, len(events))
    lane_frame = _per_lane_list(frame.take)

    def map_at(m, lanes):
        return functools.partial(eval_rescaled, lane_frame(lanes).at_m(m))

    found = _locate_trace_lanes(map_at, events)
    ms = [0.0 if isinstance(m, HomatlasError) else m for m in found]
    mus = frame.mu_from_m(np.array(ms)).tolist()
    return [m if isinstance(m, HomatlasError) else mu
            for m, mu in zip(found, mus)]


def two_orbit_trace_lanes(frame: RescaleFrame, m) -> list:
    """Traces of the second-iterate derivative along the continued
    2-orbit branch, at an array of rescaled M values, each from the limit
    seed (-sqrt(M), sqrt(M)): one outcome per M.

    The M values are solved as lanes of one Newton, without a trial
    window.  Each outcome is the lane's trace, bit for bit that of a
    one-lane solve at its M on its frame, or its NewtonDivergedError.
    """
    m = _finite(m, 1, "M")
    _check_lanes(frame, len(m))
    roots = [math.sqrt(max(v, 1e-9)) for v in m.tolist()]
    outcomes = _two_orbit_lanes(frame, m, np.array([(-r, r) for r in roots]))
    return [
        outcome if isinstance(outcome, NewtonDivergedError)
        else float(outcome[1][2][0, 0] + outcome[1][2][1, 1])
        for outcome in outcomes
    ]


def two_orbit_trace(frame: RescaleFrame, m):
    """The traces of ``two_orbit_trace_lanes`` as an array, or the
    NewtonDivergedError of the lowest failing M."""
    return np.array(_raised(two_orbit_trace_lanes(frame, m)))
