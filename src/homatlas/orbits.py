"""Newton solvers for periodic orbits of the first-return map.

All Newton iterations run in the rescaled (X, Y) coordinates where the
map is O(1) and the Jacobians are well conditioned; located points are
mapped back through the affine chain for reporting, while residuals are
quoted in the rescaled coordinates themselves.  Seeds come from the
closed-form orbits of the limit map x' = y, y' = M + x - y^2: fixed
points at X = Y = +-sqrt(M), the 2-periodic orbit swapping (-s, s) and
(s, -s) with s = sqrt(M).

Every solve runs r = 1 or 2 rounds of the rescaled return map F on Taylor
jets: of degree 1 in (X, Y) for an orbit, of degree 2 in (X, Y, M) for a
border, where they give the exact bordered Jacobian.

Bifurcation location works in the parameter M rather than mu, again for
conditioning.  A fixed point has multipliers (+1, -1) exactly when its
trace vanishes, because the product of its multipliers is -1; the
2-orbit has a double multiplier -1 when the trace of the second-iterate
derivative is -2.  The bordered locator ``mapcore._locate_trace`` solves
(F^r(z) - z, tr D(F^r) - t) = 0 for both borders and for the 2-orbit's
resonance traces; this module hands it M -> F as ``_map_at``, and
``henon.bifurcation_values`` hands it the limit map.  The border and
2-orbit-trace solvers take a ``rescale.RescaleFrame``, the mu-independent
part of the map built once per (family, k) by the caller, and derive
the map at each M from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CollapsedOrbitError, NotEllipticError
from .henon import StabilityClass, classify_from_trace
from .mapcore import Jet, _locate_trace, _newton
from .rescale import (
    RescaleFrame,
    build_chain,
    eval_rescaled,
    from_rescaled,
    mu_from_m,
    rescaled_return_map,
    rescaled_window,
    to_rescaled,
)
from .returnmap import ReturnMap, solve_y0, t0_pow_closed

__all__ = [
    "OrbitRecord",
    "BifurcationPoint",
    "seed_from_limit",
    "find_fixed_point",
    "find_two_periodic",
    "locate_bifurcation",
    "two_orbit_trace",
    "phase_of_elliptic",
]

def _strip_from_cross(family, k, p):
    """Entry coordinates (x0, y0) from a chain point (x0, y after k
    local steps)."""
    y0 = solve_y0(family.local, k, p[0], p[1])
    return (float(p[0]), float(y0))


def _cross_from_strip(family, k, p):
    _, yk = t0_pow_closed(family.local, p, k)
    return (float(p[0]), float(yk))


@dataclass(frozen=True)
class OrbitRecord:
    points: tuple
    period_label: int
    multipliers: tuple
    stability: StabilityClass
    residual: float
    mu_at: float


@dataclass(frozen=True)
class BifurcationPoint:
    kind: str
    mu: float
    k: int


def seed_from_limit(rm: ReturnMap, m: float, orbit: str):
    """Strip-coordinate seeds from the limit-map closed forms.

    orbit is "fp+" or "fp-" for the fixed points at (+-sqrt(M), same),
    or "two" for the pair (-sqrt(M), sqrt(M)), (sqrt(M), -sqrt(M)).
    """
    if m < 0:
        raise ValueError("limit orbits require m >= 0")
    root = math.sqrt(m)
    chain = build_chain(rm.family, rm.k)
    if orbit == "fp+":
        pts = [(root, root)]
    elif orbit == "fp-":
        pts = [(-root, -root)]
    elif orbit == "two":
        pts = [(-root, root), (root, -root)]
    else:
        raise ValueError(f"unknown orbit label {orbit!r}")
    return tuple(
        _strip_from_cross(rm.family, rm.k, from_rescaled(chain, p))
        for p in pts
    )


def _solve_orbit(rr, z0, rounds, window=None):
    """Newton for F^rounds(z) = z from a rescaled seed; returns z, the
    residual and D(F^rounds) there.  Each step reads the residual and
    D(F^rounds) from one pass on degree-1 jets."""

    def fun_jac(z):
        fx, fy = Jet.variables(float(z[0]), float(z[1]), 1)
        for _ in range(rounds):
            fx, fy = eval_rescaled(rr, (fx, fy))
        f = np.array([fx.c[0] - z[0], fy.c[0] - z[1]])
        jac = np.array([fx.c[1:], fy.c[1:]])
        return f, jac - np.eye(2), jac

    z, (f, _, jac) = _newton(fun_jac, z0, window=window)
    return z, f, jac


def _orbit_record(rm, chain, rescaled_pts, jac, residual):
    """Assemble the record from converged rescaled points.

    Multipliers are the eigenvalues of the accumulated derivative over
    one (or two) returns; at a converged orbit its determinant agrees
    with -1 (single round) or +1 (double round) to solver accuracy, so
    the multiplier product inherits the same sign.
    """
    family = rm.family
    pts = tuple(
        _strip_from_cross(family, rm.k, from_rescaled(chain, q))
        for q in rescaled_pts
    )
    period = (rm.k + family.globalmap.n0) * len(pts)
    eigs = np.linalg.eigvals(jac)
    if float(np.max(np.abs(eigs.imag))) < 1e-9 * float(np.max(np.abs(eigs))):
        mults = tuple(sorted(eigs.real, key=abs, reverse=True))
    else:
        mults = tuple(eigs)
    stability = classify_from_trace(
        float(np.trace(jac)), float(np.linalg.det(jac))
    )
    return OrbitRecord(
        points=pts,
        period_label=period,
        multipliers=mults,
        stability=stability,
        residual=residual,
        mu_at=family.mu,
    )


def find_fixed_point(rm: ReturnMap, seed) -> OrbitRecord:
    """Fixed point of the return map from a strip-coordinate seed.

    The multipliers are real with product -1, so the orbit is a saddle
    (or parabolic exactly at a bifurcation border), never elliptic.
    """
    rr = rescaled_return_map(rm)
    win = 1.5 * rescaled_window(rr) + 2.0
    cross = _cross_from_strip(rm.family, rm.k, seed)
    z, f, jac = _solve_orbit(rr, to_rescaled(rr.chain, cross), 1, window=win)
    return _orbit_record(
        rm, rr.chain, [z], jac, float(np.max(np.abs(f)))
    )


def find_two_periodic(rm: ReturnMap, seed) -> OrbitRecord:
    """2-periodic orbit of the return map; rejects collapse onto a
    fixed point."""
    rr = rescaled_return_map(rm)
    win = 1.5 * rescaled_window(rr) + 2.0
    cross = _cross_from_strip(rm.family, rm.k, seed)
    z, f, jac2 = _solve_orbit(rr, to_rescaled(rr.chain, cross), 2, window=win)
    mid = np.array(eval_rescaled(rr, z))
    if float(np.max(np.abs(mid - z))) < 1e-6:
        raise CollapsedOrbitError("collapsed to fixed point")
    return _orbit_record(
        rm, rr.chain, [z, mid], jac2, float(np.max(np.abs(f)))
    )


def _map_at(frame: RescaleFrame):
    """M -> the rescaled return map at M, for the bordered locator."""
    return lambda m: functools.partial(eval_rescaled, frame.at_m(m))


# kind -> (rounds, trace at the border, M bracket)
_BORDERS = {"plus": (1, 0.0, (-0.5, 0.5)), "minus": (2, -2.0, (0.5, 1.5))}


def locate_bifurcation(frame: RescaleFrame, kind: str) -> BifurcationPoint:
    """Parameter value where the frame's return map changes stability type.

    kind "plus" targets the fixed-point border with multipliers
    (+1, -1), where tr DF = 0; kind "minus" targets the 2-orbit's double
    multiplier -1, where tr D(F^2) = -2.  Both go through _locate_trace,
    which also finds the resonance flags of a cascade row.  Raises
    NewtonDivergedError when the Newton fails and BracketError when the
    border it finds lies outside the kind's M bracket in _BORDERS.
    """
    if kind not in _BORDERS:
        raise ValueError(f"unknown bifurcation kind {kind!r}")
    rounds, trace, m_bracket = _BORDERS[kind]
    m_star = _locate_trace(_map_at(frame), rounds, trace, m_bracket)
    return BifurcationPoint(
        kind=kind, mu=mu_from_m(frame.family, frame.k, m_star), k=frame.k
    )


def two_orbit_trace(frame: RescaleFrame, m: float) -> float:
    """Trace of the second-iterate derivative along the continued
    2-orbit branch of the frame's return map, with the parameter given as
    rescaled M."""
    rr = frame.at_m(m)
    root = math.sqrt(max(m, 1e-9))
    _, _, jac2 = _solve_orbit(rr, (-root, root), 2)
    return float(np.trace(jac2))


def phase_of_elliptic(record: OrbitRecord) -> float:
    """Rotation phase arccos(trace/2) of an elliptic record."""
    if record.stability.phase is None:
        raise NotEllipticError(
            f"orbit is {record.stability.tag}, not elliptic"
        )
    return record.stability.phase
