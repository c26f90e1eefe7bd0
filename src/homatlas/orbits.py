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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CollapsedOrbitError
from .henon import StabilityClass, classify_from_trace
from .mapcore import Jet, _locate_trace, _newton
from .rescale import RescaleFrame, eval_rescaled, mu_from_m, rescaled_window

__all__ = [
    "OrbitRecord",
    "find_two_periodic",
    "locate_bifurcation",
    "two_orbit_trace",
]


@dataclass(frozen=True)
class OrbitRecord:
    points: tuple
    period_label: int
    multipliers: tuple
    stability: StabilityClass
    residual: float
    mu_at: float


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
        period_label=2 * (frame.k + frame.family.recipe.n0),
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


# kind -> (rounds, trace at the border, M bracket)
_BORDERS = {"plus": (1, 0.0, (-0.5, 0.5)), "minus": (2, -2.0, (0.5, 1.5))}


def locate_bifurcation(frame: RescaleFrame, kind: str) -> float:
    """Parameter mu where the frame's return map changes stability type.

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
    return mu_from_m(frame.family, frame.k, m_star)


def two_orbit_trace(frame: RescaleFrame, m: float) -> float:
    """Trace of the second-iterate derivative along the continued
    2-orbit branch of the frame's return map, with the parameter given as
    rescaled M."""
    rr = frame.at_m(m)
    root = math.sqrt(max(m, 1e-9))
    _, _, jac2 = _solve_orbit(rr, (-root, root), 2)
    return float(np.trace(jac2))
