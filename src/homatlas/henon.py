"""Analytics for the orientation-reversing conservative quadratic map.

The limit map of the rescaled first-return dynamics is

    xbar = y,   ybar = M + x - y**2

with Jacobian determinant -1 everywhere.  This module provides its fixed
points, the 2-periodic orbit and its stability, the first Birkhoff (twist)
coefficient of that orbit, a covering-relation horseshoe certificate for
large M, and the table of bifurcation values on the M axis, each re-derived
numerically instead of hard-coded: derivatives come from Taylor jets
through ``step``, and the borders and resonances from the same bordered
locator (``mapcore._locate_trace_lanes``) that serves the rescaled return
map, one lane per event.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (DomainError, ExtractionError,
                         ResonantParameterError)
from .mapcore import (HShear, Jet, MapExpr, Swap, _locate_trace_lanes,
                      _raised, _secant, jacobian_of)

__all__ = [
    "TRACE_EVENTS",
    "ELLIPTIC_EVENTS",
    "StabilityClass",
    "map_expr",
    "step",
    "fixed_points",
    "two_periodic_orbit",
    "classify_from_trace",
    "birkhoff_b1",
    "rotation_number_slope",
    "horseshoe_certificate",
    "bifurcation_values",
]


# The distinguished trace events, name -> (rounds r, trace of D(F^r), M
# bracket): the two borders of the elliptic interval, then the events the
# elliptic 2-orbit passes inside it (ELLIPTIC_EVENTS).
TRACE_EVENTS = {
    "fixed-point-birth": (1, 0.0, (-0.5, 0.5)),
    "period-doubling": (2, -2.0, (0.5, 1.5)),
    "resonance-1:4": (2, 0.0, (0.02, 0.98)),
    "twistless": (2, -0.5, (0.02, 0.98)),
    "resonance-1:3": (2, -1.0, (0.02, 0.98)),
}
ELLIPTIC_EVENTS = tuple(n for n, (r, t, _) in TRACE_EVENTS.items()
                        if r == 2 and abs(t) < 2.0)


@dataclass(frozen=True)
class StabilityClass:
    tag: str
    phase: float | None = None


def map_expr(M: float) -> MapExpr:
    """The map as exact stages: swap then shear y += M - x**2."""
    return MapExpr((Swap(), HShear((M, 0.0, -1.0))))


def step(M: float, p):
    x, y = p
    # same summation order as the stage composition, so the two agree bitwise
    return y, x + (M - y * y)


def fixed_points(M: float):
    """Fixed points with their multipliers; both are saddles for M > 0."""
    if not math.isfinite(M):
        raise DomainError(f"M must be finite, not {M!r}")
    if M < 0.0:
        return []
    s = math.sqrt(M)
    out = []
    for x in ([-s, s] if M > 0.0 else [0.0]):
        root = math.sqrt(x * x + 1.0)
        out.append(((x, x), (-x + root, -x - root)))
    return out


def classify_from_trace(trace: float, det: float) -> StabilityClass:
    """Stability tag from the trace of the relevant return derivative.

    det = -1 covers single-round orbits (always real multipliers of
    product -1); det = +1 covers second-iterate derivatives where elliptic
    behavior is possible.
    """
    if not (math.isfinite(trace) and math.isfinite(det)):
        raise DomainError(f"trace {trace!r} and det {det!r} must be finite")
    tol = 1e-9  # a trace this close to a special value takes its tag
    if det < 0.0:
        if abs(trace) <= tol:
            return StabilityClass("parabolic-plus")
        return StabilityClass("saddle")
    if abs(trace) > 2.0 + tol:
        return StabilityClass("saddle")
    if trace >= 2.0 - tol:
        return StabilityClass("parabolic-plus")
    if trace <= -2.0 + tol:
        return StabilityClass("parabolic-minus")
    phase = math.acos(max(-1.0, min(1.0, trace / 2.0)))
    for name in ELLIPTIC_EVENTS:
        if abs(trace - TRACE_EVENTS[name][1]) <= tol:
            return StabilityClass(name, phase)
    return StabilityClass("elliptic-generic", phase)


def two_periodic_orbit(M: float):
    """The 2-periodic orbit (-s, s) <-> (s, -s), s = sqrt(M), for M > 0."""
    if M <= 0.0:
        raise DomainError("no real 2-periodic orbit for M <= 0")
    s = math.sqrt(M)
    p1 = (-s, s)
    p2 = (s, -s)
    d2 = jacobian_of(lambda p: step(M, step(M, p)), p1)
    trace = float(np.trace(d2))
    return p1, p2, trace, classify_from_trace(trace, det=1.0)


def _elliptic_frame(M: float):
    """Complex eigenvalue, 1 minus it, scaled eigenvector and dual row at
    the 2-orbit.

    The eigenvector for the multiplier with positive imaginary part is
    scaled so the real frame [Re v, -Im v] has determinant 1; that fixes
    the z-coordinate amplitude and makes the twist coefficient continuous
    in M away from the strong resonances.
    """
    s = math.sqrt(M)
    # sin(phi)**2 = 1 - (1 - 2M)**2 = 4M(1 - M), free of the cancellation
    # that 1 - cos(phi)**2 suffers as M -> 0; 1 - lam = 2M - i sin(phi)
    # in closed form keeps the 2M that 1 - cos(phi) would round away
    sinphi = 2.0 * math.sqrt(max(0.0, M * (1.0 - M)))
    lam = complex(1.0 - 2.0 * M, sinphi)
    one_minus_lam = complex(2.0 * M, -sinphi)
    v = np.array([2.0 * s, one_minus_lam], dtype=complex)
    det_t = v[0].real * (-v[1].imag) - (-v[0].imag) * v[1].real
    if det_t < 0.0:
        v = 1j * v
        det_t = -det_t
    v = v / math.sqrt(det_t)
    dd = v[0] * np.conj(v[1]) - np.conj(v[0]) * v[1]
    ell = np.array([np.conj(v[1]), -np.conj(v[0])]) / dd
    return lam, one_minus_lam, v, ell


def birkhoff_b1(M: float) -> float:
    """First Birkhoff coefficient of the elliptic 2-periodic orbit.

    Degree-3 complex normal form of the second-iterate map at (-s, s):
    ``step`` runs twice on degree-3 jets in the frame coordinates
    (z, conj z) of ``_elliptic_frame``; after removing the non-resonant
    quadratic terms the resonant cubic coefficient c1 gives the twist as
    Im(conj(lam)*c1).  The 1 - lam and lam**2 - lam divisors use 1 - lam
    in closed form (see ``_elliptic_frame``), so no digits cancel as
    M -> 0.  Undefined at the strong resonances M = 1/2 (lam**4 = 1) and
    M = 3/4 (lam**3 = 1); refused for M so small (below about 2.8e-17)
    that cos(phi) = 1 - 2M rounds to 1, the 1:1 resonance value.
    """
    if not 0.0 < M < 1.0:
        raise DomainError("elliptic 2-periodic orbit requires 0 < M < 1")
    if abs(M - 0.5) < 1e-9 or abs(M - 0.75) < 1e-9:
        raise ResonantParameterError(f"strong resonance at M = {M}")
    if 1.0 - 2.0 * M == 1.0:
        raise ResonantParameterError(
            f"1:1 resonance: the multiplier at M = {M} rounds to 1"
        )
    s = math.sqrt(M)
    lam, one_minus_lam, v, ell = _elliptic_frame(M)
    v0, v1, l0, l1 = (complex(t) for t in (v[0], v[1], ell[0], ell[1]))
    z, zbar = Jet.variables(0.0, 0.0, 3)
    p = (
        -s + (v0 * z + v0.conjugate() * zbar),
        s + (v1 * z + v1.conjugate() * zbar),
    )
    x2, y2 = step(M, step(M, p))
    znew = l0 * (x2 + s) + l1 * (y2 - s)
    if abs(znew.coeff(1, 0) - lam) > 1e-10 or abs(znew.coeff(0, 1)) > 1e-10:
        raise ExtractionError(
            "second iterate is not diagonal in the elliptic frame"
        )

    a20 = znew.coeff(2, 0)
    a11 = znew.coeff(1, 1)
    a02 = znew.coeff(0, 2)
    a21 = znew.coeff(2, 1)
    lam2 = lam * lam
    c1 = (
        a21
        + 2.0 * a20 * a11 / one_minus_lam
        + abs(a11) ** 2 / (1.0 - np.conj(lam))
        - a11 * a20 / (lam * one_minus_lam)
        + 2.0 * abs(a02) ** 2 / (lam2 - np.conj(lam))
    )
    return float((np.conj(lam) * c1).imag)


def rotation_number_slope(M: float):
    """Twist oracle: d(rotation number)/d(r^2) of the second-iterate map.

    Iterates points seeded at several radii in the z-frame of the elliptic
    2-orbit and measures the mean rotation per step from the unwrapped
    angle; a quadratic fit in r^2 (to absorb the next twist order) gives
    the same coefficient as birkhoff_b1, by an independent route.
    """
    if not 0.0 < M < 1.0:
        raise DomainError("requires 0 < M < 1")
    radii, n_steps = (0.015, 0.025, 0.035, 0.045), 20000
    s = math.sqrt(M)
    _, _, v, ell = _elliptic_frame(M)
    p1x, p1y = -s, s
    rates = []
    for r in radii:
        w = r * v + r * np.conj(v)
        x, y = p1x + w[0].real, p1y + w[1].real
        z_prev = complex(ell[0] * (x - p1x) + ell[1] * (y - p1y))
        total = 0.0
        for _ in range(n_steps):
            x, y = step(M, (x, y))
            x, y = step(M, (x, y))
            z = complex(ell[0] * (x - p1x) + ell[1] * (y - p1y))
            total += cmath.phase(z / z_prev)
            z_prev = z
        rates.append(total / n_steps)
    r2 = np.asarray(radii) ** 2
    coeffs = np.polyfit(r2, np.asarray(rates), 2)
    return float(coeffs[1])


def horseshoe_certificate(M: float) -> bool:
    """Covering-relation certificate for a full 2-shift at large M.

    Two horizontal bands across the square Q = [-R, R]^2 at heights
    [y1, y2] and [-y2, -y1], with y1 = sqrt(M - 2R), y2 = sqrt(M + 2R),
    each containing one saddle fixed point.  The image of either band is a
    vertical strip spanning Q whose x-extent equals the band's y-extent,
    so strict edge inequalities certify that both bands cross both bands.
    Returns False when the inequalities cannot be met (never claims
    absence of a horseshoe).
    """
    margin = 1e-9  # strict margin of every inequality
    lo = 1.0 + math.sqrt(max(0.0, 1.0 + M))
    hi = M / 2.0
    if not hi > lo:
        return False
    r = 0.5 * (lo + hi)
    y1sq = M - 2.0 * r
    if y1sq <= margin:
        return False
    y1 = math.sqrt(y1sq)
    y2 = math.sqrt(M + 2.0 * r)
    if not y2 < r - margin:
        return False
    def edge_image(h):
        # ybar = M + x - h**2 over x in [-r, r]; exact interval by monotonicity
        return M - r - h * h, M + r - h * h

    for band_lo, band_hi in [(y1, y2), (-y2, -y1)]:
        # image x-range of the band is its y-range; must stay inside Q
        if not (-r + margin < band_lo and band_hi < r - margin):
            return False
        # one edge must exit above both bands, the other below both
        iv_top = edge_image(band_hi)
        iv_bot = edge_image(band_lo)
        above = [iv[0] > y2 + margin for iv in (iv_top, iv_bot)]
        below = [iv[1] < -y2 - margin for iv in (iv_top, iv_bot)]
        if not ((above[0] and below[1]) or (below[0] and above[1])):
            return False
    return True


def bifurcation_values():
    """The distinguished M values, each recovered by root finding.

    Each ``TRACE_EVENTS`` row but twistless comes from the bordered
    locator ``mapcore._locate_trace_lanes`` run on ``step``, one lane per
    row, in one call.  The twistless value is the root of the Birkhoff
    coefficient, by secant, so that it checks the table's trace -1/2 by
    an independent route.  The table is computed once per process; each
    call returns a fresh dict of it.
    """
    return dict(_bifurcation_table())


@functools.cache
def _bifurcation_table():
    names = [name for name in TRACE_EVENTS if name != "twistless"]
    found = _locate_trace_lanes(lambda m, lanes: functools.partial(step, m),
                                [TRACE_EVENTS[name] for name in names])
    table = dict(zip(names, _raised(found)))
    table["twistless"] = _secant(birkhoff_b1, 0.55, 0.70, 0.0, 1e-13)
    return table
