"""Rescaling of the first-return map to a near-Henon normal form.

The return map in cross coordinates (x0, y_k) is conjugated by an affine
chain (two shifts, a diagonal scaling, a small linear mix, one more
shift) to X' = Y, Y' = M + X - Y^2 + (f03/d^2) lam^k Y^3 plus a residual
of order k lam^2k.  The chain coefficients come from the quadratic jet of
the global map; the asymptotically small corrections that a general
smooth family would carry are frozen at zero here, because the model
families are exact and the measured residuals are the ground truth.

Only the parameter offset of the chain depends on mu.  Everything else
(lam**k, the 2x2 matrix and its inverse, the mu-free part of the offset)
is a frame that depends on the Taylor data, lam, x_plus, y_minus and k
alone; ``build_chain`` reads it from a cache, so the many chains that a
bordered Newton builds along one family compute only their mu sums.

The parameter conversion M <-> mu is the affine relation
M = -d lam^{-2k} (mu + lam^k (c x^+ - y^-)(1 + k beta1 lam^k x^+ y^-)) - s0
and its inverse; the bracketed sum cancels almost completely in the
interesting regime, so it is accumulated with compensated summation and
guarded by a precision floor.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import PrecisionFloorError
from .family import FamilyHandle
from .mapcore import _value, eval_map, jacobian_of
from .returnmap import ReturnMap, build_return_map, solve_y0, t0_pow_closed

__all__ = [
    "RescaleChain",
    "RescaledParam",
    "RescaledReturnMap",
    "ConvergenceReport",
    "build_chain",
    "to_rescaled",
    "from_rescaled",
    "m_from_mu",
    "mu_from_m",
    "rescaled_return_map",
    "eval_rescaled",
    "rescaled_jacobian",
    "rescaled_window",
    "fit_cubic_coefficient",
    "convergence_report",
]


@dataclass(frozen=True)
class RescaleChain:
    """Affine map from cross coordinates (x0, y_k) to rescaled (X, Y).

    (X, Y) = matrix (x0, y_k) + offset, and inverse undoes matrix.  matrix
    and inverse are 2x2 tuples of rows and offset a 2-tuple, all of Python
    floats (offset[0] is a jet when mu is), so that ``to_rescaled`` and
    ``from_rescaled`` run on plain scalars and jets, never numpy scalars.

    matrix, inverse, nu1 and nu2 come from the cached mu-independent
    frame and are shared by every chain of the same family and k;
    offset is the frame's mu-free offset minus (a lam^k/2 + nu1 m3,
    a lam^k/2).

    m1, m2, m3 are the intermediate parameter values produced by the
    successive normalization steps; m_effective is the constant that
    actually multiplies nothing, i.e. the additive parameter of the
    normal form reached by this exact chain.  The contract-level M of
    m_from_mu differs from m_effective by O(k lam^k) terms that the
    frozen-zero convention does not remove.
    """

    k: int
    matrix: tuple
    offset: tuple
    inverse: tuple
    m1: float
    m2: float
    m3: float
    m_effective: float
    nu1: float
    nu2: float


@dataclass(frozen=True)
class RescaledParam:
    m: float
    correction_cubic: float


def _r1_factor(family: FamilyHandle, k: int) -> float:
    lamk = family.lam ** k
    return 1.0 + family.beta1 * k * lamk * family.x_plus * family.y_minus


def _tuples(mat: np.ndarray) -> tuple:
    return tuple(tuple(row) for row in mat.tolist())


class _ChainFrame(NamedTuple):
    """The mu-independent part of a chain: lam**k, the shifted curvature
    d_k, the mix coefficients, the 2x2 matrix with its inverse, and the
    offset before the mu-dependent (a lam^k/2 + nu1 m3, a lam^k/2) is
    subtracted.  Computed with the same numpy expressions as the whole
    chain once was, so every field keeps its rounding."""

    lamk: float
    d_k: float
    nu1: float
    nu2: float
    matrix: tuple
    inverse: tuple
    base: tuple


_FRAME_FORMAT = "9d"


# the hits come from the consecutive chains of one solve or sweep row; a
# larger cache would only keep the frames of finished sweeps alive
@functools.lru_cache(maxsize=64)
def _chain_frame(packed: bytes, k: int) -> _ChainFrame:
    """The frame of (a, b, d, e02, f11, f12, lam, x_plus, y_minus) packed
    as binary64 bytes, so that the cache tells 0.0 from -0.0."""
    a, b, d, e02, f11, f12, lam, xp, ym = struct.unpack(_FRAME_FORMAT, packed)
    lamk = lam ** k
    d_k = d + lamk * f12 * xp
    nu1 = -(e02 / (b * d)) * lamk
    # the second mix coefficient must be -nu1 - a*lam^k so that the linear
    # x-term of the first component and the xy-term of the second cancel
    # together under the jet identity 2ad - b f11 - 2 e02 c = 0
    nu2 = -nu1 - a * lamk
    su = -d_k / (b * lamk)
    sv = -d_k / lamk
    mix = np.array([[1.0, nu1], [-nu2, 1.0]])
    a_mat = mix @ np.diag([su, sv])
    shift1 = np.array([xp + a * lamk * xp, ym])
    w = 0.5 * f11 * xp
    base = mix @ (np.diag([su, sv]) @ (-shift1) - np.array([w, w]))
    return _ChainFrame(
        lamk=lamk,
        d_k=d_k,
        nu1=nu1,
        nu2=nu2,
        matrix=_tuples(a_mat),
        inverse=_tuples(np.linalg.inv(a_mat)),
        base=tuple(base.tolist()),
    )


def build_chain(family: FamilyHandle, k: int) -> RescaleChain:
    """The chain at the family's mu.  A jet mu (see ``mapcore.Jet``) gives
    m1, m2, m3, m_effective and offset[0] as jets carrying d/dmu."""
    t = family.taylor
    xp, ym = family.x_plus, family.y_minus
    frame = _chain_frame(
        struct.pack(_FRAME_FORMAT, t.a, t.b, t.d, t.e02, t.f11, t.f12,
                    family.lam, xp, ym),
        k,
    )
    lamk = frame.lamk
    mu = _value(family.mu)
    m1 = math.fsum(
        [
            mu,
            lamk * (t.c * xp - ym) * _r1_factor(family, k),
            lamk * lamk * xp * (t.a * t.c + t.f20 * xp),
        ]
    ) + (family.mu - mu)
    m2 = -frame.d_k / lamk**2 * m1
    m3 = m2 + (t.f11 * xp) ** 2 / 4.0
    m_eff = m3 * (1.0 + frame.nu1) + 0.25 * t.a**2 * lamk**2
    half = 0.5 * t.a * lamk
    base0, base1 = frame.base
    return RescaleChain(
        k=k,
        matrix=frame.matrix,
        offset=(base0 - (half + frame.nu1 * m3), base1 - half),
        inverse=frame.inverse,
        m1=m1,
        m2=m2,
        m3=m3,
        m_effective=m_eff,
        nu1=frame.nu1,
        nu2=frame.nu2,
    )


def to_rescaled(chain: RescaleChain, p):
    x, y = p
    a = chain.matrix
    return (
        a[0][0] * x + a[0][1] * y + chain.offset[0],
        a[1][0] * x + a[1][1] * y + chain.offset[1],
    )


def from_rescaled(chain: RescaleChain, p):
    x = p[0] - chain.offset[0]
    y = p[1] - chain.offset[1]
    a = chain.inverse
    return (a[0][0] * x + a[0][1] * y, a[1][0] * x + a[1][1] * y)


def m_from_mu(family: FamilyHandle, k: int, mu: float) -> RescaledParam:
    t = family.taylor
    lamk = family.lam ** k
    base = lamk * (t.c * family.x_plus - family.y_minus) * _r1_factor(family, k)
    total = math.fsum([mu, base])
    eps = np.finfo(float).eps
    if base != 0.0 and abs(total) < 1e3 * eps * abs(base):
        raise PrecisionFloorError(
            "mu sits too close to the cancellation point of the M formula"
        )
    m = -t.d / lamk**2 * total - family.s0
    return RescaledParam(m=m, correction_cubic=t.f03 / t.d**2 * lamk)


def mu_from_m(family: FamilyHandle, k: int, m: float) -> float:
    t = family.taylor
    lamk = family.lam ** k
    base = lamk * (t.c * family.x_plus - family.y_minus) * _r1_factor(family, k)
    return -base - (m + family.s0) * lamk**2 / t.d


@dataclass(frozen=True)
class RescaledReturnMap:
    rm: ReturnMap
    chain: RescaleChain


def rescaled_return_map(rm: ReturnMap) -> RescaledReturnMap:
    return RescaledReturnMap(rm=rm, chain=build_chain(rm.family, rm.k))


def rescaled_window(rr: RescaledReturnMap) -> float:
    """Half-width of the rescaled domain, growing like |lam|**(-k/4)."""
    return abs(rr.rm.family.lam) ** (-rr.rm.k / 4.0)


def eval_rescaled(rr: RescaledReturnMap, p):
    """One application of the rescaled return map.

    The incoming cross pair needs an implicit solve for the pre-passage
    height y0; the outgoing one is explicit because the image point runs
    through the saddle forward.
    """
    family = rr.rm.family
    local = family.local
    k = rr.rm.k
    x0, yk = from_rescaled(rr.chain, p)
    y0 = solve_y0(local, k, x0, yk)
    xk, _ = t0_pow_closed(local, (x0, y0), k)
    xb0, yb0 = eval_map(family.global_expr(), (xk, yk))
    _, ybk = t0_pow_closed(local, (xb0, yb0), k)
    return to_rescaled(rr.chain, (xb0, ybk))


def rescaled_jacobian(rr: RescaledReturnMap, p):
    """Exact derivative of the rescaled map at a point, from degree-1 jets."""
    return jacobian_of(lambda z: eval_rescaled(rr, z), p)


def fit_cubic_coefficient(rr: RescaledReturnMap, n: int = 13) -> float:
    """Least-squares Y^3 coefficient of the second rescaled component."""
    ys = np.linspace(-2.0, 2.0, n)
    xs = np.zeros_like(ys)
    _, yb = eval_rescaled(rr, (xs, ys))
    coef = np.polynomial.polynomial.polyfit(ys, yb, 4)
    return float(coef[3])


def _theil_sen_slope(x, y) -> float:
    """Theil-Sen slope: the median of the pairwise slopes dy/dx over pairs
    with dx > 0."""
    dx = x[:, np.newaxis] - x
    dy = y[:, np.newaxis] - y
    return float(np.median(dy[dx > 0] / dx[dx > 0]))


@dataclass(frozen=True)
class ConvergenceReport:
    m: float
    k_values: tuple
    sup_residual: tuple
    normalized: tuple
    log_slope: float | None
    slope_band: tuple
    slope_in_band: bool | None
    bounded: bool


def convergence_report(family: FamilyHandle, k_values, m: float,
                       grid_n: int = 9) -> ConvergenceReport:
    """Sup-grid distance to the limit form, normalized by k lam^2k.

    Each k is run at the parameter mu that maps to the requested M, and
    compared against Y' = M_eff + X - Y^2 + (f03/d^2) lam^k Y^3 with the
    chain's own additive constant M_eff, so that only genuine coordinate
    residuals are measured and not the O(k lam^k) parameter offset.
    """
    lin = np.linspace(-2.0, 2.0, grid_n)
    gx, gy = np.meshgrid(lin, lin)
    gx, gy = gx.ravel(), gy.ravel()
    t = family.taylor
    sups = []
    for k in k_values:
        mu = mu_from_m(family, k, m)
        fam_k = family.with_mu(mu)
        rr = rescaled_return_map(build_return_map(fam_k, k))
        xb, yb = eval_rescaled(rr, (gx, gy))
        lamk = family.lam ** k
        c3 = t.f03 / t.d**2 * lamk
        xb_lim = gy
        yb_lim = rr.chain.m_effective + gx - gy**2 + c3 * gy**3
        res = np.maximum(np.abs(xb - xb_lim), np.abs(yb - yb_lim))
        sups.append(float(np.max(res)))
    ks = np.asarray(list(k_values), dtype=float)
    scale = ks * np.abs(family.lam) ** (2.0 * ks)
    normalized = tuple(float(s / w) for s, w in zip(sups, scale))
    band = (
        2.0 * math.log(abs(family.lam)) - 0.2,
        2.0 * math.log(abs(family.lam)) + 0.4,
    )
    # residuals below the floor are rounding noise amplified by the
    # lam**(-2k) scale of the chain, not signal; skip trend fits there
    if all(s > 1e-10 for s in sups) and len(sups) >= 3:
        slope = _theil_sen_slope(ks, np.log(np.asarray(sups)))
        slope_ok = band[0] <= slope <= band[1]
        norm_slope = _theil_sen_slope(ks, np.log(np.asarray(normalized)))
        bounded = norm_slope <= 0.05
    else:
        slope, slope_ok = None, None
        bounded = True
    return ConvergenceReport(
        m=m,
        k_values=tuple(int(k) for k in k_values),
        sup_residual=tuple(sups),
        normalized=normalized,
        log_slope=slope,
        slope_band=band,
        slope_in_band=slope_ok,
        bounded=bounded,
    )
