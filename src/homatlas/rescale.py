"""Rescaling of the first-return map to a near-Henon normal form.

The return map in cross coordinates (x0, y_k) is conjugated by an affine
chain (two shifts, a diagonal scaling, a small linear mix, one more
shift) to X' = Y, Y' = M + X - Y^2 + (f03/d^2) lam^k Y^3 plus a residual
of order k lam^2k.  The chain coefficients come from the quadratic jet of
the global map; the asymptotically small corrections that a general
smooth family would carry are frozen at zero here, because the model
families are exact and the measured residuals are the ground truth.

Only the parameter offset of the chain depends on mu.  Everything else
(the validity-window check, lam**k, the 2x2 matrix and its inverse, the
mu-free part of the offset) is a ``RescaleFrame`` that depends on the
Taylor data, lam, x_plus, y_minus and k alone.  ``build_frame`` makes it
once per sweep unit (a cascade row, an atlas cell, a certificate k), and
``RescaleFrame.at_mu`` (or ``at_m``, from the rescaled parameter) is the
one way to the rescaled return map at a parameter value: it computes only
the offset at that mu and the global stages there.

The parameter conversion M <-> mu is the affine relation
M = -d lam^{-2k} (mu + lam^k (c x^+ - y^-)(1 + k beta1 lam^k x^+ y^-)) - s0
and its inverse; the bracketed sum cancels almost completely in the
interesting regime, so it is accumulated with compensated summation and
guarded by a precision floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PrecisionFloorError
from .family import FamilyHandle
from .mapcore import MapExpr, _value, eval_map, jacobian_of
from .returnmap import check_window, solve_y0, t0_pow_closed

__all__ = [
    "RescaleFrame",
    "RescaledReturnMap",
    "ConvergenceReport",
    "build_frame",
    "build_chain",
    "to_rescaled",
    "from_rescaled",
    "m_from_mu",
    "mu_from_m",
    "eval_rescaled",
    "rescaled_jacobian",
    "rescaled_window",
    "fit_cubic_coefficient",
    "convergence_report",
]


def _first_order_base(family: FamilyHandle, k: int) -> float:
    """lam^k (c x^+ - y^-)(1 + k beta1 lam^k x^+ y^-), the first-order
    mu offset of the M formula."""
    t = family.taylor
    lamk = family.lam ** k
    r1 = 1.0 + family.beta1 * k * lamk * family.x_plus * family.y_minus
    return lamk * (t.c * family.x_plus - family.y_minus) * r1


def _tuples(mat: np.ndarray) -> tuple:
    return tuple(tuple(row) for row in mat.tolist())


@dataclass(frozen=True)
class RescaleFrame:
    """The mu-independent part of the k-th rescaled return map of a family:
    lam**k, the shifted curvature d_k, the mix coefficient nu1, the 2x2
    matrix with its inverse, the offset before the mu-dependent
    (a lam^k/2 + nu1 m3, a lam^k/2) is subtracted, and the two mu-free
    summands of the first parameter m1.  Made by ``build_frame``.

    The chain at mu maps cross coordinates (x0, y_k) to rescaled
    (X, Y) = matrix (x0, y_k) + offset(mu), and inverse undoes matrix.
    matrix and inverse are 2x2 tuples of rows and the offset a 2-tuple,
    all of Python floats (offset[0] is a jet when mu is), so that
    ``to_rescaled`` and ``from_rescaled`` run on plain scalars and jets,
    never numpy scalars."""

    family: FamilyHandle
    k: int
    lamk: float
    d_k: float
    nu1: float
    matrix: tuple
    inverse: tuple
    base: tuple
    m1_terms: tuple

    def _m3(self, mu):
        """The parameter after the scaling step of the chain at mu."""
        mu0 = _value(mu)
        m1 = math.fsum([mu0, *self.m1_terms]) + (mu - mu0)
        m2 = -self.d_k / self.lamk**2 * m1
        return m2 + (self.family.taylor.f11 * self.family.x_plus) ** 2 / 4.0

    def offset(self, mu) -> tuple:
        """The offset of the chain at parameter mu.  A jet mu (see
        ``mapcore.Jet``) gives offset[0] as a jet carrying d/dmu."""
        m3 = self._m3(mu)
        half = 0.5 * self.family.taylor.a * self.lamk
        base0, base1 = self.base
        return (base0 - (half + self.nu1 * m3), base1 - half)

    def m_effective(self, mu):
        """The additive parameter of the normal form that the chain at mu
        reaches.  The contract-level M of ``m_from_mu`` differs from it by
        O(k lam^k) terms that the frozen-zero convention does not remove."""
        a = self.family.taylor.a
        return self._m3(mu) * (1.0 + self.nu1) + 0.25 * a**2 * self.lamk**2

    def at_mu(self, mu) -> RescaledReturnMap:
        """The rescaled return map at parameter mu, a float or a jet."""
        return RescaledReturnMap(
            frame=self,
            mu=mu,
            offset=self.offset(mu),
            stages=self.family.recipe.stages(mu),
        )

    def at_m(self, m) -> RescaledReturnMap:
        """The rescaled return map at rescaled parameter M, a float or a
        jet."""
        return self.at_mu(mu_from_m(self.family, self.k, m))


def build_frame(family: FamilyHandle, k: int) -> RescaleFrame:
    """The frame of the family's k-th rescaled return map; raises unless k
    lies in the validity window (see ``returnmap.check_window``)."""
    check_window(family, k)
    t = family.taylor
    lam, xp, ym = family.lam, family.x_plus, family.y_minus
    a, b = t.a, t.b
    lamk = lam ** k
    d_k = t.d + lamk * t.f12 * xp
    nu1 = -(t.e02 / (b * t.d)) * lamk
    # the second mix coefficient must be -nu1 - a*lam^k so that the linear
    # x-term of the first component and the xy-term of the second cancel
    # together under the jet identity 2ad - b f11 - 2 e02 c = 0
    nu2 = -nu1 - a * lamk
    su = -d_k / (b * lamk)
    sv = -d_k / lamk
    mix = np.array([[1.0, nu1], [-nu2, 1.0]])
    a_mat = mix @ np.diag([su, sv])
    shift1 = np.array([xp + a * lamk * xp, ym])
    w = 0.5 * t.f11 * xp
    base = mix @ (np.diag([su, sv]) @ (-shift1) - np.array([w, w]))
    return RescaleFrame(
        family=family,
        k=k,
        lamk=lamk,
        d_k=d_k,
        nu1=nu1,
        matrix=_tuples(a_mat),
        inverse=_tuples(np.linalg.inv(a_mat)),
        base=tuple(base.tolist()),
        m1_terms=(
            _first_order_base(family, k),
            lamk * lamk * xp * (a * t.c + t.f20 * xp),
        ),
    )


def build_chain(family: FamilyHandle, k: int) -> RescaledReturnMap:
    """The rescaled return map at the family's mu; kept only for
    ``spans.LAYERS`` (ROADMAP item 1)."""
    return build_frame(family, k).at_mu(family.mu)


def to_rescaled(rr: RescaledReturnMap, p):
    """Cross coordinates (x0, y_k) to rescaled (X, Y) by the map's chain."""
    x, y = p
    a = rr.frame.matrix
    return (
        a[0][0] * x + a[0][1] * y + rr.offset[0],
        a[1][0] * x + a[1][1] * y + rr.offset[1],
    )


def from_rescaled(rr: RescaledReturnMap, p):
    """Rescaled (X, Y) back to cross coordinates (x0, y_k)."""
    x = p[0] - rr.offset[0]
    y = p[1] - rr.offset[1]
    a = rr.frame.inverse
    return (a[0][0] * x + a[0][1] * y, a[1][0] * x + a[1][1] * y)


def m_from_mu(family: FamilyHandle, k: int, mu: float) -> float:
    t = family.taylor
    lamk = family.lam ** k
    base = _first_order_base(family, k)
    total = math.fsum([mu, base])
    eps = np.finfo(float).eps
    if base != 0.0 and abs(total) < 1e3 * eps * abs(base):
        raise PrecisionFloorError(
            "mu sits too close to the cancellation point of the M formula"
        )
    return -t.d / lamk**2 * total - family.s0


def mu_from_m(family: FamilyHandle, k: int, m: float) -> float:
    t = family.taylor
    lamk = family.lam ** k
    return -_first_order_base(family, k) - (m + family.s0) * lamk**2 / t.d


@dataclass(frozen=True)
class RescaledReturnMap:
    """The frame's rescaled return map at parameter mu (a jet when M is):
    the chain's offset and the global stages at mu.  Made by
    ``RescaleFrame.at_mu``."""

    frame: RescaleFrame
    mu: float
    offset: tuple
    stages: MapExpr


def rescaled_window(rr: RescaledReturnMap) -> float:
    """Half-width of the rescaled domain, growing like |lam|**(-k/4)."""
    return abs(rr.frame.family.lam) ** (-rr.frame.k / 4.0)


def eval_rescaled(rr: RescaledReturnMap, p):
    """One application of the rescaled return map.

    The incoming cross pair needs an implicit solve for the pre-passage
    height y0; the outgoing one is explicit because the image point runs
    through the saddle forward.
    """
    local, k = rr.frame.family.local, rr.frame.k
    x0, yk = from_rescaled(rr, p)
    y0 = solve_y0(local, k, x0, yk)
    xk, _ = t0_pow_closed(local, (x0, y0), k)
    xb0, yb0 = eval_map(rr.stages, (xk, yk))
    _, ybk = t0_pow_closed(local, (xb0, yb0), k)
    return to_rescaled(rr, (xb0, ybk))


def rescaled_jacobian(rr: RescaledReturnMap, p):
    """Exact derivative of the rescaled map at a point, from degree-1 jets;
    kept only for ``spans.LAYERS`` (ROADMAP item 1)."""
    return jacobian_of(lambda z: eval_rescaled(rr, z), p)


def fit_cubic_coefficient(rr: RescaledReturnMap) -> float:
    """Least-squares Y^3 coefficient of the second rescaled component, fitted
    on 13 points of Y in [-2, 2]."""
    ys = np.linspace(-2.0, 2.0, 13)
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
        frame = build_frame(family, k)
        rr = frame.at_m(m)
        xb, yb = eval_rescaled(rr, (gx, gy))
        c3 = t.f03 / t.d**2 * frame.lamk
        xb_lim = gy
        yb_lim = frame.m_effective(rr.mu) + gx - gy**2 + c3 * gy**3
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
