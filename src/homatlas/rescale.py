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
the offset at that mu and the global stages there.  The frame owns the
saddle power lam**k that every passage of its map reads, so its
k-dependent numbers are data.  ``stack_frames`` stacks the frames of
several families, or of one family at several k, into one frame whose
lanes one map runs all at once, and ``RescaleFrame.take`` selects lanes
of a stacked frame by index.

The parameter conversion M <-> mu is the affine relation
M = -d lam^{-2k} (mu + lam^k (c x^+ - y^-)(1 + k beta1 lam^k x^+ y^-)) - s0
and its inverse; the bracketed sum cancels almost completely in the
interesting regime, so it is accumulated with compensated summation and
guarded by a precision floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DomainError, NonFiniteResultError, PrecisionFloorError
from .family import FamilyHandle, LaneRecipe, LocalMapParams, stack_recipes
from .mapcore import (MapExpr, _lamk2, _stack, _take, _value, _whole,
                      eval_map, jacobian_of)
from .returnmap import check_window, solve_y0, t0_pow_closed

__all__ = [
    "RescaleFrame",
    "RescaledReturnMap",
    "ConvergenceReport",
    "build_frame",
    "stack_frames",
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
    lam**k (the saddle power that every passage of its map reads) with
    its square lamk2, the shifted curvature d_k, the mix coefficient nu1,
    the 2x2 matrix with its inverse, the offset before the mu-dependent
    (half + nu1 m3, half) is subtracted, the two mu-free summands of the
    first parameter m1, and the numbers of the family that the map at a
    parameter reads: shift = (f11 x_plus)**2/4, half = a lam^k/2, s0 and
    the curvature d, the local saddle and the recipe.  Made by
    ``build_frame``.

    The chain at mu maps cross coordinates (x0, y_k) to rescaled
    (X, Y) = matrix (x0, y_k) + offset(mu), and inverse undoes matrix.
    matrix and inverse are 2x2 tuples of rows and the offset a 2-tuple,
    all of Python floats (offset[0] is a jet or an array when mu is), so
    that ``to_rescaled`` and ``from_rescaled`` run on plain scalars, jets
    and array lanes, never numpy scalars.

    ``stack_frames`` stacks frames into one frame whose per-frame numbers,
    k among them, are arrays over them (lanes); its family is None."""

    family: FamilyHandle | None
    k: int
    lamk: float
    lamk2: float
    d_k: float
    nu1: float
    matrix: tuple
    inverse: tuple
    base: tuple
    m1_terms: tuple
    shift: float
    half: float
    s0: float
    d: float
    local: LocalMapParams
    recipe: object

    def _m3(self, mu):
        """The parameter after the scaling step of the chain at mu.  When
        the value part of mu is an array, the compensated sum of m1 runs
        lane by lane, each lane with its own m1_terms."""
        mu0 = _value(mu)
        if isinstance(mu0, np.ndarray):
            columns = [v.tolist() if isinstance(v, np.ndarray)
                       else itertools.repeat(v)
                       for v in (mu0, *self.m1_terms)]
            m1 = np.array(list(map(math.fsum, zip(*columns))))
            if mu is not mu0:
                m1 = m1 + (mu - mu0)
        else:
            m1 = math.fsum([mu0, *self.m1_terms]) + (mu - mu0)
        m2 = -self.d_k / self.lamk2 * m1
        return m2 + self.shift

    def offset(self, mu) -> tuple:
        """The offset of the chain at parameter mu.  A jet mu (see
        ``mapcore.Jet``) gives offset[0] as a jet carrying d/dmu."""
        m3 = self._m3(mu)
        base0, base1 = self.base
        return (base0 - (self.half + self.nu1 * m3), base1 - self.half)

    def m_effective(self, mu):
        """The additive parameter of the normal form that the chain at mu
        reaches.  The contract-level M of ``m_from_mu`` differs from it by
        O(k lam^k) terms that the frozen-zero convention does not remove."""
        a = self.family.taylor.a
        return self._m3(mu) * (1.0 + self.nu1) + 0.25 * a**2 * self.lamk2

    def mu_from_m(self, m):
        """The parameter mu at rescaled parameter M, as ``mu_from_m`` but
        from the frame's own numbers; elementwise on arrays."""
        return _mu_from_m(self.s0, self.d, self.lamk2, self.m1_terms[0], m)

    def at_mu(self, mu) -> RescaledReturnMap:
        """The rescaled return map at parameter mu: a float, a jet, or an
        array of lanes."""
        return RescaledReturnMap(
            frame=self,
            mu=mu,
            offset=self.offset(mu),
            stages=self.recipe.stages(mu),
        )

    def at_m(self, m) -> RescaledReturnMap:
        """The rescaled return map at rescaled parameter M: a float, a
        jet, or an array of lanes."""
        return self.at_mu(self.mu_from_m(m))

    def take(self, index) -> RescaleFrame:
        """The lanes at index (a sequence of lane numbers, repeats allowed)
        of a stacked frame, as one stacked frame: the frame itself when
        index lists all its lanes in order, and a frame on floats, which
        serves every lane, always."""
        if self.family is not None:
            return self
        index = np.asarray(index, dtype=np.intp)
        if np.array_equal(index, np.arange(len(self.s0))):
            return self
        recipe = self.recipe
        return replace(
            self,
            recipe=(recipe.take(index) if isinstance(recipe, LaneRecipe)
                    else recipe),
            **{name: _take(getattr(self, name), index)
               for name in _LANE_FIELDS},
        )


def build_frame(family: FamilyHandle, k: int) -> RescaleFrame:
    """The frame of the family's k-th rescaled return map; raises unless k
    lies in the validity window (see ``returnmap.check_window``),
    DomainError when the chain is singular (d_k = 0), and
    NonFiniteResultError when a number of the frame overflows binary64
    (x_plus or y_minus near 1e300, say)."""
    check_window(family, k)
    t = family.taylor
    lam, xp, ym = family.lam, family.x_plus, family.y_minus
    a, b = t.a, t.b
    lamk = lam ** k
    d_k = t.d + lamk * t.f12 * xp
    if d_k == 0.0:
        # the chain would scale both coordinates by 0, a singular matrix
        raise DomainError(f"the rescaling chain at k={k} is singular: "
                          "d + lam**k f12 x_plus = 0")
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
    frame = RescaleFrame(
        family=family,
        k=k,
        lamk=lamk,
        lamk2=lamk**2,
        d_k=d_k,
        nu1=nu1,
        matrix=_tuples(a_mat),
        inverse=_tuples(np.linalg.inv(a_mat)),
        base=tuple(base.tolist()),
        m1_terms=(
            _first_order_base(family, k),
            lamk * lamk * xp * (a * t.c + t.f20 * xp),
        ),
        shift=(t.f11 * xp) ** 2 / 4.0,
        half=0.5 * a * lamk,
        s0=family.s0,
        d=t.d,
        local=family.local,
        recipe=family.recipe,
    )
    # a list, not a tuple: CPython keeps freed tuples of up to 20 items
    # on free lists, and one 20-item tuple per frame raised the peak RSS
    # of 5000 repeated benchmark invocations by about 0.5 MB
    numbers = [frame.lamk, frame.lamk2, frame.d_k, frame.nu1, *frame.base,
               *frame.m1_terms, frame.shift, frame.half, frame.s0, frame.d,
               *itertools.chain(*frame.matrix, *frame.inverse)]
    if not all(map(math.isfinite, numbers)):
        raise NonFiniteResultError(
            f"the rescaling chain at k={k} overflows binary64"
        )
    return frame


# the per-frame numbers of a frame; the local saddle is shared by the lanes
_LANE_FIELDS = ("k", "lamk", "lamk2", "d_k", "nu1", "matrix", "inverse",
                "base", "m1_terms", "shift", "half", "s0", "d")


def stack_frames(frames) -> RescaleFrame:
    """Frames of one local saddle (of several families, or of one family
    at several k) stacked into one frame whose per-frame numbers are
    arrays over the frames (lanes), and whose recipe is theirs when they
    share one, else ``family.stack_recipes`` of theirs.  Each number,
    lam**k and k among
    them, is stacked as the frame computed it on Python floats, never
    computed from a stacked array, so that each lane of a map built from
    the stacked frame gets the bits of its own frame's map."""
    first = frames[0]
    if any(f.local != first.local for f in frames):
        raise DomainError("stacked frames must share the local saddle")
    shared = all(f.recipe is first.recipe for f in frames)
    return replace(
        first,
        family=None,
        recipe=(first.recipe if shared
                else stack_recipes([f.recipe for f in frames])),
        **{name: _stack([getattr(f, name) for f in frames])
           for name in _LANE_FIELDS},
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
    lamk2 = _lamk2(family.lam, k)
    t = family.taylor
    base = _first_order_base(family, k)
    total = math.fsum([mu, base])
    eps = np.finfo(float).eps
    if base != 0.0 and abs(total) < 1e3 * eps * abs(base):
        raise PrecisionFloorError(
            "mu sits too close to the cancellation point of the M formula"
        )
    return -t.d / lamk2 * total - family.s0


def _mu_from_m(s0, d, lamk2, base, m):
    """mu at rescaled parameter M, given the family's s0 and curvature d,
    lam**2k and the first-order base; elementwise on arrays."""
    return -base - (m + s0) * lamk2 / d


def mu_from_m(family: FamilyHandle, k: int, m: float) -> float:
    return _mu_from_m(family.s0, family.taylor.d, _lamk2(family.lam, k),
                      _first_order_base(family, k), m)


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
    return abs(rr.frame.local.lam) ** (-rr.frame.k / 4.0)


def eval_rescaled(rr: RescaledReturnMap, p):
    """One application of the rescaled return map.

    The incoming cross pair needs an implicit solve for the pre-passage
    height y0; the outgoing one is explicit because the image point runs
    through the saddle forward.
    """
    local, k, lamk = rr.frame.local, rr.frame.k, rr.frame.lamk
    x0, yk = from_rescaled(rr, p)
    y0 = solve_y0(local, k, x0, yk, lamk)
    xk, _ = t0_pow_closed(local, (x0, y0), k, lamk)
    xb0, yb0 = eval_map(rr.stages, (xk, yk))
    _, ybk = t0_pow_closed(local, (xb0, yb0), k, lamk)
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
    with dx > 0; DomainError when no pair has one (every x the same)."""
    dx = x[:, np.newaxis] - x
    dy = y[:, np.newaxis] - y
    pairs = dx > 0
    if not pairs.any():
        raise DomainError("a slope in k needs two distinct k")
    return float(np.median(dy[pairs] / dx[pairs]))


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
    if _whole(grid_n, "grid_n") < 1:
        raise DomainError("grid_n must be at least 1")
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
