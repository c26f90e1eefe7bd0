"""Model families with a quadratic homoclinic tangency.

A family couples a saddle map in integrable resonant form (the local map,
determinant +1) with a polynomial-stage global map of determinant -1 that
carries the outgoing homoclinic point (0, y_minus) to the incoming one
(x_plus, 0), tangentially to {y = 0} when the splitting parameter mu is 0.

Near (0, y_minus) the global map expands as

    xbar - x_plus = a x + b eta + e20 x^2 + e11 x eta + e02 eta^2 + ...
    ybar          = mu + c x + d eta^2 + f20 x^2 + f11 x eta
                    + f30 x^3 + f21 x^2 eta + f12 x eta^2 + f03 eta^3 + ...

with eta = y - y_minus.  The coefficients are read off one evaluation of
the global stages on degree-3 Taylor jets (see ``mapcore.Jet``), exact up
to roundoff; determinant -1 forces b c = 1 and 2 a d - b f11 - 2 e02 c = 0,
both of which are checked at build time.

Two recipes are provided.  The fold recipe composes a swap, a product shear
and a cotangent lift, giving a = 0 and x-independent first component; the
shear-sandwich recipe conjugates the swap by shears on both sides and
reaches a != 0, f20 != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .exceptions import (
    ExtractionError,
    OrientationError,
    TangencyError,
    TargetUnreachableError,
)
from .mapcore import (HShear, Jet, Lift, MapExpr, Moser, Swap, Translate,
                      VShear, eval_map)

__all__ = [
    "LocalMapParams",
    "TaylorData",
    "FamilyHandle",
    "HenonLikeRecipe",
    "ShearSandwichRecipe",
    "RECIPES",
    "build_family",
    "extract_taylor",
    "alpha_invariant",
    "s0_invariant",
    "tune_to",
]


@dataclass(frozen=True)
class LocalMapParams:
    """Saddle map x -> lam*x*B(xy), y -> y/(lam*B(xy)) with B(u)=1+sum beta_i u^i."""

    lam: float
    moser_coeffs: tuple = ()

    def __post_init__(self):
        if not 0.0 < abs(self.lam) < 1.0:
            raise ValueError("multiplier must satisfy 0 < |lam| < 1")
        # the saddle stage depends on lam and beta alone; built once here
        # rather than on every saddle passage
        object.__setattr__(
            self, "_stage", Moser(self.lam, tuple(self.moser_coeffs))
        )

    def stage(self) -> Moser:
        return self._stage

    def map_expr(self) -> MapExpr:
        return MapExpr((self.stage(),))


@dataclass(frozen=True)
class TaylorData:
    a: float
    b: float
    c: float
    d: float
    e20: float
    e11: float
    e02: float
    f20: float
    f11: float
    f30: float
    f21: float
    f12: float
    f03: float


@dataclass(frozen=True)
class HenonLikeRecipe:
    """Global map xbar = x_plus + P(eta), ybar = mu + x/P'(eta) + Q(eta).

    P (with P(0)=0, P'(0)=b nonzero) shapes the first component; Q (with
    Q(0)=Q'(0)=0, Q''(0)=2d) carries the tangency.  The determinant is -1
    identically because xbar does not depend on x.  Realized as stages:
    shift eta = y - y_minus, swap, shear by the product Q*P', cotangent
    lift of P, then translate by (x_plus, mu).
    """

    p: tuple = (0.0, 1.0)
    q: tuple = (0.0, 0.0, 1.0)
    x_plus: float = 1.0
    y_minus: float = 1.0
    n0: int = 1

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        q = tuple(float(v) for v in self.q)
        if len(p) < 2 or abs(p[1]) < 1e-12:
            raise TangencyError("P'(0) must be nonzero")
        if abs(p[0]) > 1e-14:
            raise TangencyError("P must vanish at 0")
        if len(q) < 3 or abs(q[2]) < 1e-12:
            raise TangencyError("quadratic tangency needs Q''(0) != 0")
        if abs(q[0]) > 1e-14 or abs(q[1]) > 1e-14:
            raise TangencyError("Q must vanish to second order at 0")
        if not (self.x_plus > 0.0 and self.y_minus > 0.0):
            raise TangencyError("x_plus and y_minus must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        p_prime = npoly.polyder(np.asarray(p))
        # plain floats keep jet arithmetic off the slower numpy scalars
        h = tuple(float(v) for v in npoly.polymul(np.asarray(q), p_prime))
        # every stage but the last translation is independent of mu, so
        # it is built once here rather than at every parameter value
        object.__setattr__(
            self,
            "_fixed_stages",
            (Translate(0.0, -self.y_minus), Swap(), HShear(h), Lift(p)),
        )

    def stages(self, mu: float) -> MapExpr:
        return MapExpr(self._fixed_stages + (Translate(self.x_plus, mu),))


@dataclass(frozen=True)
class ShearSandwichRecipe:
    """Swap conjugated by unit-Jacobian shears; reaches a != 0 and f20 != 0.

    Composition (left to right): shift eta = y - y_minus; shear
    y += p1*x + p2*x^2; shear x += q1*y; swap; shear y += -q1*x + d*x^2
    + m3*x^3 (the linear part cancels the earlier q1 shear, which restores
    the tangency); shear x += w1*y + w2*y^2; translate by (x_plus, mu).
    """

    p1: float = 0.3
    p2: float = 0.1
    q1: float = 0.5
    d: float = 1.0
    m3: float = 0.0
    w1: float = 0.2
    w2: float = 0.0
    x_plus: float = 1.0
    y_minus: float = 1.0
    n0: int = 1

    def __post_init__(self):
        if abs(self.d) < 1e-12:
            raise TangencyError("quadratic tangency needs d != 0")
        if not (self.x_plus > 0.0 and self.y_minus > 0.0):
            raise TangencyError("x_plus and y_minus must be positive")

    def stages(self, mu: float) -> MapExpr:
        return MapExpr(
            (
                Translate(0.0, -self.y_minus),
                HShear((0.0, self.p1, self.p2)),
                VShear((0.0, self.q1)),
                Swap(),
                HShear((0.0, -self.q1, self.d, self.m3)),
                VShear((0.0, self.w1, self.w2)),
                Translate(self.x_plus, mu),
            )
        )


# the recipe behind each value of the config key [family] recipe; a
# recipe's dataclass fields are its config keys (see config._FAMILY_SCHEMA)
RECIPES = {"fold": HenonLikeRecipe, "sandwich": ShearSandwichRecipe}


@dataclass(frozen=True)
class FamilyHandle:
    """A local saddle and a global recipe at splitting parameter mu, with
    the recipe's global stages at mu and their Taylor data."""

    local: LocalMapParams
    recipe: object
    mu: float
    global_stages: MapExpr
    taylor: TaylorData
    alpha: float
    s0: float

    @property
    def lam(self) -> float:
        return self.local.lam

    @property
    def x_plus(self) -> float:
        return self.recipe.x_plus

    @property
    def y_minus(self) -> float:
        return self.recipe.y_minus

    @property
    def beta1(self) -> float:
        mc = self.local.moser_coeffs
        return mc[0] if mc else 0.0

    def with_mu(self, mu: float) -> "FamilyHandle":
        """Same family at a different splitting value; Taylor data is reused
        because mu enters the global map only through the final translation."""
        return replace(self, mu=mu, global_stages=self.recipe.stages(mu))


def extract_taylor(stages: MapExpr, x_plus: float, y_minus: float,
                   mu: float) -> TaylorData:
    """Expansion coefficients at (0, y_minus) of the global stages, which
    must carry that point to (x_plus, mu).

    The global stages run once on degree-3 jets seeded at (0, y_minus), so
    every coefficient is exact up to roundoff.
    """
    f, g = eval_map(stages, Jet.variables(0.0, y_minus, 3))
    f0, g0 = f.c[0], g.c[0]
    if abs(f0 - x_plus) > 1e-8 or abs(g0 - mu) > 1e-8:
        raise TangencyError(
            "global map does not carry (0, y_minus) to (x_plus, mu)"
        )
    g_eta = g.coeff(0, 1)
    if abs(g_eta) > 1e-8:
        raise TangencyError(f"not a tangency: G_eta(0) = {g_eta:.3e}")
    d = g.coeff(0, 2)
    if abs(d) < 1e-8:
        raise TangencyError("not a quadratic tangency: d = 0")

    return TaylorData(
        a=f.coeff(1, 0), b=f.coeff(0, 1), c=g.coeff(1, 0), d=d,
        e20=f.coeff(2, 0), e11=f.coeff(1, 1), e02=f.coeff(0, 2),
        f20=g.coeff(2, 0), f11=g.coeff(1, 1),
        f30=g.coeff(3, 0), f21=g.coeff(2, 1), f12=g.coeff(1, 2), f03=g.coeff(0, 3),
    )


def alpha_invariant(handle: FamilyHandle) -> float:
    """c*x_plus/y_minus - 1; zero at the global resonance."""
    t = handle.taylor
    return t.c * handle.x_plus / handle.y_minus - 1.0


def s0_invariant(handle: FamilyHandle) -> float:
    """d*x_plus*(a*c + f20*x_plus) - (f11*x_plus)**2/4."""
    t = handle.taylor
    xp = handle.x_plus
    return t.d * xp * (t.a * t.c + t.f20 * xp) - 0.25 * (t.f11 * xp) ** 2


def build_family(local: LocalMapParams, recipe,
                 mu: float = 0.0) -> FamilyHandle:
    """Assemble and audit a family from a local saddle and a global recipe.

    Checks at build time: the global composition is orientation-reversing,
    the marked point is carried to (x_plus, mu), the tangency is quadratic,
    and the extracted coefficients satisfy the two identities forced by
    determinant -1 (b*c = 1 and 2*a*d - b*f11 - 2*e02*c = 0).
    """
    stages = recipe.stages(mu)
    if stages.n_swaps % 2 == 0:
        raise OrientationError("orientable global map: even number of swaps")
    t = extract_taylor(stages, recipe.x_plus, recipe.y_minus, mu)
    if abs(t.b * t.c - 1.0) > 1e-10:
        raise ExtractionError(f"bc = {t.b * t.c!r}, expected 1")
    ident = 2.0 * t.a * t.d - t.b * t.f11 - 2.0 * t.e02 * t.c
    if abs(ident) > 1e-8:
        raise ExtractionError(
            f"determinant identity violated: 2ad - b*f11 - 2*e02*c = {ident:.3e}"
        )
    handle = FamilyHandle(
        local=local, recipe=recipe, mu=mu, global_stages=stages, taylor=t,
        alpha=0.0, s0=0.0,
    )
    return replace(
        handle, alpha=alpha_invariant(handle), s0=s0_invariant(handle)
    )


# |invariant - target| at which tune_to's secant stops
_TUNE_TOL = 1e-8


def _secant(fun, x0: float, x1: float, target: float, tol: float):
    f0 = fun(x0) - target
    if abs(f0) <= tol:
        return x0
    f1 = fun(x1) - target
    for _ in range(40):
        if abs(f1) <= tol:
            return x1
        denom = f1 - f0
        if denom == 0.0:
            break
        x2 = x1 - f1 * (x1 - x0) / denom
        x0, f0, x1 = x1, f1, x2
        f1 = fun(x1) - target
    raise TargetUnreachableError("target unreachable: secant did not converge")


def _tune_knob(local, recipe, mu, index, invariant, target, x0, x1):
    """The recipe with P's coefficient p[index] moved by secant from the
    seeds x0, x1 until the family's invariant ("alpha" or "s0") is target."""
    p = list(recipe.p) + [0.0] * (index + 1 - len(recipe.p))

    def invariant_of(value):
        p[index] = value
        fam = build_family(local, replace(recipe, p=tuple(p)), mu)
        return getattr(fam, invariant)

    p[index] = _secant(invariant_of, x0, x1, target, _TUNE_TOL)
    return replace(recipe, p=tuple(p))


def tune_to(
    handle: FamilyHandle,
    alpha_target: float | None = None,
    s0_target: float | None = None,
) -> FamilyHandle:
    """Retune the recipe knobs so the extracted invariants hit the targets.

    The alpha knob is the linear coefficient b of P (so c = 1/b moves with
    it and bc = 1 stays an identity); the s0 knob is the quadratic
    coefficient of P.  Only the fold recipe exposes these knobs, and its
    reachable set is s0 <= 0.
    """
    if alpha_target is None and s0_target is None:
        return handle
    recipe = handle.recipe
    if not isinstance(recipe, HenonLikeRecipe):
        raise TargetUnreachableError(
            "target unreachable: this recipe exposes no tuning knobs"
        )
    mu = handle.mu
    local = handle.local

    if alpha_target is not None:
        # alpha = c*x_plus/y_minus - 1 with c = 1/P'(0) is linear in 1/b.
        c_needed = (1.0 + alpha_target) * recipe.y_minus / recipe.x_plus
        if abs(c_needed) < 1e-10:
            raise TargetUnreachableError("target unreachable: alpha = -1 needs c = 0")
        b_seed = 1.0 / c_needed
        recipe = _tune_knob(local, recipe, mu, 1, "alpha", alpha_target,
                            b_seed, b_seed * (1.0 + 1e-3))

    if s0_target is not None:
        if s0_target > 1e-12:
            raise TargetUnreachableError(
                "target unreachable: this recipe realizes only s0 <= 0"
            )
        b = recipe.p[1]
        # s0 = -(f11*x_plus)^2/4 with f11 = -2 p2 / b^2; seed from inversion.
        p2_seed = b * b * math.sqrt(max(-s0_target, 0.0)) / recipe.x_plus
        recipe = _tune_knob(local, recipe, mu, 2, "s0", s0_target,
                            p2_seed, p2_seed + 1e-3)

    out = build_family(local, recipe, mu)
    if alpha_target is not None and abs(out.alpha - alpha_target) > 10 * _TUNE_TOL:
        raise TargetUnreachableError("target unreachable: alpha residual too large")
    if s0_target is not None and abs(out.s0 - s0_target) > 10 * _TUNE_TOL:
        raise TargetUnreachableError("target unreachable: s0 residual too large")
    return out
