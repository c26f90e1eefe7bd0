"""Saddle passages T0^k, their validity window, and membership in the
strip that the first-return maps T1 o T0^k act on.

The local saddle map preserves u = x*y, which gives a closed form for its
k-th power, and on Taylor jets for its derivatives, with no accumulation
of roundoff over k.  The return map itself composes the closed-form power
with the global map in ``rescale.eval_rescaled``.  Returning orbits live
in the strip sigma0 near the incoming homoclinic point (x_plus, 0), whose
image T0^k(sigma0) lies near the outgoing one (0, y_minus).  The window
``k_min <= k <= k_max`` (``check_window``) bounds the k for which that
picture holds, and ``in_sigma0`` tests membership exactly.  The
horseshoe classifier counts crossings of the folded image of the
tangency fiber through sigma0, sampled adaptively until the count
stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CrossFormSolveError,
    DomainError,
    EscapeError,
    PrecisionFloorError,
    StripWindowError,
)
from .family import FamilyHandle, LocalMapParams
from .mapcore import (ESCAPE_RADIUS, Jet, _SADDLE_FLOOR, _all, _any, _lamk2,
                      _value, _whole, eval_map, jacobian_of)

__all__ = [
    "ReturnMap",
    "HorseshoeClass",
    "t0_pow_closed",
    "t0_pow_jacobian",
    "solve_y0",
    "build_return_map",
    "window_halfwidth",
    "k_min",
    "k_max",
    "check_window",
    "in_sigma0",
    "validate_cross_form",
    "CrossFormReport",
    "classify_horseshoe",
]


def _signed_pow(base, k: int):
    """base**k on floats, arrays and jets; base must be nonzero.

    Floats take Python's power; arrays, numpy scalars and floats whose
    Python power overflows take numpy's, which overflows to +-inf without
    a warning: the callers' guards turn that inf into an error.  Arrays
    go lane by lane, so a caller whose lanes share one base hands over
    that float instead.  On a jet the value comes from the float path,
    the higher coefficients from the series base0**k * sum C(k, j) r**j,
    r = (base - base0)/base0.  A jet whose value part is an array follows
    the float path lane by lane, so each lane gets the bits its one-lane
    jet would; there k may be an array of ints, one per lane, and each
    lane takes its own.  Plain arrays keep numpy's power.
    """
    if isinstance(base, Jet):
        b0 = base.c[0]
        r = (base - b0) / b0
        term = total = 1.0
        for j in range(1, base.n + 1):
            term = term * r * ((k - j + 1) / j)
            total = total + term
        if isinstance(b0, np.ndarray):
            lanes = zip(b0.tolist(), np.broadcast_to(k, b0.shape).tolist())
            return np.array([_signed_pow(v, kv) for v, kv in lanes]) * total
        return _signed_pow(b0, k) * total
    if type(base) is float:
        try:
            return base ** k
        except OverflowError:
            base = np.float64(base)
    with np.errstate(over="ignore"):
        return base ** k


def t0_pow_closed(local: LocalMapParams, p, k: int, lamk=None):
    """k-th power of the saddle map using the invariant u = x*y.

    x_k = lam**k * x * B(u)**k and y_k = x*y/x_k; one scaling factor is
    computed and applied to both coordinates.  Runs on floats, arrays and
    jets; the guards test value parts.  Without Moser terms B is 1.0
    (``Moser.bval``) and the factor is lamk, lam**k as the caller's
    ``rescale.RescaleFrame`` holds it (by default lam**k): one float
    for every lane of an array, or one number per lane when the lanes
    have their own k.  With Moser terms each lane of a jet takes
    (lam B)**k with its own k, an int or an array of ints (see
    ``_signed_pow``).
    """
    x, y = p
    if not local.moser_coeffs:
        factor = _signed_pow(local.lam, k) if lamk is None else lamk
    else:
        b = local.stage().bval(x, y)
        if _any(_value(b) <= _SADDLE_FLOOR):
            raise EscapeError("saddle factor left its positive domain")
        factor = _signed_pow(local.lam * b, k)
    xk = x * factor
    try:
        yk = y / factor
    except ZeroDivisionError:
        # the factor underflowed: y_k is infinite
        raise EscapeError("orbit escaped during the saddle passage") from None
    if _any(abs(_value(xk)) + abs(_value(yk)) > ESCAPE_RADIUS):
        raise EscapeError("orbit escaped during the saddle passage")
    return xk, yk


def t0_pow_jacobian(local: LocalMapParams, p, k: int):
    """Exact derivative of the k-th saddle power, from degree-1 jets; kept
    only for ``spans.LAYERS`` (ROADMAP item 1)."""
    return jacobian_of(lambda z: t0_pow_closed(local, z, k), p)


def solve_y0(local: LocalMapParams, k: int, x0, yk, lamk=None):
    """Solve y0 from the cross pair (x0, y_k): y0 = lam**k y_k B(x0 y0)**k.

    lamk is lam**k as the caller's ``rescale.RescaleFrame`` holds it (by
    default Python's power of float(lam)).  Without Moser terms B = 1 and
    y0 = lamk y_k, for floats, arrays and jets alike; lamk may then be one
    number per lane.  Otherwise one fixed-point loop serves floats and
    arrays: it starts from the B = 1 value and stops when every lane has
    moved by at most 1e-15 relative; the contraction factor is O(k
    lam**k), so a handful of sweeps reaches full precision.  The pass in
    which any iterate is +-inf or nan raises CrossFormSolveError ("ran
    away"), before B is evaluated on it.  On jets the value converges in
    that loop, on floats; a jet whose value part is an array solves each
    lane's value alone, on Python floats with that lane's own x0, y_k, k
    and lamk (arrays over the lanes, or shared), so each lane gets the
    bits of its one-lane jet, and the batch raises the error of the first
    lane that fails.  Then n Newton steps with the derivative frozen at the
    value each gain one order of the degree-n jet.
    """
    if lamk is None:
        lamk = float(local.lam) ** k
    if not local.moser_coeffs:
        return lamk * yk
    stage = local.stage()
    if isinstance(x0, Jet) or isinstance(yk, Jet):

        def phi(x, y, y0):
            return lamk * y * _signed_pow(stage.bval(x, y0), k)

        v0, vk = _value(x0), _value(yk)
        if isinstance(v0, np.ndarray) or isinstance(vk, np.ndarray):
            columns = np.broadcast_arrays(v0, vk, k, lamk)
            y0 = np.array([solve_y0(local, kj, x, y, lj) for x, y, kj, lj
                           in zip(*(c.tolist() for c in columns))])
        else:
            y0 = solve_y0(local, k, v0, vk, lamk)
        slope = phi(v0, vk, Jet.variables(y0, 1)[0]).c[1]
        y = phi(x0, yk, y0)
        for _ in range(y.n):
            y.c[0] = y0
            y = y + (phi(x0, yk, y) - y) / (1.0 - slope)
        y.c[0] = y0
        return y
    y0 = lamk * yk
    for _ in range(60):
        b = stage.bval(x0, y0)
        if _any(b <= _SADDLE_FLOOR):
            raise CrossFormSolveError("saddle factor left its positive domain")
        y_new = lamk * yk * _signed_pow(b, k)
        size = abs(y_new)
        if not _all(size < math.inf):
            raise CrossFormSolveError("cross-form solve ran away")
        if _all(abs(y_new - y0) <= 1e-15 * np.maximum(1.0, size)):
            return y_new
        y0 = y_new
    raise CrossFormSolveError("cross-form solve failed to converge")


def window_halfwidth(family: FamilyHandle) -> float:
    return min(family.x_plus, family.y_minus) / 10.0


def k_min(family: FamilyHandle) -> int:
    """Smallest k for which T0^k carries the sigma0 window inside Pi-minus."""
    delta = window_halfwidth(family)
    k = 1
    while abs(family.lam) ** k * (family.x_plus + delta) > delta:
        k += 1
    return k


def k_max(family: FamilyHandle) -> int:
    """Largest k with lam**(2k) still at least 1e-10 (the precision floor)."""
    return int(math.floor(-10.0 / (2.0 * math.log10(abs(family.lam)))))


@dataclass(frozen=True)
class ReturnMap:
    """A family and a passage count k; kept only for ``spans.LAYERS``
    (ROADMAP item 1)."""

    family: FamilyHandle
    k: int


def check_window(family: FamilyHandle, k: int) -> None:
    """The validity window of every strip computation: raise unless
    k_min(family) <= k <= k_max(family), and DomainError unless k is a
    whole number."""
    _whole(k, "k")
    if k < k_min(family):
        raise StripWindowError(f"strip outside window: k={k} < {k_min(family)}")
    if k > k_max(family):
        raise PrecisionFloorError(
            f"k={k} puts lam**2k below the binary64 noise floor"
        )


def build_return_map(family: FamilyHandle, k: int) -> ReturnMap:
    """``ReturnMap(family, k)`` after ``check_window``; kept only for
    ``spans.LAYERS`` (ROADMAP item 1)."""
    check_window(family, k)
    return ReturnMap(family, k)


def in_sigma0(family: FamilyHandle, k: int, x, y):
    """Exact membership: (x, y) in Pi-plus and T0^k(x, y) in Pi-minus.

    Points where the saddle factor leaves its domain are simply outside,
    never an error, since arbitrary image points get tested here.  As in
    ``t0_pow_closed``, a saddle without Moser terms scales every point by
    the one float lam**k.  A k whose lam**2k leaves binary64 is refused
    (``mapcore._lamk2``).
    """
    _lamk2(family.lam, k)
    delta = window_halfwidth(family)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok_here = np.abs(x - family.x_plus) <= delta
    b = family.local.stage().bval(x, y)
    valid = b > _SADDLE_FLOOR
    if isinstance(b, np.ndarray):
        b = np.where(valid, b, 1.0)
    factor = _signed_pow(family.lam * b, _whole(k, "k"))
    xk = x * factor
    yk = y / factor
    ok_there = valid & (np.abs(xk) <= delta) & (np.abs(yk - family.y_minus) <= delta)
    return ok_here & ok_there


@dataclass(frozen=True)
class CrossFormReport:
    lam: float
    beta1: float
    k_values: tuple
    sup_normalized: tuple
    slope_per_k: tuple
    beta1_fitted: float


def validate_cross_form(family: FamilyHandle, k_values) -> CrossFormReport:
    """Measure the first-order cross-form residual of the saddle power.

    For sampled cross pairs (x0, y_k) the identities
    x_k = lam**k x0 (1 + beta1 k lam**k x0 y_k) + O(lam**2k) and
    y0 = lam**k y_k (1 + beta1 k lam**k x0 y_k) + O(lam**2k) are checked;
    the sup residual is reported divided by lam**2k.  Per-k regression of
    the measured correction against lam**k x0 y_k recovers beta1 * k, and
    a through-origin fit across k recovers beta1 itself.  The pairs are
    drawn from the family's strip window, and every k must lie in the
    validity window (see ``check_window``).
    """
    if len(k_values) == 0:
        raise DomainError("validate_cross_form needs at least one k")
    for k in k_values:
        check_window(family, k)
    local = family.local
    n_samples = 100
    rng = np.random.default_rng(0)
    delta = window_halfwidth(family)
    xp, ym = family.x_plus, family.y_minus
    beta1 = family.beta1
    sups, slopes = [], []
    for k in k_values:
        x0 = rng.uniform(xp - delta, xp + delta, n_samples)
        yk = rng.uniform(ym - delta, ym + delta, n_samples)
        y0 = solve_y0(local, k, x0, yk)
        xk, yk_check = t0_pow_closed(local, (x0, y0), k)
        if not np.max(np.abs(yk_check - yk)) < 1e-12:
            raise CrossFormSolveError(
                f"solved y0 does not reproduce y_k at k={k}"
            )
        lamk = float(family.lam) ** k
        r1 = 1.0 + beta1 * k * lamk * x0 * yk
        res = np.maximum(
            np.abs(xk - lamk * x0 * r1), np.abs(y0 - lamk * yk * r1)
        )
        sups.append(float(np.max(res)) / lamk**2)
        # measured correction x_k/(lam^k x0) - 1 against the invariant term
        corr = xk / (lamk * x0) - 1.0
        reg = lamk * x0 * yk
        denom = float(np.dot(reg, reg))
        slopes.append(float(np.dot(reg, corr)) / denom if denom > 0 else 0.0)
    ks = np.asarray(k_values, dtype=float)
    sl = np.asarray(slopes)
    beta1_fitted = float(np.dot(ks, sl) / np.dot(ks, ks))
    return CrossFormReport(
        lam=family.lam,
        beta1=beta1,
        k_values=tuple(int(k) for k in k_values),
        sup_normalized=tuple(sups),
        slope_per_k=tuple(slopes),
        beta1_fitted=beta1_fitted,
    )


@dataclass(frozen=True)
class HorseshoeClass:
    tag: str
    evidence: dict
    predicted: str
    agrees: bool


def _count_runs(inside: np.ndarray) -> int:
    flat = np.asarray(inside, dtype=bool).astype(int)
    if flat.size == 0:
        return 0
    starts = int(flat[0] == 1) + int(np.sum((flat[1:] == 1) & (flat[:-1] == 0)))
    return starts


def _component_count(family: FamilyHandle, k: int):
    """Crossing count of the folded image of the tangency fiber through
    sigma0, sampled at doubling resolution until the run count is stable
    three times in a row; None when it never stabilizes.

    The fiber x0 = x_plus is the one whose image parabola has its vertex
    at the height c*lam^k*x_plus that the sign table compares against the
    strip position lam^k*y_minus.  Off-center fibers shift the vertex by
    up to c*delta*lam^k, which is the same order as the strip half-height,
    so counting them would smear the alpha threshold by O(delta) instead
    of the O(lam^k) resolution the table is stated at.

    The starting resolution scales like |lam|**(-k/2) because a crossing
    of the image parabola through the strip occupies a parameter window
    of that order; starting coarser risks a stable miscount.
    """
    local = family.local
    delta = window_halfwidth(family)
    xp, ym = family.x_plus, family.y_minus
    expr = family.global_stages
    history = []
    n = 64
    floor = 12.0 * abs(family.lam) ** (-k / 2.0)
    n_cap = 2**15
    while n < floor and n < n_cap // 4:
        n *= 2
    while n <= n_cap:
        yk = np.linspace(ym - delta, ym + delta, n)
        y0 = solve_y0(local, k, np.full(n, xp), yk)
        ax, ay = t0_pow_closed(local, (np.full(n, xp), y0), k)
        bx_, by_ = eval_map(expr, (ax, ay))
        inside = in_sigma0(family, k, bx_, by_)
        history.append(_count_runs(inside))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return history[-1]
        n *= 2
    return None


def classify_horseshoe(family: FamilyHandle, k_values) -> HorseshoeClass:
    """Six-case classification of the tangency geometry at mu = 0.

    Counts intersection components for each k and matches them against
    the sign prediction: two components exactly when the strip lies on
    the opening side of the image parabola, i.e. when
    -sign(d) * sign(lam**k) * sign(alpha) > 0.  The tag reflects the
    measured pattern; "inconclusive" is returned when sampling cannot
    stabilize a count (only expected near alpha = 0).  Every k must lie
    in the validity window (see ``check_window``), and there must be one.
    """
    if len(k_values) == 0:
        raise DomainError("no k to classify")
    for k in k_values:
        check_window(family, k)
    t = family.taylor
    evidence = {k: _component_count(family, k) for k in k_values}
    lam_sign = 1.0 if family.lam > 0 else -1.0

    def predicted_count(k):
        sgn = -math.copysign(1.0, t.d) * lam_sign**k * math.copysign(1.0, family.alpha)
        return 2 if sgn > 0 else 0

    predicted_pattern = {k: predicted_count(k) for k in k_values}
    predicted_tag = _tag_from_pattern(predicted_pattern, t.c, family.alpha)
    if any(v is None for v in evidence.values()):
        tag = "inconclusive"
    else:
        tag = _tag_from_pattern(evidence, t.c, family.alpha)
    return HorseshoeClass(
        tag=tag,
        evidence=evidence,
        predicted=predicted_tag,
        agrees=tag == predicted_tag,
    )


def _tag_from_pattern(pattern: dict, c: float, alpha: float) -> str:
    counts = [pattern[k] for k in sorted(pattern)]
    if all(v == 0 for v in counts):
        return "empty" if c < 0 else "alpha-positive-trivial"
    if all(v == 2 for v in counts):
        return "regular" if c < 0 else "alpha-negative-horseshoes"
    by_parity = {k % 2: pattern[k] for k in pattern}
    if (
        len({pattern[k] for k in pattern if k % 2 == 0}) <= 1
        and len({pattern[k] for k in pattern if k % 2 == 1}) <= 1
        and sorted(by_parity.values()) == [0, 2]
    ):
        return "parity-alternating"
    return "inconclusive"
