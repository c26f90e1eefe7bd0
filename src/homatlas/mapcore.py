"""Exact planar map primitives with unit-modulus Jacobian stages.

Every map in this package is a composition of primitive stages whose Jacobian
determinant is exactly +1 or -1 by construction (shears, a coordinate swap,
translations, a resonant-form saddle stage and a cotangent lift of a
polynomial coordinate change).  Composing stages can therefore never drift
away from area preservation: the determinant of the composite is
(-1)**(number of swaps) up to floating-point roundoff.

Points are plain ``(x, y)`` tuples of Python floats.  ``eval_map`` also
accepts numpy arrays for both coordinates and then evaluates the whole batch
at once, and it accepts ``Jet`` coordinates: derivatives of any order come
from running the stages on Taylor jets (forward-mode automatic
differentiation, Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).
Scalar and jet evaluations stay on Python floats and complex numbers; numpy
serves the batches and the linear algebra.  The stage guards reduce only
array conditions (``_any``, ``_all``) and take the truth of a scalar one
directly, since a numpy reduction of a single bool costs far more than the
comparison.

The damped Newton and the bordered locator live here too, below every
map that runs on jets: ``_locate_trace`` finds the parameter M at which
the r-orbit of a map family M -> F_M has a given trace of D(F^r), for
the rescaled return map and for the limit map x' = y, y' = M + x - y**2
alike.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BracketError,
    CrossFormSolveError,
    EscapeError,
    NewtonDivergedError,
)

__all__ = [
    "ESCAPE_RADIUS",
    "Jet",
    "VShear",
    "HShear",
    "Swap",
    "Translate",
    "Moser",
    "Lift",
    "MapExpr",
    "eval_map",
    "jacobian",
    "jacobian_of",
    "iterate",
]

# Orbits whose coordinates exceed this are treated as escaped.
ESCAPE_RADIUS = 1.0e8


@functools.cache
def _layout(n: int, size: int):
    """Positions of the exponents of degree-n jets with ``size`` coefficients
    in graded order (total degree, then lexicographically descending), and
    per product coefficient the (left, right) index pairs summed into it:
    left exponents ascending, so the pair with right index 0 comes last."""
    m = next(m for m in itertools.count(1) if math.comb(n + m, m) >= size)
    exps = sorted(
        (e for e in itertools.product(range(n + 1), repeat=m) if sum(e) <= n),
        key=lambda e: (sum(e), [-a for a in e]),
    )
    index = {e: i for i, e in enumerate(exps)}
    pairs = tuple(
        tuple(
            (index[e1], index[tuple(a - b for a, b in zip(e, e1))])
            for e1 in itertools.product(*(range(a + 1) for a in e))
        )
        for e in exps
    )
    return index, pairs


@functools.cache
def _kernels(n: int, size: int):
    """Straight-line product and quotient of coefficient lists of degree-n
    jets with ``size`` coefficients, generated from ``_layout``'s pairs.

    Each product coefficient is 0.0 + a_i b_j + ... summed left to right in
    pair order; each quotient coefficient q_k subtracts q_i b_j in pair
    order from a_k, skipping the last pair (k, 0), and then divides by b_0.
    """
    pairs = _layout(n, size)[1]
    a = [f"a{i}" for i in range(size)]
    b = [f"b{i}" for i in range(size)]
    q = [f"q{i}" for i in range(size)]
    unpack = [f"{', '.join(a)}, = a", f"{', '.join(b)}, = b"]
    products = [
        " + ".join(["0.0"] + [f"{a[i]} * {b[j]}" for i, j in ps])
        for ps in pairs
    ]
    quotients = [
        f"{q[k]} = ("
        + " - ".join([a[k]] + [f"{q[i]} * {b[j]}" for i, j in ps[:-1]])
        + ") / b0"
        for k, ps in enumerate(pairs)
    ]
    mul = unpack + [f"return [{', '.join(products)}]"]
    div = unpack + quotients + [f"return [{', '.join(q)}]"]
    source = "".join(
        f"def {name}(a, b):\n" + "".join(f"    {line}\n" for line in body)
        for name, body in (("mul", mul), ("div", div))
    )
    namespace = {}
    exec(source, namespace)
    return namespace["mul"], namespace["div"]


class Jet:
    """Truncated multivariate Taylor polynomial of degree n.

    ``c`` lists the coefficients, Python floats or complex numbers, of the
    monomials of total degree <= n in graded order; for two variables that
    is 1, dx, dy, dx**2, dx dy, dy**2, dx**3, ...  Arithmetic with numbers
    and with jets of the same degree and size follows the truncated product
    rule, jet by jet through the straight-line kernels of ``_kernels``; the
    value part ``c[0]`` comes out exactly as the same arithmetic on plain
    numbers.
    """

    __slots__ = ("n", "c")
    # numpy scalars defer to the jet operators instead of wrapping the jet
    __array_ufunc__ = None

    def __init__(self, n: int, c: list):
        self.n = n
        self.c = c

    @classmethod
    def variables(cls, *values_and_degree):
        """variables(v1, ..., vm, n): the jets v1 + d1, ..., vm + dm, n >= 1."""
        *values, n = values_and_degree
        size = math.comb(n + len(values), n)
        return tuple(
            cls(n, [v] + [float(j == i) for j in range(size - 1)])
            for i, v in enumerate(values)
        )

    def coeff(self, *exponents):
        """Taylor coefficient of d1**e1 d2**e2 ... for exponents e1, e2, ..."""
        return self.c[_layout(self.n, len(self.c))[0][exponents]]

    def diff(self, i: int):
        """Partial derivative in the i-th variable, a jet of degree n - 1."""
        index = _layout(self.n, len(self.c))[0]
        c = [e[i] * self.c[j] for e, j in index.items() if e[i]]
        return Jet(self.n - 1, c)

    def __neg__(self):
        return Jet(self.n, [-a for a in self.c])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.n, [a + b for a, b in zip(self.c, other.c)])
        return Jet(self.n, [self.c[0] + other] + self.c[1:])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, [a * other for a in self.c])
        return Jet(self.n, _kernels(self.n, len(self.c))[0](self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, [a / other for a in self.c])
        return Jet(self.n, _kernels(self.n, len(self.c))[1](self.c, other.c))

    def __rtruediv__(self, other):
        return Jet(self.n, [other] + [0.0] * (len(self.c) - 1)) / self


def _value(v):
    """The value part of a jet; numbers and arrays pass through."""
    return v.c[0] if isinstance(v, Jet) else v


def _any(c) -> bool:
    """Whether any lane of a guard condition holds: a reduction on arrays,
    plain truth on a scalar condition."""
    return c.any() if isinstance(c, np.ndarray) else bool(c)


def _all(c) -> bool:
    """Whether every lane of a guard condition holds; see ``_any``."""
    return c.all() if isinstance(c, np.ndarray) else bool(c)


def _polyval(coeffs, t):
    """Horner evaluation of sum(coeffs[i] * t**i) on floats, arrays or jets.

    The operation order is that of ``numpy.polynomial.polynomial.polyval``,
    so array results match it bit for bit.  Only an array starts from the
    broadcast coeffs[-1] + t*0; on a float or a jet Horner starts from the
    number itself, so a constant polynomial stays a plain number.
    """
    out = coeffs[-1] + t * 0 if isinstance(t, np.ndarray) else coeffs[-1]
    for c in coeffs[-2::-1]:
        out = c + out * t
    return out


def _polyder(coeffs):
    return tuple(j * c for j, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class VShear:
    """(x, y) -> (x + g(y), y) with polynomial g.  det = +1."""

    g: tuple

    def apply(self, x, y):
        return x + _polyval(self.g, y), y


@dataclass(frozen=True)
class HShear:
    """(x, y) -> (x, y + h(x)) with polynomial h.  det = +1."""

    h: tuple

    def apply(self, x, y):
        return x, y + _polyval(self.h, x)


@dataclass(frozen=True)
class Swap:
    """(x, y) -> (y, x).  det = -1; the only orientation-reversing stage."""

    def apply(self, x, y):
        return y, x


@dataclass(frozen=True)
class Translate:
    """(x, y) -> (x + dx, y + dy).  det = +1."""

    dx: float
    dy: float

    def apply(self, x, y):
        return x + self.dx, y + self.dy


@dataclass(frozen=True)
class Moser:
    """Integrable saddle stage (x, y) -> (lam*x*B(xy), y/(lam*B(xy))).

    B(u) = 1 + beta[0]*u + beta[1]*u**2 + ... ; the product x*y is preserved
    exactly and the Jacobian determinant is identically +1.  Without Moser
    terms B is the number 1.0 on floats, arrays and jets alike, so a saddle
    power (lam*B)**k is one float power shared by every lane of an array.
    """

    lam: float
    beta: tuple = ()

    def bval(self, x, y):
        """B(x*y); the product is formed only when there are Moser terms."""
        if not self.beta:
            return 1.0
        return _polyval((1.0,) + tuple(self.beta), x * y)

    def apply(self, x, y):
        b = self.bval(x, y)
        if _any(_value(b) <= 1.0e-9):
            raise EscapeError("saddle stage factor left its positive domain")
        return self.lam * x * b, y / (self.lam * b)


@dataclass(frozen=True)
class Lift:
    """Cotangent lift (x, y) -> (P(x), y / P'(x)) of a polynomial change.

    The lift of any coordinate change x -> P(x) acts on the fibre by the
    reciprocal derivative, so the Jacobian determinant is identically +1.
    Evaluation requires P'(x) to stay away from zero.
    """

    p: tuple

    def __post_init__(self):
        # P' depends on p alone; computed once per stage, not per point
        object.__setattr__(self, "dp", _polyder(self.p))

    def apply(self, x, y):
        pp = _polyval(self.dp, x)
        if _any(abs(_value(pp)) < 1.0e-12):
            raise EscapeError("lift stage hit a critical point of P")
        return _polyval(self.p, x), y / pp


@dataclass(frozen=True)
class MapExpr:
    """An ordered composition of primitive stages, applied left to right."""

    stages: tuple = field(default_factory=tuple)

    @property
    def n_swaps(self):
        return sum(1 for s in self.stages if isinstance(s, Swap))

    @property
    def expected_det(self):
        """Structural determinant: (-1)**(number of swap stages)."""
        return -1.0 if self.n_swaps % 2 else 1.0


def _check_escape(x, y, stage_idx):
    # a NaN size fails the comparison too, so non-finite points escape
    if not _all(abs(_value(x)) + abs(_value(y)) <= ESCAPE_RADIUS):
        raise EscapeError("orbit escaped", stage=stage_idx)


def eval_map(expr: MapExpr, p):
    """Apply the composition to a point, to arrays of coordinates, or to jets.

    Escapes are detected on the value part and reported with the index of
    the stage at which they happened.
    """
    x, y = p
    for i, stage in enumerate(expr.stages):
        try:
            x, y = stage.apply(x, y)
        except EscapeError as err:
            if err.stage is None:
                err.stage = i
            raise
        _check_escape(x, y, i)
    return x, y


def jacobian_of(fun, p):
    """Exact Jacobian at a point of a planar map ``fun(z) -> (x, y)`` that
    runs on jets, read from one pass on degree-1 jets."""
    fx, fy = fun(Jet.variables(float(p[0]), float(p[1]), 1))
    return np.array([fx.c[1:], fy.c[1:]])


def jacobian(expr: MapExpr, p):
    """Exact Jacobian of the composition at a point, from degree-1 jets."""
    return jacobian_of(functools.partial(eval_map, expr), p)


_EVAL_ERRORS = (EscapeError, CrossFormSolveError)
_ROUNDOFF_FLOOR = 100.0  # stalled within this factor of tol: converged
_MAX_STEPS = 50


def _newton(fun_jac, z0, tol=1e-11, window=None):
    """Damped Newton on fun_jac(z) -> (f, jac, ...); returns the converged
    point and fun_jac's output there, or raises.  A residual that no step
    lowers but that is within _ROUNDOFF_FLOOR * tol sits at its roundoff
    floor and counts as converged."""
    z = np.asarray(z0, dtype=float)
    try:
        out = fun_jac(z)
    except _EVAL_ERRORS as exc:
        raise NewtonDivergedError("Newton diverged: seed escaped") from exc
    for _ in range(_MAX_STEPS):
        f, jac = out[0], out[1]
        norm = float(np.max(np.abs(f)))
        if norm < tol:
            return z, out
        if abs(np.linalg.det(jac)) < 1e-14 * max(1.0, norm):
            raise NewtonDivergedError(
                "singular Jacobian near a parabolic point"
            )
        step = np.linalg.solve(jac, f)
        alpha = 1.0
        while alpha >= 1.0 / 64.0:
            z_try = z - alpha * step
            if window is not None and np.max(np.abs(z_try[:2])) > window:
                alpha /= 2.0
                continue
            try:
                out_try = fun_jac(z_try)
            except _EVAL_ERRORS:
                alpha /= 2.0
                continue
            if float(np.max(np.abs(out_try[0]))) < (1.0 - 0.25 * alpha) * norm:
                z, out = z_try, out_try
                break
            alpha /= 2.0
        else:
            if norm < _ROUNDOFF_FLOOR * tol:
                return z, out
            raise NewtonDivergedError("Newton diverged: no descent step")
    raise NewtonDivergedError(
        f"Newton diverged after {_MAX_STEPS} damped steps"
    )


def _border_residual(map_at, rounds: int, trace, z):
    """F^r(x, y) - (x, y) and tr D(F^r) - trace at z = (x, y, M) for r =
    rounds and F = map_at(M), and its exact 3x3 Jacobian, from one pass
    on degree-2 jets in (x, y, M).  map_at(M) returns a planar map
    p -> p that runs on jets."""
    x, y, m = Jet.variables(float(z[0]), float(z[1]), float(z[2]), 2)
    fun = map_at(m)
    fx, fy = x, y
    for _ in range(rounds):
        fx, fy = fun((fx, fy))
    rows = (fx - x, fy - y, fx.diff(0) + fy.diff(1) - trace)
    f = np.array([r.c[0] for r in rows])
    return f, np.array([r.c[1:4] for r in rows])


def _limit_seed(rounds: int, trace):
    """(x, y, M) of the limit map's orbit x' = y, y' = M + x - y**2 with
    tr D(F^r) = trace: (0, 0, 0) for r = 1 (trace 0 only), or (-s, s, M)
    with s = sqrt(M) at M = (2 - trace)/4 for r = 2, where the limit
    2-orbit has tr D(F^2) = 2 - 4M."""
    if rounds == 1:
        return (0.0, 0.0, 0.0)
    m = (2.0 - trace) / 4.0
    return (-math.sqrt(m), math.sqrt(m), m)


def _locate_trace(map_at, rounds: int, trace, m_bracket) -> float:
    """M where the r-orbit (r = rounds) of map_at(M) has tr D(F^r) = trace.

    Bordered Newton on _border_residual from _limit_seed.  Raises
    NewtonDivergedError when the Newton fails and BracketError when M
    lies outside m_bracket.
    """
    z, _ = _newton(
        functools.partial(_border_residual, map_at, rounds, trace),
        np.array(_limit_seed(rounds, trace)),
        tol=1e-10,
    )
    m_star = float(z[2])
    lo, hi = m_bracket
    if not lo <= m_star <= hi:
        raise BracketError(
            f"bracket failed: border at M = {m_star!r} outside [{lo}, {hi}]"
        )
    return m_star


def iterate(expr: MapExpr, p, n):
    """n-fold composition; raises EscapeError with the failing iterate index."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    x, y = p
    for j in range(n):
        try:
            x, y = eval_map(expr, (x, y))
        except EscapeError as err:
            raise EscapeError(
                f"orbit escaped at iterate {j}", stage=err.stage
            ) from err
    return x, y

