"""Exact planar map primitives with unit-modulus Jacobian stages.

Every map in this package is a composition of primitive stages whose Jacobian
determinant is exactly +1 or -1 by construction (shears, a coordinate swap,
translations, a reciprocal diagonal stretch, a resonant-form saddle stage and
a cotangent lift of a polynomial coordinate change).  Composing stages can
therefore never drift away from area preservation: the determinant of the
composite is (-1)**(number of swaps) up to floating-point roundoff.

Points are plain ``(x, y)`` tuples of floats.  ``eval_map`` also accepts numpy
arrays for both coordinates and then evaluates the whole batch at once, and
it accepts ``Jet`` coordinates: derivatives of any order come from running
the stages on Taylor jets (forward-mode automatic differentiation, Griewank
& Walther, *Evaluating Derivatives*, SIAM 2008).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EscapeError

__all__ = [
    "ESCAPE_RADIUS",
    "Jet",
    "VShear",
    "HShear",
    "Swap",
    "Translate",
    "Diagonal",
    "Moser",
    "Lift",
    "MapExpr",
    "eval_map",
    "jacobian",
    "iterate",
]

# Orbits whose coordinates exceed this are treated as escaped.
ESCAPE_RADIUS = 1.0e8


def _index(i: int, j: int) -> int:
    """Position of the coefficient of dx**i dy**j in graded order."""
    return (i + j) * (i + j + 1) // 2 + j


@functools.cache
def _product_pairs(n: int) -> tuple:
    """Per coefficient of a degree-n product, the (left, right) index pairs
    whose products sum to it; the pair with right index 0 comes last."""
    return tuple(
        tuple(
            (_index(i1, j1), _index(d - j - i1, j - j1))
            for i1 in range(d - j + 1)
            for j1 in range(j + 1)
            if (i1, j1) != (d - j, j)
        )
        + ((_index(d - j, j), 0),)
        for d in range(n + 1)
        for j in range(d + 1)
    )


class Jet:
    """Truncated bivariate Taylor polynomial of degree n.

    ``c`` lists the real or complex coefficients of dx**i dy**j, i + j <= n,
    in graded order 1, dx, dy, dx**2, dx dy, dy**2, dx**3, ...  Arithmetic
    with numbers and with jets of the same degree follows the truncated
    product rule; the value part ``c[0]`` comes out exactly as the same
    arithmetic on plain numbers.
    """

    __slots__ = ("n", "c")
    # numpy scalars defer to the jet operators instead of wrapping the jet
    __array_ufunc__ = None

    def __init__(self, n: int, c: list):
        self.n = n
        self.c = c

    @classmethod
    def variables(cls, x, y, n: int):
        """The pair of degree-n jets x + dx and y + dy, n >= 1."""
        zero = [0.0] * ((n + 1) * (n + 2) // 2 - 3)
        return cls(n, [x, 1.0, 0.0] + zero), cls(n, [y, 0.0, 1.0] + zero)

    def coeff(self, i: int, j: int):
        """Taylor coefficient of dx**i dy**j."""
        return self.c[_index(i, j)]

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
        a, b = self.c, other.c
        out = []
        for pairs in _product_pairs(self.n):
            s = 0.0
            for i, j in pairs:
                s += a[i] * b[j]
            out.append(s)
        return Jet(self.n, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.n, [a / other for a in self.c])
        # solve q * other = self in graded order; all pairs but the last
        # pick an already computed coefficient of q
        a, b = self.c, other.c
        q = []
        for k, pairs in enumerate(_product_pairs(self.n)):
            s = a[k]
            for i, j in pairs[:-1]:
                s -= q[i] * b[j]
            q.append(s / b[0])
        return Jet(self.n, q)

    def __rtruediv__(self, other):
        return Jet(self.n, [other] + [0.0] * (len(self.c) - 1)) / self


def _value(v):
    """The value part of a jet; numbers and arrays pass through."""
    return v.c[0] if isinstance(v, Jet) else v


def _polyval(coeffs, t):
    """Horner evaluation of sum(coeffs[i] * t**i) on floats, arrays or jets.

    The operation order is that of ``numpy.polynomial.polynomial.polyval``,
    so array results match it bit for bit.
    """
    out = coeffs[-1] + t * 0
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
class Diagonal:
    """(x, y) -> (lam*x, y/lam).  det = +1 for any lam != 0."""

    lam: float

    def apply(self, x, y):
        return self.lam * x, y / self.lam


@dataclass(frozen=True)
class Moser:
    """Integrable saddle stage (x, y) -> (lam*x*B(xy), y/(lam*B(xy))).

    B(u) = 1 + beta[0]*u + beta[1]*u**2 + ... ; the product x*y is preserved
    exactly and the Jacobian determinant is identically +1.
    """

    lam: float
    beta: tuple = ()

    def _b_coeffs(self):
        return (1.0,) + tuple(self.beta)

    def bval(self, u):
        return _polyval(self._b_coeffs(), u)

    def bder(self, u):
        return _polyval(_polyder(self._b_coeffs()), u)

    def apply(self, x, y):
        u = x * y
        b = self.bval(u)
        if np.any(_value(b) <= 1.0e-9):
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

    def apply(self, x, y):
        pp = _polyval(_polyder(self.p), x)
        if np.any(abs(_value(pp)) < 1.0e-12):
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

    def then(self, other):
        return MapExpr(self.stages + other.stages)


def _check_escape(x, y, stage_idx):
    # a NaN size fails the comparison too, so non-finite points escape
    if not np.all(abs(_value(x)) + abs(_value(y)) <= ESCAPE_RADIUS):
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


def jacobian(expr: MapExpr, p):
    """Exact Jacobian of the composition at a point, from degree-1 jets."""
    fx, fy = eval_map(expr, Jet.variables(float(p[0]), float(p[1]), 1))
    return np.array([[fx.c[1], fx.c[2]], [fy.c[1], fy.c[2]]])


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

