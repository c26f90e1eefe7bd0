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

The damped Newton, a secant and the bordered locator live here too,
below every map that runs on jets.  Every solve is a lane solve: one
Newton driver (``_lane_newton``) runs each lane to its own outcome.  A
batch of one lane starts on Python floats (``_lane_jets`` and
``_lane_values`` alone decide that) and stays on them when the map's
numbers are floats too (a frame on floats, or the limit map), as
fast as a solve written for floats; a lane of a stacked frame runs on
1-element arrays, with the same bits but at two to four times the cost
(see ``orbits``).  The one locator ``_locate_trace_lanes`` finds, per
lane, the M at which the r-orbit of a map family M -> F_M has a given
trace of D(F^r), for the rescaled return map and the limit map x' = y,
y' = M + x - y**2 alike.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .exceptions import (
    BracketError,
    CrossFormSolveError,
    DomainError,
    EscapeError,
    HomatlasError,
    NewtonDivergedError,
    PrecisionFloorError,
    TargetUnreachableError,
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
# A saddle factor B(x*y) at or below this has left its positive domain.
_SADDLE_FLOOR = 1e-9


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


def _stack(values):
    """One array over the lanes' numbers; tuples stack entry by entry and
    map stages number by number.  DomainError unless the lanes' tuples
    have one length and their stages one type."""
    first = values[0]
    if isinstance(first, tuple):
        if any(len(v) != len(first) for v in values):
            raise DomainError("lanes of different lengths do not stack")
        return tuple(_stack(col) for col in zip(*values))
    if is_dataclass(first):
        if any(type(v) is not type(first) for v in values):
            raise DomainError("lanes of different stages do not stack")
        return type(first)(*(_stack([getattr(v, f.name) for v in values])
                             for f in fields(first)))
    return np.array(values)


def _take(values, index):
    """The lanes at index of ``_stack``'s arrays; tuples entry by entry
    and map stages number by number."""
    if isinstance(values, np.ndarray):
        return values[index]
    if isinstance(values, tuple):
        return tuple(_take(v, index) for v in values)
    return type(values)(*(_take(getattr(values, f.name), index)
                          for f in fields(values)))


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
        if _any(_value(b) <= _SADDLE_FLOOR):
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
_DAMPING = tuple(0.5 ** i for i in range(7))  # step factors, 1 down to 1/64


def _diverged(message, cause=None):
    err = NewtonDivergedError(message)
    err.__cause__ = cause
    return err


def _eval_lanes(fun_jac, z, lanes):
    """fun_jac(z, lanes) on the rows z of the listed lanes, as one batch.
    When the batch raises an evaluation error, each lane runs alone, so
    that the error belongs to the lane that raised it.  Returns the
    positions in ``lanes`` that evaluated, their outputs stacked in that
    order (None when none did), and {lane: error} for the others."""
    try:
        return range(len(lanes)), fun_jac(z, lanes), {}
    except _EVAL_ERRORS as exc:
        if len(lanes) == 1:
            return [], None, {lanes[0]: exc}
    ok, outs, errors = [], [], {}
    for i, lane in enumerate(lanes):
        try:
            outs.append(fun_jac(z[i:i + 1], [lane]))
            ok.append(i)
        except _EVAL_ERRORS as exc:
            errors[lane] = exc
    out = [np.concatenate(parts) for parts in zip(*outs)] if outs else None
    return ok, out, errors


def _lane_norms(f):
    """Max-norm of each lane's residual row, as Python floats."""
    return np.abs(f).max(axis=1).tolist()


def _damped_newton(z, tol, window):
    """One lane of ``_lane_newton``: a plain damped Newton from the point z
    (a list of floats) that yields each evaluation and step to the driver.

    ``yield ("eval", point)`` gets the evaluation error, or (rows, norm):
    fun_jac's outputs at point as rows = (out, k), row k of the batch
    outputs out, and the residual's max-norm.  ``yield ("step", rows,
    det_floor)`` gets the Newton step as a list of floats, or None when the
    Jacobian's |det| is below det_floor.  A step is tried at the factors of
    _DAMPING, but not outside ``window`` in x or y, until the norm falls by
    1 - factor/4; when none does, a norm under _ROUNDOFF_FLOOR * tol is the
    roundoff floor: converged.  Returns the point and rows, or the error.
    """
    reply = yield "eval", z
    if isinstance(reply, _EVAL_ERRORS):
        return _diverged("Newton diverged: seed escaped", reply)
    rows, norm = reply
    for _ in range(_MAX_STEPS):
        if norm < tol:
            return _converged(z, rows)
        step = yield "step", rows, 1e-14 * max(1.0, norm)
        if step is None:
            return _diverged("singular Jacobian near a parabolic point")
        for alpha in _DAMPING:
            trial = [v - alpha * s for v, s in zip(z, step)]
            if window is not None and (abs(trial[0]) > window
                                       or abs(trial[1]) > window):
                continue
            reply = yield "eval", trial
            if (not isinstance(reply, _EVAL_ERRORS)
                    and reply[1] < (1.0 - 0.25 * alpha) * norm):
                z, (rows, norm) = trial, reply
                break
        else:
            if norm < _ROUNDOFF_FLOOR * tol:
                return _converged(z, rows)
            return _diverged("Newton diverged: no descent step")
    return _diverged(f"Newton diverged after {_MAX_STEPS} damped steps")


def _converged(z, rows):
    out, k = rows
    return np.array(z), [v[k] for v in out]


def _lane_newton(fun_jac, z, tol, windows=None):
    """``_damped_newton`` from each row of z (shape (L, n)), with one trial
    window per lane (None: none), to one outcome per lane: the point with
    fun_jac's outputs (f, jac, ...) there, or its NewtonDivergedError.

    fun_jac(z, lanes) gets the rows of the listed lanes and returns its
    outputs with a leading lane axis.  Each round serves all pending
    steps with one LAPACK det and solve, then all pending evaluations
    with one ``_eval_lanes`` batch, whose lane-by-lane rerun gives an
    error to the lane that raised it alone; so each lane takes the steps
    it would take alone.
    """
    runs = [_damped_newton(point, tol, window) for point, window
            in zip(z.tolist(), windows or itertools.repeat(None))]
    outcomes = [None] * len(runs)
    replies = [(lane, None) for lane in range(len(runs))]
    steps, lanes, points = [], [], []
    while True:
        for lane, reply in replies:
            try:
                request = runs[lane].send(reply)
            except StopIteration as stop:
                outcomes[lane] = stop.value
                continue
            if request[0] == "step":
                steps.append((lane, request))
            else:
                lanes.append(lane)
                points.append(request[1])
        if steps:
            replies, steps = _solve_steps(steps, out), []
        elif lanes:
            ok, out, errors = _eval_lanes(fun_jac, np.array(points), lanes)
            replies = list(errors.items())
            # row k of out belongs to the lane at position ok[k]
            for k, norm in enumerate(_lane_norms(out[0]) if ok else ()):
                replies.append((lanes[ok[k]], ((out, k), norm)))
            lanes, points = [], []
        else:
            return outcomes


def _solve_steps(steps, out):
    """[(lane, Newton step or None if singular)] for the step requests
    [(lane, request)]; a lane asks for a step right after the evaluation
    it accepted, so all their rows sit in the last batch out, in order."""
    f, jac = out[0], out[1]
    if len(steps) < len(f):
        at = [rows[1] for _, (_, rows, _) in steps]
        f, jac = f[at], jac[at]
    dets = np.linalg.det(jac).tolist()
    replies, keep = [], []
    for i, (lane, (_, _, det_floor)) in enumerate(steps):
        if abs(dets[i]) < det_floor:
            replies.append((lane, None))
        else:
            keep.append(i)
    if len(keep) < len(steps):
        f, jac = f[keep], jac[keep]
    deltas = np.linalg.solve(jac, f[..., np.newaxis])[..., 0].tolist()
    replies += zip([steps[i][0] for i in keep], deltas)
    return replies


def _secant(fun, x0: float, x1: float, target: float, tol: float):
    """x with |fun(x) - target| <= tol, by secant from x0 and x1."""
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


def _jet_rows(jets, n: int):
    """(f, jac): the value parts of the jets and their n first-order
    coefficients, with a leading lane axis: (L, len(jets)) and
    (L, len(jets), n).  Jets on Python floats are one lane, each output
    from one np.array.  Jets whose coefficients are arrays over L lanes
    are filled column by column, so a coefficient that stayed a float
    broadcasts."""
    if not isinstance(jets[0].c[0], np.ndarray):
        return (np.array([[jet.c[0] for jet in jets]]),
                np.array([[jet.c[1:n + 1] for jet in jets]]))
    f = np.empty((len(jets[0].c[0]), len(jets)))
    jac = np.empty(f.shape + (n,))
    for i, jet in enumerate(jets):
        f[:, i] = jet.c[0]
        for j in range(n):
            jac[:, i, j] = jet.c[1 + j]
    return f, jac


def _lane_jets(z, n: int):
    """Degree-n jets, one variable per column of z (shape (L, m)), whose
    coefficients are arrays over the L lanes; one lane starts on Python
    floats, and stays on them where the map's numbers are floats too."""
    return Jet.variables(*(z[0].tolist() if len(z) == 1 else z.T), n)


def _border_residual(map_at, rounds: int, trace, z):
    """F^r(x, y) - (x, y) and tr D(F^r) - trace at z = (x, y, M) for r =
    rounds and F = map_at(M), and its exact 3x3 Jacobian, from one pass
    on degree-2 jets in (x, y, M) (``_lane_jets``).  map_at(M) returns a
    planar map p -> p that runs on jets.  z of shape (L, 3) is L lanes.
    The outputs have a leading lane axis."""
    x, y, m = _lane_jets(z, 2)
    fun = map_at(m)
    fx, fy = x, y
    for _ in range(rounds):
        fx, fy = fun((fx, fy))
    return _jet_rows((fx - x, fy - y, fx.diff(0) + fy.diff(1) - trace), 3)


def _limit_seed(rounds: int, trace):
    """(x, y, M) of the limit map's orbit x' = y, y' = M + x - y**2 with
    tr D(F^r) = trace: (0, 0, 0) for r = 1 (trace 0 only), or (-s, s, M)
    with s = sqrt(M) at M = (2 - trace)/4 for r = 2, where the limit
    2-orbit has tr D(F^2) = 2 - 4M."""
    if rounds == 1:
        return (0.0, 0.0, 0.0)
    m = (2.0 - trace) / 4.0
    return (-math.sqrt(m), math.sqrt(m), m)


def _bracketed(m_star: float, m_bracket):
    """m_star, or the BracketError when it lies outside m_bracket."""
    lo, hi = m_bracket
    if lo <= m_star <= hi:
        return m_star
    return BracketError(
        f"bracket failed: border at M = {m_star!r} outside [{lo}, {hi}]"
    )


def _lane_values(values, lanes):
    """values (an array over the lanes) at the listed lanes; a Python
    float for one lane, so that a batch of one lane runs on floats where
    the map's numbers are floats too."""
    return values[lanes[0]].item() if len(lanes) == 1 else values[lanes]


def _whole(value, what: str) -> int:
    """value as an int, or DomainError unless it is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be a whole number, not {value!r}")


def _failed(outcomes):
    """The error of the lowest failing lane among lane outcomes, or None."""
    return next((o for o in outcomes if isinstance(o, HomatlasError)), None)


def _lamk2(lam: float, k) -> float:
    """lam**2k as (lam**k)**2 at a whole k; PrecisionFloorError where it
    underflows to 0.0, since no rescaled quantity is defined there, and
    DomainError where it overflows (a k far below 0)."""
    try:
        lamk2 = (lam ** _whole(k, "k")) ** 2
    except OverflowError:
        raise DomainError(f"lam**2k overflows at k={k}") from None
    if lamk2 == 0.0:
        raise PrecisionFloorError(f"lam**2k underflows to 0 at k={k}")
    return lamk2


def _raised(outcomes):
    """Lane outcomes, or the error of the lowest failing lane raised, as a
    loop over the lanes would raise it."""
    error = _failed(outcomes)
    if error is not None:
        raise error
    return outcomes


def _locate_trace_lanes(map_at, events):
    """M where the r-orbit of map_at(M) has tr D(F^r) = trace, on lanes:
    lane i for the event events[i] = (r, trace, M bracket).

    map_at(M, lanes) is the map of the listed lanes, on a jet M whose
    coefficients are arrays over them (floats for one lane, which stay
    floats only when the map's numbers are floats).  The lanes of
    each round count run from their limit seeds as lanes of one bordered
    Newton (``_lane_newton``).  Returns one outcome per lane: its M, or
    its NewtonDivergedError, or BracketError when M leaves its bracket.
    """
    outcomes = [None] * len(events)
    for rounds in sorted({rounds for rounds, _, _ in events}):
        group = [i for i, event in enumerate(events) if event[0] == rounds]
        targets = np.array([events[i][1] for i in group], dtype=float)
        seeds = np.array([_limit_seed(rounds, t) for t in targets.tolist()])

        def fun_jac(z, lanes):
            index = [group[i] for i in lanes]
            return _border_residual(lambda m: map_at(m, index), rounds,
                                    _lane_values(targets, lanes), z)

        for i, outcome in zip(group, _lane_newton(fun_jac, seeds, 1e-10)):
            outcomes[i] = (
                outcome if isinstance(outcome, NewtonDivergedError)
                else _bracketed(float(outcome[0][2]), events[i][2])
            )
    return outcomes


def iterate(expr: MapExpr, p, n):
    """n-fold composition; raises EscapeError with the failing iterate index."""
    n = _whole(n, "iterate count")
    if n < 0:
        raise DomainError("iterate count must be nonnegative")
    x, y = p
    for j in range(n):
        try:
            x, y = eval_map(expr, (x, y))
        except EscapeError as err:
            raise EscapeError(
                f"orbit escaped at iterate {j}", stage=err.stage
            ) from err
    return x, y

