import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas.exceptions import EscapeError
from homatlas.family import HenonLikeRecipe, LocalMapParams
from homatlas.mapcore import (
    HShear,
    Jet,
    Lift,
    MapExpr,
    Moser,
    Swap,
    Translate,
    VShear,
    _all,
    _any,
    _kernels,
    _layout,
    eval_map,
    iterate,
    jacobian,
)
from homatlas.returnmap import _signed_pow, t0_pow_closed


def fd_jacobian(expr, p, h=1.0e-6):
    x, y = p
    fxp = eval_map(expr, (x + h, y))
    fxm = eval_map(expr, (x - h, y))
    fyp = eval_map(expr, (x, y + h))
    fym = eval_map(expr, (x, y - h))
    return np.array(
        [
            [(fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)],
            [(fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)],
        ]
    )


def test_stage_evals_by_hand():
    assert VShear((0.0, 0.0, 1.0)).apply(1.0, 2.0) == (5.0, 2.0)
    assert HShear((0.5, 1.0)).apply(2.0, -1.0) == (2.0, 1.5)
    assert Swap().apply(3.0, 4.0) == (4.0, 3.0)
    assert Translate(1.0, -2.0).apply(0.0, 0.0) == (1.0, -2.0)
    x, y = Moser(0.5).apply(2.0, 2.0)
    assert x == 1.0 and y == 4.0
    # lift of P(x) = x + x**2: image x is P(0.5) = 0.75, fibre divides by P'(0.5) = 2
    x, y = Lift((0.0, 1.0, 1.0)).apply(0.5, 3.0)
    assert abs(x - 0.75) < 1e-15
    assert abs(y - 1.5) < 1e-15


def test_moser_preserves_product_exactly():
    m = Moser(0.5, beta=(0.3, -0.1))
    x, y = 0.7, -0.4
    for _ in range(6):
        x2, y2 = m.apply(x, y)
        # x*y invariance holds to roundoff by construction
        assert abs(x2 * y2 - x * y) < 1e-15 * max(1.0, abs(x * y))
        x, y = x2, y2


def test_moser_reduces_to_diagonal_when_beta_empty():
    lam = -0.6
    m = Moser(lam)
    for x, y in [(0.3, 0.9), (-1.2, 0.1)]:
        assert m.apply(x, y) == (lam * x, y / lam)
        assert np.allclose(
            jacobian(MapExpr((m,)), (x, y)), np.diag([lam, 1.0 / lam]),
            rtol=0, atol=0,
        )


@pytest.mark.parametrize(
    "stage,p",
    [
        (VShear((0.1, -0.3, 0.7)), (0.4, -0.8)),
        (HShear((0.0, 2.0, 0.0, 1.0)), (-0.5, 0.3)),
        (Swap(), (1.1, -2.2)),
        (Translate(0.7, -0.3), (5.0, 5.0)),
        (Moser(-0.45), (0.2, 0.9)),
        (Moser(0.5, beta=(1.0,)), (0.6, 0.4)),
        (Moser(-0.7, beta=(0.2, 0.5)), (-0.3, 0.8)),
        (Lift((0.0, 1.0, 0.2, -0.1)), (0.4, 0.7)),
    ],
)
def test_stage_jacobians_match_finite_differences(stage, p):
    expr = MapExpr((stage,))
    exact = jacobian(expr, p)
    approx = fd_jacobian(expr, p)
    assert np.allclose(exact, approx, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "stage,p",
    [
        (VShear((0.1, -0.3, 0.7)), (0.4, -0.8)),
        (HShear((0.0, 2.0, 0.0, 1.0)), (-0.5, 0.3)),
        (Moser(-0.45), (0.2, 0.9)),
        (Moser(0.5, beta=(1.0,)), (0.6, 0.4)),
        (Moser(-0.7, beta=(0.2, 0.5)), (-0.3, 0.8)),
        (Lift((0.0, 1.0, 0.2, -0.1)), (0.4, 0.7)),
    ],
)
def test_stage_determinants_are_unit(stage, p):
    det = np.linalg.det(jacobian(MapExpr((stage,)), p))
    assert abs(det - 1.0) < 1e-13


def test_composite_determinant_tracks_swaps():
    expr = MapExpr(
        (
            Translate(0.0, -1.0),
            Swap(),
            HShear((0.0, 0.0, 2.0)),
            Lift((0.0, 0.9, 0.18)),
            Translate(1.0, 0.1),
        )
    )
    assert expr.expected_det == -1.0
    for p in [(0.9, 1.1), (1.3, 0.7), (1.05, 0.94)]:
        det = np.linalg.det(jacobian(expr, p))
        assert abs(det - expr.expected_det) < 1e-12


def test_composite_jacobian_matches_finite_differences():
    expr = MapExpr(
        (
            VShear((0.0, 0.3, -0.2)),
            Swap(),
            Moser(0.5, beta=(0.4,)),
            HShear((0.1, 0.0, 1.0)),
            Translate(-0.2, 0.5),
        )
    )
    p = (0.35, 0.62)
    assert np.allclose(jacobian(expr, p), fd_jacobian(expr, p), rtol=1e-6, atol=1e-6)


def test_iterate_agrees_with_repeated_eval():
    expr = MapExpr((Swap(), VShear((0.0, 0.0, -0.9)), Translate(0.3, 1.2)))
    p = (0.12, -0.07)
    q = p
    for _ in range(5):
        q = eval_map(expr, q)
    assert iterate(expr, p, 5) == q
    assert iterate(expr, p, 0) == p


def test_escape_raises_with_stage_index():
    expr = MapExpr((VShear((2.0e8,)), Translate(1.0, 1.0)))
    with pytest.raises(EscapeError) as exc:
        eval_map(expr, (0.0, 0.0))
    assert exc.value.stage == 0


def test_iterate_escape_reports_iterate_number():
    # doubling map in x escapes after ~27 iterates from x=1
    expr = MapExpr((Moser(2.0),))
    with pytest.raises(EscapeError, match="iterate"):
        iterate(expr, (1.0, 1.0), 60)


def test_lift_rejects_critical_point():
    with pytest.raises(EscapeError):
        Lift((0.0, 0.0, 1.0)).apply(0.0, 1.0)  # P = x**2, P'(0) = 0


def test_moser_rejects_nonpositive_factor():
    with pytest.raises(EscapeError):
        Moser(0.5, beta=(-2.0,)).apply(1.0, 1.0)  # B(1) = -1


def test_vectorized_eval_matches_scalar():
    expr = MapExpr(
        (
            Translate(0.0, -1.0),
            Swap(),
            HShear((0.0, 0.0, 1.4)),
            Lift((0.0, 1.1, 0.2)),
            Translate(1.0, 0.05),
        )
    )
    xs = np.linspace(0.8, 1.2, 7)
    ys = np.linspace(0.9, 1.1, 7)
    bx, by = eval_map(expr, (xs, ys))
    for i in range(7):
        sx, sy = eval_map(expr, (float(xs[i]), float(ys[i])))
        assert bx[i] == sx
        assert by[i] == sy


def test_signed_pow_signs_and_magnitude():
    assert _signed_pow(0.5, 0) == 1.0
    assert abs(_signed_pow(0.5, 10) - 0.5**10) < 1e-18
    assert _signed_pow(-0.5, 3) < 0
    assert _signed_pow(-0.5, 4) > 0
    # k = 900 keeps the magnitude and the sign of odd powers
    assert _signed_pow(0.5, 900) > 0.0
    assert _signed_pow(-0.5, 900) > 0.0
    assert _signed_pow(-0.5, 901) < 0.0
    assert _signed_pow(0.5, 900) == pytest.approx(0.5**900, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_power_is_inf_on_floats_as_on_arrays():
    # Python's float ** raises OverflowError where numpy returns +-inf
    for base, k in [(1e10, 40), (-1e10, 41), (-1e10, 40)]:
        got = _signed_pow(base, k)
        assert got == _signed_pow(np.array([base]), k)[0]
        assert math.isinf(got)
    # so a runaway saddle passage is an EscapeError on floats too
    local = LocalMapParams(0.5, (1.0, 1.0))
    for p in [(1e7, 1e7), (np.array([1e7]), np.array([1e7]))]:
        with pytest.raises(EscapeError):
            t0_pow_closed(local, p, 14)


coef = st.floats(min_value=-0.9, max_value=0.9, allow_nan=False)
pt = st.floats(min_value=-0.8, max_value=0.8, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(c1=coef, c2=coef, x=pt, y=pt)
def test_shear_pair_det_is_one(c1, c2, x, y):
    expr = MapExpr((VShear((0.0, c1, c2)), HShear((0.0, c2, c1))))
    det = np.linalg.det(jacobian(expr, (x, y)))
    assert abs(det - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(b1=coef, x=pt, y=pt)
def test_moser_jacobian_det_one_and_product_invariant(b1, x, y):
    m = Moser(0.5, beta=(b1,))
    if m.bval(x * y) <= 1e-3:
        return
    det = np.linalg.det(jacobian(MapExpr((m,)), (x, y)))
    assert abs(det - 1.0) < 1e-12
    x2, y2 = m.apply(x, y)
    assert abs(x2 * y2 - x * y) <= 1e-14 * max(1.0, abs(x * y))


def _exponents(n, m):
    """Exponent tuples of the m-variate monomials of degree <= n."""
    exps = itertools.product(range(n + 1), repeat=m)
    return [e for e in exps if sum(e) <= n]


def _random_jet(rng, n, complex_coeffs=False, m=2):
    # eighths are exact in binary, which keeps the sympy rationals small
    size = math.comb(n + m, m)
    c = rng.integers(-8, 9, size) / 8.0
    if complex_coeffs:
        c = c + 1j * rng.integers(-8, 9, size) / 8.0
    c[0] = 1.5 + 0.5 * c[0]  # keep the value part away from zero
    return Jet(n, [complex(v) if complex_coeffs else float(v) for v in c])


def _sym(jet, *syms):
    return sum(
        sp.nsimplify(jet.coeff(*e), rational=True)
        * sp.Mul(*(s**p for s, p in zip(syms, e)))
        for e in _exponents(jet.n, len(syms))
    )


def _assert_jet_equals_series(jet, expr, *syms, tol=1e-14):
    t = sp.Symbol("t")
    ser = sp.series(expr.subs({s: t * s for s in syms}), t, 0, jet.n + 1)
    poly = sp.Poly(sp.expand(ser.removeO().subs(t, 1)), *syms)
    want = {m: complex(c) for m, c in zip(poly.monoms(), poly.coeffs())}
    for e in _exponents(jet.n, len(syms)):
        w = want.get(e, 0.0)
        assert abs(jet.coeff(*e) - w) <= tol * max(1.0, abs(w)), (
            e, jet.coeff(*e), w
        )


@pytest.mark.parametrize("n,complex_coeffs", [(1, False), (3, False), (3, True)])
def test_jet_product_and_reciprocal_match_sympy_series(n, complex_coeffs):
    rng = np.random.default_rng(11 + n)
    x, y = sp.symbols("x y")
    a = _random_jet(rng, n, complex_coeffs)
    b = _random_jet(rng, n, complex_coeffs)
    sa, sb = _sym(a, x, y), _sym(b, x, y)
    _assert_jet_equals_series(a * b, sa * sb, x, y)
    _assert_jet_equals_series(1.0 / b, 1 / sb, x, y)
    _assert_jet_equals_series(a / b, sa / sb, x, y)
    _assert_jet_equals_series(2.5 - a * 0.5 + b, sp.Rational(5, 2) - sa / 2 + sb, x, y)


@pytest.mark.parametrize("n", [2, 3])
def test_three_variable_jet_product_and_quotient_match_sympy_series(n):
    rng = np.random.default_rng(23 + n)
    syms = sp.symbols("x y z")
    a = _random_jet(rng, n, m=3)
    b = _random_jet(rng, n, m=3)
    sa, sb = _sym(a, *syms), _sym(b, *syms)
    _assert_jet_equals_series(a * b, sa * sb, *syms)
    _assert_jet_equals_series(a / b, sa / sb, *syms)
    # the partial derivative in z is the series of d(sa)/dz, one degree lower
    _assert_jet_equals_series(a.diff(2), sp.diff(sa, syms[2]), *syms)


def test_jet_variables_layout():
    x, y, z = Jet.variables(0.5, -1.0, 2.0, 2)
    assert (x.c[0], y.c[0], z.c[0]) == (0.5, -1.0, 2.0)
    assert [x.coeff(1, 0, 0), y.coeff(0, 1, 0), z.coeff(0, 0, 1)] == [1.0] * 3
    assert len(x.c) == 10
    # two variables keep the graded order 1, dx, dy, dx^2, dx dy, dy^2
    u, v = Jet.variables(1.0, 2.0, 2)
    w = u * u * 3.0 + u * v * 5.0 + v * v * 7.0
    assert w.coeff(2, 0) == w.c[3] == 3.0
    assert w.coeff(1, 1) == w.c[4] == 5.0
    assert w.coeff(0, 2) == w.c[5] == 7.0


def test_polyval_matches_numpy_bit_for_bit():
    from numpy.polynomial import polynomial as npoly

    from homatlas.mapcore import _polyval

    rng = np.random.default_rng(2)
    t = rng.uniform(-3.0, 3.0, 500)
    for coeffs in [(0.7,), (0.1, -0.3, 0.7), tuple(rng.normal(size=6))]:
        want = npoly.polyval(t, np.asarray(coeffs))
        assert np.array_equal(_polyval(coeffs, t), want)
        assert _polyval(coeffs, float(t[0])) == want[0]


def _parent_polyval(coeffs, t):
    """_polyval as it was when every input started from coeffs[-1] + t*0."""
    out = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        out = c + out * t
    return out


def _zero_sign_free(c):
    """Coefficients with -0.0 read as 0.0."""
    return [repr(v + 0.0) for v in c]


def test_constant_polynomial_stays_a_number():
    from homatlas.mapcore import _polyval

    for t in (0.3, -2.0):
        out = _polyval((1.0,), t)
        assert type(out) is float and out == 1.0
    for jet in (Jet.variables(0.3, -0.2, 1)[0], Jet.variables(0.3, 2)[0]):
        out = _polyval((1.0,), jet)
        assert type(out) is float and out == 1.0
    t = np.array([[0.1, 0.2, 0.3]])
    out = _polyval((1.0,), t)
    assert isinstance(out, np.ndarray) and out.shape == t.shape
    assert np.array_equal(out, np.ones_like(t))
    # the saddle factor without beta is the number 1.0, and the local map
    # builds its saddle stage once
    b = Moser(0.5).bval(Jet.variables(0.3, -0.2, 2)[0])
    assert type(b) is float and b == 1.0
    local = LocalMapParams(0.5, (0.25,))
    assert local.stage() is local.stage()
    assert local.stage() == Moser(0.5, (0.25,))


def test_polyval_on_floats_and_jets_equals_the_parent_horner():
    from homatlas.mapcore import _polyval

    rng = np.random.default_rng(7)
    polys = [(0.7, -1.3), (0.1, -0.3, 0.7), tuple(rng.normal(size=6))]
    for coeffs in polys:
        for t in rng.uniform(-3.0, 3.0, 20):
            t = float(t)
            assert repr(_polyval(coeffs, t)) == repr(_parent_polyval(coeffs, t))
            for jet in (*Jet.variables(t, 0.4, 2), Jet.variables(t, 3)[0]):
                got = _polyval(coeffs, jet)
                want = _parent_polyval(coeffs, jet)
                # the parent's start jet carried t_i * 0 in every
                # coefficient, which can flip the sign of an exact zero
                assert got.n == want.n
                assert _zero_sign_free(got.c) == _zero_sign_free(want.c)


def test_jet_value_part_matches_float_evaluation():
    expr = MapExpr(
        (
            Translate(0.0, -1.0),
            HShear((0.0, 0.3, 0.15)),
            Moser(0.5, beta=(0.4, -0.2)),
            Swap(),
            Lift((0.0, 1.1, 0.2, -0.05)),
            VShear((0.1, 0.2, 0.05)),
        )
    )
    p = (0.07, 1.03)
    fx, fy = eval_map(expr, Jet.variables(p[0], p[1], 3))
    assert (fx.c[0], fy.c[0]) == eval_map(expr, p)


def test_jacobian_escape_reports_stage():
    # B(xy) = 1 - 2xy leaves its domain at the second stage
    expr = MapExpr((Translate(0.0, 0.0), Moser(0.5, beta=(-2.0,))))
    with pytest.raises(EscapeError) as exc:
        jacobian(expr, (1.0, 1.0))
    assert exc.value.stage == 1


def _loop_product(a, b, pairs):
    out = []
    for ps in pairs:
        s = 0.0
        for i, j in ps:
            s += a[i] * b[j]
        out.append(s)
    return out


def _loop_quotient(a, b, pairs):
    q = []
    for k, ps in enumerate(pairs):
        s = a[k]
        for i, j in ps[:-1]:
            s -= q[i] * b[j]
        q.append(s / b[0])
    return q


def _random_coeffs(rng, size, complex_coeffs):
    c = rng.normal(size=size)
    if complex_coeffs:
        c = c + 1j * rng.normal(size=size)
    c[rng.integers(1, size)] = 0.0  # signed zeros must come out the same
    c[rng.integers(1, size)] = -0.0
    return [complex(v) if complex_coeffs else float(v) for v in c]


# every (degree, size) the program runs on: degree-1 jets in 1, 2 variables,
# degree 2 in 2 and 3 variables, degree 3 in 2 (real Taylor data and the
# complex Birkhoff normal form)
@pytest.mark.parametrize("n,size", [(1, 2), (1, 3), (2, 6), (2, 10), (3, 10)])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_generated_kernels_equal_the_reference_loops(n, size, complex_coeffs):
    pairs = _layout(n, size)[1]
    mul, div = _kernels(n, size)
    rng = np.random.default_rng(100 * n + size + complex_coeffs)
    for _ in range(50):
        a = _random_coeffs(rng, size, complex_coeffs)
        b = _random_coeffs(rng, size, complex_coeffs)
        want_mul = _loop_product(a, b, pairs)
        want_div = _loop_quotient(a, b, pairs)
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, mul(a, b))) == list(map(repr, want_mul))
        assert list(map(repr, div(a, b))) == list(map(repr, want_div))
        assert (Jet(n, a) * Jet(n, b)).c == want_mul
        assert (Jet(n, a) / Jet(n, b)).c == want_div


@pytest.mark.parametrize(
    "cond",
    [
        True,
        False,
        np.True_,
        np.False_,
        np.array(True),
        np.array(False),
        np.array([True, True, True]),
        np.array([False, False, False]),
        np.array([True, False, True]),
        np.array([False, True, False]),
        np.abs(np.array([0.5, math.nan, 0.25])) <= 1.0,
    ],
)
def test_guard_reductions_agree_with_numpy(cond):
    assert _any(cond) == np.any(cond)
    assert _all(cond) == np.all(cond)


_FOLD = HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)).stages(0.0)


@pytest.mark.parametrize(
    "p,stage",
    [
        ((math.nan, 1.0), 0),
        ((1.0, math.nan), 0),
        ((math.inf, 1.0), 0),
        ((0.0, 1.0e4), 2),  # the product shear throws it past the radius
        ((0.0, 1.0 - 1.0 / 0.6), 3),  # P'(eta) = 1 + 0.6 eta = 0
    ],
)
def test_escape_stage_is_the_same_for_floats_arrays_and_jets(p, stage):
    forms = [
        p,
        tuple(np.array(v) for v in p),
        tuple(np.array([0.1, v, 0.2]) for v in p),  # one bad lane
        Jet.variables(*p, 1),
        Jet.variables(*p, 3),
    ]
    for point in forms:
        with pytest.raises(EscapeError) as exc:
            eval_map(_FOLD, point)
        assert exc.value.stage == stage


def test_saddle_power_guards_reduce_arrays_and_test_scalars():
    local = LocalMapParams(0.5, (-2.0,))  # B(u) = 1 - 2u <= 0 for u >= 1/2
    for point in [
        (1.0, 1.0),
        (np.array(1.0), np.array(1.0)),
        (np.array([0.1, 1.0]), np.array([0.1, 1.0])),
        Jet.variables(1.0, 1.0, 1),
    ]:
        with pytest.raises(EscapeError, match="saddle factor"):
            t0_pow_closed(local, point, 3)
    # an image beyond the escape radius
    with pytest.raises(EscapeError, match="saddle passage"):
        t0_pow_closed(LocalMapParams(0.5), (np.array([1.0, 1.0]),
                                             np.array([1.0, 1.0e12])), 3)
    lanes = np.array([0.1, 0.2])
    xk, yk = t0_pow_closed(local, (lanes, lanes), 3)
    assert xk.shape == yk.shape == (2,)
