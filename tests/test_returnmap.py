"""Tests for the first-return machinery: closed saddle powers, the
validity window, sigma0 membership, cross-form residuals, and the
horseshoe classifier."""

import collections
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas import cli, returnmap
from homatlas.exceptions import (
    CrossFormSolveError,
    EscapeError,
    PrecisionFloorError,
    StripWindowError,
)
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    build_family,
    tune_to,
)
from homatlas.mapcore import Jet, Moser, eval_map, iterate, jacobian_of
from homatlas.returnmap import (
    _signed_pow,
    build_return_map,
    classify_horseshoe,
    in_sigma0,
    k_max,
    k_min,
    solve_y0,
    t0_pow_closed,
    t0_pow_jacobian,
    validate_cross_form,
    window_halfwidth,
)


def _return_fun(rm):
    """T1 o T0^k of a return map, composed from the saddle power and the
    global stages."""

    def fun(p):
        q = t0_pow_closed(rm.family.local, p, rm.k)
        return eval_map(rm.family.global_stages, q)

    return fun


def _strip_points(rng, n, lam, k, x_plus=1.0, y_minus=1.0):
    """Random points in the sigma0 window for a beta-free local map."""
    delta = min(x_plus, y_minus) / 10.0
    x = rng.uniform(x_plus - delta, x_plus + delta, n)
    y = lam**k * rng.uniform(y_minus - delta, y_minus + delta, n)
    return x, y


def test_t0_pow_diagonal_when_no_moser_terms():
    local = LocalMapParams(0.5)
    x, y = t0_pow_closed(local, (2.0, 3.0), 7)
    assert x == 2.0 * 0.5**7
    assert y == 3.0 / 0.5**7


def test_t0_pow_hand_value():
    # lam=0.5, beta1=1, k=10, p=(1, 2**-10): u=2**-10 so the scale factor
    # is (lam*(1+2**-10))**10 and x_10 = 2**-10 * (1+2**-10)**10.
    local = LocalMapParams(0.5, (1.0,))
    x10, y10 = t0_pow_closed(local, (1.0, 2.0**-10), 10)
    expected = 2.0**-10 * (1.0 + 2.0**-10) ** 10
    assert abs(x10 - expected) < 1e-18
    assert abs(y10 - 2.0**-10 / expected) < 1e-12


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_t0_pow_matches_iteration(lam):
    local = LocalMapParams(lam, (1.0, -0.3))
    expr = local.map_expr()
    rng = np.random.default_rng(3)
    for k in (1, 4, 9, 16):
        x, y = _strip_points(rng, 25, lam, k)
        xc, yc = t0_pow_closed(local, (x, y), k)
        for xi, yi, xci, yci in zip(x, y, xc, yc):
            xit, yit = iterate(expr, (xi, yi), k)
            assert abs(xit - xci) <= 1e-12 * max(1.0, abs(xit))
            assert abs(yit - yci) <= 1e-12 * max(1.0, abs(yit))


def test_t0_pow_invariant_and_escape():
    local = LocalMapParams(0.5, (0.7,))
    x, y = t0_pow_closed(local, (0.9, 0.5**8), 8)
    assert abs(x * y - 0.9 * 0.5**8) < 1e-22
    with pytest.raises(EscapeError):
        t0_pow_closed(local, (1.0, 5.0), 80)


def test_t0_pow_jacobian_against_finite_differences():
    local = LocalMapParams(0.5, (1.0, 0.2))
    p = (1.03, 0.5**9 * 1.07)
    k = 9
    jac = t0_pow_jacobian(local, p, k)
    h = 1e-7
    fd = np.empty((2, 2))
    for j, dp in enumerate([(h, 0.0), (0.0, h)]):
        plus = t0_pow_closed(local, (p[0] + dp[0], p[1] + dp[1]), k)
        minus = t0_pow_closed(local, (p[0] - dp[0], p[1] - dp[1]), k)
        fd[0, j] = (plus[0] - minus[0]) / (2 * h)
        fd[1, j] = (plus[1] - minus[1]) / (2 * h)
    assert np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6
    assert abs(np.linalg.det(jac) - 1.0) < 1e-13


def test_window_bounds_for_half():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    assert window_halfwidth(fam) == pytest.approx(0.1)
    assert k_min(fam) == 4
    assert k_max(fam) == 16


def test_build_return_map_window_checks():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    with pytest.raises(StripWindowError):
        build_return_map(fam, 3)
    with pytest.raises(PrecisionFloorError):
        build_return_map(fam, 17)
    rm = build_return_map(fam, 8)
    assert rm.k == 8


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_return_map_determinant(lam):
    local = LocalMapParams(lam, (1.0,))
    fam = build_family(local, HenonLikeRecipe(p=(0.0, 1.0, 0.2), q=(0.0, 0.0, 1.0, 0.3)))
    rng = np.random.default_rng(11)
    for k in (6, 10, 14):
        rm = build_return_map(fam, k)
        x, y = _strip_points(rng, 17, lam, k)
        for xi, yi in zip(x, y):
            d = np.linalg.det(jacobian_of(_return_fun(rm), (xi, yi)))
            assert abs(d + 1.0) < 1e-10


def test_return_map_k_additivity():
    local = LocalMapParams(0.5, (0.6,))
    fam = build_family(local, HenonLikeRecipe())
    rm = build_return_map(fam, 9)
    p = (1.02, 0.5**9 * 0.97)
    direct = _return_fun(rm)(p)
    q = t0_pow_closed(local, p, 1)
    via_step = _return_fun(build_return_map(fam, 8))(q)
    assert abs(direct[0] - via_step[0]) < 1e-13
    assert abs(direct[1] - via_step[1]) < 1e-13


def test_solve_y0_round_trip():
    local = LocalMapParams(0.5, (1.0, -0.4))
    rng = np.random.default_rng(5)
    for k in (5, 10, 16):
        x0 = rng.uniform(0.9, 1.1, 20)
        yk = rng.uniform(0.9, 1.1, 20)
        y0 = solve_y0(local, k, x0, yk)
        _, yk_back = t0_pow_closed(local, (x0, y0), k)
        assert np.max(np.abs(yk_back - yk)) < 1e-13


def test_solve_y0_scalar_and_failure():
    local = LocalMapParams(0.5)
    assert solve_y0(local, 6, 1.0, 1.0) == 0.5**6
    bad = LocalMapParams(0.5, (-400.0,))
    with pytest.raises(CrossFormSolveError):
        solve_y0(bad, 4, 1.1, 1.1)


def test_solve_y0_runaway_is_an_error():
    # the fixed-point iterate grows until B(x0 y0)**k overflows; inf
    # passed the stop rule as a converged height
    local = LocalMapParams(0.7, (0.6,))
    for x0, yk in [(1.1, 1.1), (np.array([1.1]), np.array([1.1]))]:
        with pytest.raises(CrossFormSolveError):
            solve_y0(local, 4, x0, yk)


def test_solve_y0_without_beta_is_the_linear_passage():
    lam, k = -0.47, 9
    local = LocalMapParams(lam)
    lamk = lam**k
    got = solve_y0(local, k, 1.03, 0.98)
    assert type(got) is float and got == lamk * 0.98
    ys = np.linspace(0.9, 1.1, 7)
    got = solve_y0(local, k, np.full(7, 1.03), ys)
    assert isinstance(got, np.ndarray) and np.array_equal(got, lamk * ys)
    jx, jy = Jet.variables(1.03, 0.98, 2)
    got = solve_y0(local, k, jx, jy)
    assert isinstance(got, Jet)
    assert [repr(c) for c in got.c] == [repr(c) for c in (lamk * jy).c]


def test_solve_y0_jet_value_uses_the_callers_lamk():
    # a jet on float values solves its value part with the given lamk, as
    # the float solve and an array-lane jet do
    local, k, lamk = LocalMapParams(0.5, (0.5,)), 10, 1.001 * 0.5**10
    want = solve_y0(local, k, 1.0, 1.0, lamk)
    jx, jy = Jet.variables(1.0, 1.0, 2)
    assert solve_y0(local, k, jx, jy, lamk).c[0].hex() == want.hex()
    jx, jy = Jet.variables(np.ones(1), np.ones(1), 2)
    assert float(solve_y0(local, k, jx, jy, lamk).c[0][0]).hex() == want.hex()


def test_solve_y0_lanes_are_each_lanes_one_lane_jet_solve():
    # a jet over five lanes, each with its own k and lamk, solves each
    # lane's value on floats: every coefficient is its one-lane solve's
    local, lam = LocalMapParams(0.5, (0.5,)), 0.5
    ks = [8, 9, 10, 11, 12]
    lamks = [lam**k for k in ks]
    xs, ys = np.random.default_rng(33).uniform(0.9, 1.1, (2, 5))
    got = solve_y0(local, np.array(ks), *Jet.variables(xs, ys, 2),
                   np.array(lamks))
    for i, (k, lamk) in enumerate(zip(ks, lamks)):
        want = solve_y0(local, k, *Jet.variables(float(xs[i]),
                                                 float(ys[i]), 2), lamk)
        assert [float(np.broadcast_to(c, (5,))[i]).hex() for c in got.c] == [
            float(c).hex() for c in want.c]
    # a lane whose own solve runs away fails the batch with its error
    with pytest.raises(CrossFormSolveError, match="ran away") as alone:
        solve_y0(local, 10, *Jet.variables(1e6, float(ys[2]), 2), lamks[2])
    xs[2] = 1e6
    with pytest.raises(CrossFormSolveError) as batch:
        solve_y0(local, np.array(ks), *Jet.variables(xs, ys, 2),
                 np.array(lamks))
    assert str(batch.value) == str(alone.value)


def _float_y0(local, k, x0, yk):
    """The saddle-passage fixed point on Python floats alone, with the
    solver's start, power and stop rule."""
    lamk = local.lam**k
    y0 = lamk * yk
    for _ in range(60):
        b = local.stage().bval(x0, y0)
        y_new = lamk * yk * _signed_pow(b, k)
        if abs(y_new - y0) <= 1e-15 * max(1.0, abs(y_new)):
            return y_new
        y0 = y_new
    raise AssertionError("reference loop did not converge")


def test_solve_y0_on_floats_is_the_python_float_loop():
    rng = np.random.default_rng(17)
    for _ in range(600):
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.6))
        local = LocalMapParams(lam, (float(rng.uniform(-0.5, 0.5)),))
        k = int(rng.integers(4, 100))
        x0, yk = (float(v) for v in rng.uniform(0.8, 1.2, 2))
        got = solve_y0(local, k, x0, yk)
        want = _float_y0(local, k, x0, yk)
        assert type(got) is float
        assert got.hex() == want.hex(), (lam, k, x0, yk)


def test_signed_pow_is_within_an_ulp_of_the_exact_power():
    # against 200-bit mpmath powers, for bases of modulus 0.8 to 0.999 and
    # k up to 400, well past the k <= 109 that lam = 0.9 admits
    rng = np.random.default_rng(29)
    with mp.workprec(200):
        for k in rng.integers(1, 401, 40).tolist():
            bases = rng.choice([-1.0, 1.0], 25) * rng.uniform(0.8, 0.999, 25)
            lanes = _signed_pow(bases, k)
            for b, lane in zip(bases.tolist(), lanes.tolist()):
                exact = mp.mpf(b) ** k
                ulp = math.ulp(float(exact))
                got = _signed_pow(b, k)
                assert type(got) is float
                assert abs(mp.mpf(got) - exact) <= ulp, (b, k)
                assert abs(mp.mpf(lane) - exact) <= ulp, (b, k)


def _split_powers(n):
    """Up to n pairs (lam, k) at which numpy's array power and Python's
    float power differ in the last bit, by a scan over 6-decimal lam of
    modulus 0.45 to 0.55 and k = 4..20 (about 3% of such pairs with numpy
    2.4 on an x86-64 Xeon; none where numpy's power is libm's), then two
    pairs whose powers agree."""
    rng = np.random.default_rng(41)
    lams = np.round(rng.uniform(0.45, 0.55, 2000), 6)
    lams = lams * rng.choice([-1.0, 1.0], 2000)
    split = [
        (lam, k)
        for k in range(4, 21)
        for lam, lane in zip(lams.tolist(), (lams**k).tolist())
        if lane != lam**k
    ]
    return split[:: max(1, len(split) // n)][:n] + [(0.5, 8), (-0.47, 9)]


def test_moser_free_lanes_are_the_float_path_bit_for_bit():
    rng = np.random.default_rng(43)
    for lam, k in _split_powers(12):
        local = LocalMapParams(lam)
        x0 = rng.uniform(0.9, 1.1, 16)
        yk = rng.uniform(0.9, 1.1, 16)
        y0 = solve_y0(local, k, x0, yk)
        xk, yk_back = t0_pow_closed(local, (x0, y0), k)
        for i in range(16):
            fy0 = solve_y0(local, k, float(x0[i]), float(yk[i]))
            fxk, fyk = t0_pow_closed(local, (float(x0[i]), fy0), k)
            got = [float(v[i]).hex() for v in (y0, xk, yk_back)]
            assert got == [fy0.hex(), fxk.hex(), fyk.hex()], (lam, k, i)
    # a non-finite lane escapes as the float does, instead of passing nan
    local = LocalMapParams(0.5)
    for x, y in [(math.inf, 1.0), (np.array([1.0, math.inf]), np.ones(2))]:
        with pytest.raises(EscapeError):
            t0_pow_closed(local, (x, y), 8)


def test_in_sigma0_without_moser_terms_tests_the_float_power():
    # lanes a few ulps around the sigma1 window edges y_k = 0.9 and 1.1,
    # where lam**k and numpy's lane power can disagree on membership
    for lam, k in _split_powers(8):
        fam = build_family(LocalMapParams(lam), HenonLikeRecipe())
        delta = window_halfwidth(fam)
        power = lam**k
        ys = []
        for edge in (fam.y_minus - delta, fam.y_minus + delta):
            y = edge * power
            for _ in range(30):
                y = math.nextafter(y, -math.inf)
            for _ in range(60):
                ys.append(y)
                y = math.nextafter(y, math.inf)
        x = np.full(len(ys), fam.x_plus)
        got = in_sigma0(fam, k, x, np.array(ys))
        want = [
            abs(fam.x_plus * power) <= delta
            and abs(y / power - fam.y_minus) <= delta
            for y in ys
        ]
        assert got.tolist() == want, (lam, k)
        assert 0 < sum(want) < len(ys)
        for i in (0, 29, 30, 31, 89, 90, 91, 119):
            assert bool(in_sigma0(fam, k, fam.x_plus, ys[i])) == want[i]


def test_moser_free_classify_takes_no_per_lane_power(monkeypatch, tmp_path):
    """Array saddle powers run only with Moser terms, one per evaluation
    of B on an array: each solve sweep and each closed saddle power."""
    calls = collections.Counter()
    signed_pow, bval = returnmap._signed_pow, Moser.bval

    def counting_pow(base, k):
        calls["pow", isinstance(base, np.ndarray)] += 1
        return signed_pow(base, k)

    def counting_bval(self, x, y):
        calls["bval", isinstance(x, np.ndarray)] += 1
        return bval(self, x, y)

    monkeypatch.setattr(returnmap, "_signed_pow", counting_pow)
    monkeypatch.setattr(Moser, "bval", counting_bval)
    out = str(tmp_path / "out")
    assert cli.main(["classify", "--out", out]) == 0
    assert calls["pow", False] > 0
    assert calls["pow", True] == 0
    calls.clear()
    argv = ["cross-form", "--set", "beta=0.5", "--set", "k_min=8",
            "--set", "k_max=11", "--out", out]
    assert cli.main(argv) == 0
    # four k values: at least one sweep and one closed power each
    assert calls["pow", True] == calls["bval", True] > 8
    assert calls["pow", False] == 0


@pytest.mark.parametrize("lam,k", [(0.5, 8), (0.9, 70)])
def test_in_sigma0_is_the_window_test_on_the_saddle_power(lam, k):
    # k = 70 is a large k inside the window of lam = 0.9 (k <= 109)
    fam = build_family(LocalMapParams(lam, (0.8,)), HenonLikeRecipe())
    delta = window_halfwidth(fam)
    rng = np.random.default_rng(k)
    n = 400
    x = rng.uniform(1.0 - 2.0 * delta, 1.0 + 2.0 * delta, n)
    y = solve_y0(fam.local, k, x, rng.uniform(1.0 - 2.0 * delta,
                                              1.0 + 2.0 * delta, n))
    # lanes where the saddle factor 1 + 0.8 x y leaves its domain
    x = np.concatenate([x, [1.0, 0.95, 1.02]])
    y = np.concatenate([y, [-2.0, -1.5, -1.3]])
    got = in_sigma0(fam, k, x, y)
    valid = fam.local.stage().bval(x, y) > 1e-9
    assert 50 < np.count_nonzero(got) < n - 50
    assert not got[~valid].any()
    xk, yk = t0_pow_closed(fam.local, (x[valid], y[valid]), k)
    want = (
        (np.abs(x[valid] - 1.0) <= delta)
        & (np.abs(xk) <= delta)
        & (np.abs(yk - 1.0) <= delta)
    )
    assert np.array_equal(got[valid], want)


_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _b_sym(u, beta):
    return 1 + sum(sp.Rational(b) * u ** (i + 1) for i, b in enumerate(beta))


@pytest.mark.parametrize("lam,k", [(0.5, 9), (-0.5, 9), (0.5, 70), (-0.5, 71)])
def test_saddle_power_jet_matches_sympy_series(lam, k):
    # k = 70 and 71 run the binomial series at a large even and odd k
    beta = (0.375, -0.25)
    local = LocalMapParams(lam, beta)
    p = (1.0625, 0.015625)
    jx, jy = Jet.variables(*p, 2)
    got = jx * _signed_pow(local.lam * local.stage().bval(jx, jy), k)
    x, y = sp.symbols("x y")
    expr = (sp.Rational(lam) * _b_sym(x * y, beta)) ** k * x
    at = {x: sp.Rational(p[0]), y: sp.Rational(p[1])}
    for i, j in _MONOMIALS:
        want = float(
            sp.diff(expr, x, i, y, j).subs(at)
            / (sp.factorial(i) * sp.factorial(j))
        )
        assert abs(got.coeff(i, j) - want) <= 1e-13 * abs(want), (i, j)


def _parent_t0_pow(local, p, k):
    """The beta = () saddle power as it ran when B(u) = 1 was the jet
    1 + u*0 and the factor came from _signed_pow's jet series."""
    x, y = p
    factor = _signed_pow(local.lam * (1.0 + (x * y) * 0), k)
    return x * factor, y / factor


def _saddle_inputs(n):
    """Degree-n jets in two and in three variables, some with exact
    zero coefficients."""
    out = []
    for p in ((0.3, -0.2), (1.1, 0.7), (-0.9, 0.0)):
        out.append(Jet.variables(*p, n))
        x, y, m = Jet.variables(*p, 0.4, n)
        out.append((x + m * 0.25, y * m))
    return out


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("lam", [0.5, 0.47, -0.5, -0.53])
def test_t0_pow_without_beta_equals_the_jet_series_route(lam, n):
    local = LocalMapParams(lam)
    for k in range(8, 15):
        for p in _saddle_inputs(n):
            got = t0_pow_closed(local, p, k)
            want = _parent_t0_pow(local, p, k)
            for g, w in zip(got, want):
                if lam**k > 0.0:
                    assert repr(g.c) == repr(w.c)
                else:
                    # x * lam**k turns a +0.0 coefficient of x into -0.0
                    # where the parent's jet product summed 0.0 + (-0.0)
                    assert g.c == w.c
                    assert [repr(a) for a in g.c if a] == [
                        repr(b) for b in w.c if b
                    ]


@pytest.mark.parametrize("lam,k", [(0.5, 9), (-0.5, 9), (0.5, 70), (-0.5, 71)])
def test_solve_y0_jet_matches_sympy_implicit_series(lam, k):
    # y0(x0, yk) solves F = y0 - lam^k yk B(x0 y0)^k = 0; its Taylor
    # coefficients follow from implicit differentiation of F
    beta = (0.375, -0.25)
    local = LocalMapParams(lam, beta)
    p = (1.0625, 0.9375)
    got = solve_y0(local, k, *Jet.variables(*p, 2))
    x, w, y = sp.symbols("x w y")
    f = y - sp.Rational(lam) ** k * w * _b_sym(x * y, beta) ** k
    at = {x: sp.Rational(p[0]), w: sp.Rational(p[1])}
    ystar = sp.nsolve(f.subs(at), y, got.c[0], prec=50)
    at[y] = ystar

    def d(*v):
        return sp.diff(f, *v).evalf(50, subs=at)

    fy = d(y)
    first = {a: -d(a) / fy for a in (x, w)}

    def second(a, b):
        return -(d(a, b) + d(a, y) * first[b] + d(b, y) * first[a]
                 + d(y, y) * first[a] * first[b]) / fy

    want = {
        (0, 0): ystar, (1, 0): first[x], (0, 1): first[w],
        (2, 0): second(x, x) / 2, (1, 1): second(x, w),
        (0, 2): second(w, w) / 2,
    }
    for e in _MONOMIALS:
        w = float(want[e])
        assert abs(got.coeff(*e) - w) <= 1e-13 * abs(w), e


def test_classifier_enforces_validity_window():
    # lam = 0.99 needs k of about 240 before sigma0 maps into Pi-minus
    fam = build_family(LocalMapParams(0.99), HenonLikeRecipe())
    assert k_min(fam) > 14
    with pytest.raises(StripWindowError):
        classify_horseshoe(fam, range(8, 15))
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    with pytest.raises(PrecisionFloorError):
        classify_horseshoe(fam, range(8, k_max(fam) + 2))


def test_in_sigma0_brackets_the_window_edges():
    fam = build_family(LocalMapParams(0.5, (0.8,)), HenonLikeRecipe())
    # points built from targets just inside / outside the Pi-minus window
    local = fam.local
    xs = np.linspace(0.9 + 1e-6, 1.1 - 1e-6, 15)
    y_in = solve_y0(local, 8, xs, np.full_like(xs, 1.0 + 0.099))
    y_out = solve_y0(local, 8, xs, np.full_like(xs, 1.0 + 0.101))
    assert bool(np.all(in_sigma0(fam, 8, xs, y_in)))
    assert not bool(np.any(in_sigma0(fam, 8, xs, y_out)))


def test_in_sigma0_handles_far_points():
    fam = build_family(LocalMapParams(0.5, (1.0,)), HenonLikeRecipe())
    x = np.array([1.0, 50.0, -3.0, 1.0])
    y = np.array([0.5**8, 2.0, -90.0, -2.0])
    m = in_sigma0(fam, 8, x, y)
    assert m.tolist() == [True, False, False, False]


def test_cross_form_inconsistent_solve_raises(monkeypatch):
    import homatlas.returnmap as returnmap

    def off_by_one_percent(local, k, x0, yk):
        return 1.01 * solve_y0(local, k, x0, yk)

    monkeypatch.setattr(returnmap, "solve_y0", off_by_one_percent)
    with pytest.raises(CrossFormSolveError):
        validate_cross_form(
            build_family(LocalMapParams(0.5, (1.0,)), HenonLikeRecipe()),
            range(6, 8),
        )


def test_cross_form_checks_the_validity_window():
    fam = build_family(LocalMapParams(0.5, (1.0,)), HenonLikeRecipe())
    with pytest.raises(StripWindowError):
        validate_cross_form(fam, range(k_min(fam) - 1, 8))
    with pytest.raises(PrecisionFloorError):
        validate_cross_form(fam, range(8, k_max(fam) + 2))


def test_cross_form_residual_zero_without_moser_terms():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    rep = validate_cross_form(fam, range(6, 17))
    assert all(s == 0.0 for s in rep.sup_normalized)
    assert rep.beta1_fitted == 0.0


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_cross_form_residual_bounded_and_beta1_recovered(lam):
    fam = build_family(LocalMapParams(lam, (1.0,)), HenonLikeRecipe())
    rep = validate_cross_form(fam, range(6, 17))
    # normalized residual is O(k^2 lam^k); peak sits at small k and decays
    assert max(rep.sup_normalized) < 2.0
    assert rep.sup_normalized[-1] < 0.01
    assert abs(rep.beta1_fitted - 1.0) < 0.05
    # per-k slope recovers beta1 * k
    for k, s in zip(rep.k_values, rep.slope_per_k):
        assert abs(s - k) < 0.25 * k


def test_classifier_sign_cases():
    table = [
        (LocalMapParams(0.5), HenonLikeRecipe(p=(0.0, -1.0), q=(0.0, 0.0, -1.0)),
         None, "empty", {k: 0 for k in range(8, 15)}),
        (LocalMapParams(0.5), HenonLikeRecipe(p=(0.0, -1.0), q=(0.0, 0.0, 1.0)),
         None, "regular", {k: 2 for k in range(8, 15)}),
        (LocalMapParams(-0.5), HenonLikeRecipe(p=(0.0, -1.0), q=(0.0, 0.0, 1.0)),
         None, "parity-alternating", {k: 2 * ((k + 1) % 2) for k in range(8, 15)}),
        (LocalMapParams(0.5), HenonLikeRecipe(),
         -0.2, "alpha-negative-horseshoes", {k: 2 for k in range(8, 15)}),
        (LocalMapParams(0.5), HenonLikeRecipe(),
         0.2, "alpha-positive-trivial", {k: 0 for k in range(8, 15)}),
    ]
    for local, recipe, alpha, tag, counts in table:
        fam = build_family(local, recipe)
        if alpha is not None:
            fam = tune_to(fam, alpha_target=alpha)
        hc = classify_horseshoe(fam, range(8, 15))
        assert hc.tag == tag
        assert hc.predicted == tag
        assert hc.agrees
        assert hc.evidence == counts


def test_classifier_tags_an_unstable_count_inconclusive(monkeypatch):
    # the fold tuned to alpha -0.2 counts 2 at every k (see the sign
    # cases); a count that never stabilizes at k = 10 makes the tag
    # inconclusive, whatever the other k count
    fam = tune_to(build_family(LocalMapParams(0.5), HenonLikeRecipe()),
                  alpha_target=-0.2)
    monkeypatch.setattr(returnmap, "_component_count",
                        lambda family, k: None if k == 10 else 2)
    hc = classify_horseshoe(fam, range(8, 15))
    assert hc.evidence == {k: None if k == 10 else 2 for k in range(8, 15)}
    assert hc.tag == "inconclusive"
    assert hc.predicted == "alpha-negative-horseshoes"
    assert not hc.agrees


def test_component_count_is_none_when_the_runs_never_repeat(monkeypatch):
    # a run count that changes at every resolution, up to the cap of 2**15
    # samples, never stabilizes
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    counts = itertools.count()
    sizes = []

    def changing(inside):
        sizes.append(len(inside))
        return next(counts)

    monkeypatch.setattr(returnmap, "_count_runs", changing)
    assert returnmap._component_count(fam, 8) is None
    assert sizes[-1] == 2**15
    assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))


def test_classifier_with_moser_coefficient():
    fam = build_family(
        LocalMapParams(0.5, (0.5,)),
        HenonLikeRecipe(p=(0.0, -1.0), q=(0.0, 0.0, 1.0)),
    )
    hc = classify_horseshoe(fam, range(8, 15))
    assert hc.tag == "regular"
    assert hc.agrees


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.2, 0.8),
    beta1=st.floats(-1.5, 1.5),
    k=st.integers(4, 16),
    xs=st.floats(0.9, 1.1),
    ys=st.floats(0.9, 1.1),
)
def test_t0_pow_preserves_invariant(lam, beta1, k, xs, ys):
    local = LocalMapParams(lam, (beta1,))
    y = lam**k * ys
    xk, yk = t0_pow_closed(local, (xs, y), k)
    assert abs(xk * yk - xs * y) <= 1e-15 * max(1.0, abs(xs * y))
