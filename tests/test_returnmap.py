"""Tests for the first-return machinery: closed saddle powers, strips,
cross-form residuals, and the horseshoe classifier."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from homatlas.mapcore import Jet, iterate
from homatlas.returnmap import (
    _signed_pow,
    build_return_map,
    classify_horseshoe,
    eval_return,
    in_sigma0,
    k_max,
    k_min,
    return_jacobian,
    solve_y0,
    strips,
    t0_pow_closed,
    t0_pow_jacobian,
    validate_cross_form,
    window_halfwidth,
)


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
            d = np.linalg.det(return_jacobian(rm, (xi, yi)))
            assert abs(d + 1.0) < 1e-10


def test_return_map_k_additivity():
    local = LocalMapParams(0.5, (0.6,))
    fam = build_family(local, HenonLikeRecipe())
    rm = build_return_map(fam, 9)
    p = (1.02, 0.5**9 * 0.97)
    direct = eval_return(rm, p)
    q = t0_pow_closed(local, p, 1)
    via_step = eval_return(build_return_map(fam, 8), q)
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


_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _b_sym(u, beta):
    return 1 + sum(sp.Rational(b) * u ** (i + 1) for i, b in enumerate(beta))


@pytest.mark.parametrize("lam,k", [(0.5, 9), (-0.5, 9), (0.5, 70), (-0.5, 71)])
def test_saddle_power_jet_matches_sympy_series(lam, k):
    # k > 64 takes the log-domain branch of _signed_pow
    beta = (0.375, -0.25)
    local = LocalMapParams(lam, beta)
    p = (1.0625, 0.015625)
    jx, jy = Jet.variables(*p, 2)
    got = jx * _signed_pow(local.lam * local.stage().bval(jx * jy), k)
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


def test_strip_distances_exact_without_moser_terms():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    for k in (5, 9, 13):
        s0, s1 = strips(fam, k)
        assert s0.center_distance == pytest.approx(0.5**k, abs=0.0)
        assert s1.center_distance == pytest.approx(0.5**k, abs=0.0)
        x_lo, x_hi, y_lo, y_hi = s0.box
        assert x_lo == pytest.approx(0.9)
        assert x_hi == pytest.approx(1.1)
        assert y_lo == pytest.approx(0.5**k * 0.9)
        assert y_hi == pytest.approx(0.5**k * 1.1)


def test_strip_distance_ratio_approaches_one():
    fam = build_family(LocalMapParams(0.5, (1.0,)), HenonLikeRecipe())
    ratios = []
    for k in (6, 9, 12):
        s0, s1 = strips(fam, k)
        ratios.append(
            (s0.center_distance / 0.5**k, s1.center_distance / 0.5**k)
        )
    assert abs(ratios[-1][0] - 1.0) < 0.10
    assert abs(ratios[-1][1] - 1.0) < 0.10
    # drift toward 1 is monotone for a single positive coefficient
    assert abs(ratios[2][0] - 1.0) < abs(ratios[1][0] - 1.0) < abs(ratios[0][0] - 1.0)


def test_strips_reject_small_k():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    with pytest.raises(StripWindowError):
        strips(fam, 2)


def test_strips_reject_large_k():
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    with pytest.raises(PrecisionFloorError):
        strips(fam, k_max(fam) + 1)


def test_classifier_enforces_validity_window():
    # lam = 0.99 needs k of about 240 before sigma0 maps into Pi-minus
    fam = build_family(LocalMapParams(0.99), HenonLikeRecipe())
    assert k_min(fam) > 14
    with pytest.raises(StripWindowError):
        classify_horseshoe(fam, range(8, 15))
    fam = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    with pytest.raises(PrecisionFloorError):
        classify_horseshoe(fam, range(8, k_max(fam) + 2))


def test_strip_boundary_brackets_membership():
    fam = build_family(LocalMapParams(0.5, (0.8,)), HenonLikeRecipe())
    s0, s1 = strips(fam, 8, n_boundary=40)
    assert s0.boundary.shape[1] == 2
    assert s1.boundary.shape[0] == s0.boundary.shape[0]
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
        validate_cross_form(LocalMapParams(0.5, (1.0,)), range(6, 8))


def test_cross_form_residual_zero_without_moser_terms():
    rep = validate_cross_form(LocalMapParams(0.5), range(6, 17))
    assert all(s == 0.0 for s in rep.sup_normalized)
    assert rep.beta1_fitted == 0.0


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_cross_form_residual_bounded_and_beta1_recovered(lam):
    rep = validate_cross_form(LocalMapParams(lam, (1.0,)), range(6, 17))
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
