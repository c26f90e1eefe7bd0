import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas.exceptions import (
    OrientationError,
    TangencyError,
    TargetUnreachableError,
)
from homatlas.family import (
    FamilyHandle,
    HenonLikeRecipe,
    LocalMapParams,
    ShearSandwichRecipe,
    TaylorData,
    alpha_invariant,
    build_family,
    extract_taylor,
    s0_invariant,
    tune_to,
)
from homatlas.mapcore import (
    HShear,
    Lift,
    MapExpr,
    Moser,
    Swap,
    Translate,
    VShear,
    eval_map,
    jacobian,
)

LOCAL = LocalMapParams(0.5)


def sym_poly(coeffs, t):
    return sum(sp.Rational(0) + sp.nsimplify(c, rational=False) * t**i
               for i, c in enumerate(coeffs))


def symbolic_jet(stages, y_minus):
    """Taylor coefficients of the stage composition at (0, y_minus), exact."""
    x, e, t = sp.symbols("x eta t")
    xs, ys = x, y_minus + e
    for stg in stages.stages:
        if isinstance(stg, VShear):
            xs, ys = xs + sym_poly(stg.g, ys), ys
        elif isinstance(stg, HShear):
            xs, ys = xs, ys + sym_poly(stg.h, xs)
        elif isinstance(stg, Swap):
            xs, ys = ys, xs
        elif isinstance(stg, Translate):
            xs, ys = xs + stg.dx, ys + stg.dy
        elif isinstance(stg, Lift):
            pp = sym_poly(np.polynomial.polynomial.polyder(stg.p), xs)
            xs, ys = sym_poly(stg.p, xs), ys / pp
        else:
            raise AssertionError(f"no symbolic rule for {stg}")
    out = {}
    for expr, label in [(xs, "F"), (ys, "G")]:
        scaled = expr.subs({x: t * x, e: t * e})
        ser = sp.expand(sp.series(scaled, t, 0, 4).removeO())
        poly = sp.Poly(ser, t, x, e)
        for (deg, i, j), coef in zip(poly.monoms(), poly.coeffs()):
            assert deg == i + j
            out[(label, i, j)] = float(coef)
    return out


def assert_matches_symbolic(fam, tol=1e-8):
    jet = symbolic_jet(fam.global_stages, fam.y_minus)
    t = fam.taylor
    pairs = [
        (t.a, ("F", 1, 0)), (t.b, ("F", 0, 1)),
        (t.e20, ("F", 2, 0)), (t.e11, ("F", 1, 1)), (t.e02, ("F", 0, 2)),
        (t.c, ("G", 1, 0)), (t.d, ("G", 0, 2)),
        (t.f20, ("G", 2, 0)), (t.f11, ("G", 1, 1)),
        (t.f30, ("G", 3, 0)), (t.f21, ("G", 2, 1)),
        (t.f12, ("G", 1, 2)), (t.f03, ("G", 0, 3)),
    ]
    for got, key in pairs:
        want = jet.get(key, 0.0)
        assert abs(got - want) < tol * max(1.0, abs(want)), (key, got, want)


def test_plain_fold_taylor_by_hand():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1)))
    t = fam.taylor
    assert abs(t.a) < 1e-10
    assert abs(t.b - 1) < 1e-10
    assert abs(t.c - 1) < 1e-10
    assert abs(t.d - 1) < 1e-10
    for v in (t.e20, t.e11, t.e02, t.f20, t.f11, t.f30, t.f21, t.f12, t.f03):
        assert abs(v) < 1e-9


def test_fold_quadratic_p_coefficients():
    # P(eta) = eta + 0.2 eta^2 puts 0.2 into e02 and -0.4 into f11
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1, 0.2), q=(0, 0, 1)))
    assert abs(fam.taylor.e02 - 0.2) < 1e-9
    assert abs(fam.taylor.f11 + 0.4) < 1e-9
    assert abs(fam.taylor.e20) < 1e-9
    assert abs(fam.taylor.e11) < 1e-9


def test_fold_cubic_q_gives_f03():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1, 1)))
    assert abs(fam.taylor.f03 - 1.0) < 1e-9


def test_fold_matches_symbolic_expansion():
    fam = build_family(
        LOCAL,
        HenonLikeRecipe(p=(0, 0.8, 0.25, -0.1), q=(0, 0, 1.3, 0.4), y_minus=1.2),
    )
    assert_matches_symbolic(fam)


@pytest.mark.parametrize(
    "recipe",
    [
        HenonLikeRecipe(p=(0, 1, 0.3), q=(0, 0, 1, 1)),
        HenonLikeRecipe(p=(0, 0.8, 0.25, -0.1), q=(0, 0, 1.3, 0.4), y_minus=1.2),
        ShearSandwichRecipe(),
        ShearSandwichRecipe(p1=0.3, p2=0.15, q1=0.4, d=1.1, m3=0.5, w1=0.2, w2=0.05),
    ],
)
def test_extraction_exact_to_roundoff(recipe):
    # the jet extraction has no truncation error, only roundoff
    assert_matches_symbolic(build_family(LOCAL, recipe), tol=1e-13)


def test_sandwich_matches_symbolic_and_closed_forms():
    r = ShearSandwichRecipe(p1=0.3, p2=0.15, q1=0.4, d=1.1, m3=0.5, w1=0.2, w2=0.05)
    fam = build_family(LOCAL, r)
    assert_matches_symbolic(fam)
    t = fam.taylor
    assert abs(t.a - (r.p1 + r.w1)) < 1e-9
    assert abs(t.b - 1.0) < 1e-9
    assert abs(t.c - 1.0) < 1e-9
    assert abs(t.d - r.d) < 1e-9
    assert abs(t.e20 - (r.p2 + r.w2 + r.w1 * r.d * r.p1**2)) < 1e-8
    assert abs(t.e11 - 2 * r.w1 * r.d * r.p1) < 1e-8
    assert abs(t.e02 - r.w1 * r.d) < 1e-9
    assert abs(t.f20 - r.d * r.p1**2) < 1e-8
    assert abs(t.f11 - 2 * r.d * r.p1) < 1e-8
    assert abs(t.f30 - (2 * r.d * r.p1 * r.p2 + r.m3 * r.p1**3)) < 1e-8
    assert abs(t.f21 - (2 * r.d * r.p2 + 3 * r.m3 * r.p1**2)) < 1e-8
    assert abs(t.f12 - 3 * r.m3 * r.p1) < 1e-8
    assert abs(t.f03 - r.m3) < 1e-9


def test_sandwich_quadratic_kick_scales_f20():
    # quadratic coefficient 0.1 in the post-swap shear lands in f20 as 0.1*p1^2
    r = ShearSandwichRecipe(p1=0.7, p2=0.0, q1=0.3, d=0.1, m3=0.0, w1=0.0, w2=0.0)
    fam = build_family(LOCAL, r)
    assert abs(fam.taylor.f20 - 0.1 * 0.49) < 1e-9


def test_bc_identity_and_det_identity():
    for fam in [
        build_family(LOCAL, HenonLikeRecipe(p=(0, 0.7, 0.3), q=(0, 0, -0.9, 0.2))),
        build_family(LOCAL, ShearSandwichRecipe()),
    ]:
        t = fam.taylor
        assert abs(t.b * t.c - 1.0) < 1e-10
        assert abs(2 * t.a * t.d - t.b * t.f11 - 2 * t.e02 * t.c) < 1e-8


def test_global_map_determinant_minus_one_on_window():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1, 0.4), q=(0, 0, 1, 0.5)))
    rng = np.random.default_rng(7)
    delta = min(fam.x_plus, fam.y_minus) / 10
    for _ in range(100):
        p = (
            rng.uniform(-delta, delta),
            fam.y_minus + rng.uniform(-delta, delta),
        )
        det = np.linalg.det(jacobian(fam.global_stages, p))
        assert abs(det + 1.0) <= 1e-10


def test_unstable_manifold_image_is_parabola():
    # image of {x=0} must follow ybar = mu + (d/b^2)(xbar-x_plus)^2(1+O(.))
    fam = build_family(
        LOCAL, HenonLikeRecipe(p=(0, 0.8, 0.2), q=(0, 0, 1.4, -0.3)), mu=0.02
    )
    ts = np.linspace(-0.04, 0.04, 20)
    xs, ys = eval_map(fam.global_stages, (np.zeros_like(ts), fam.y_minus + ts))
    s = xs - fam.x_plus
    a_mat = np.vander(s, 7, increasing=True)[:, 2:]
    coef, *_ = np.linalg.lstsq(a_mat, ys - fam.mu, rcond=None)
    want = fam.taylor.d / fam.taylor.b**2
    assert abs(coef[0] - want) < 1e-4 * abs(want)


def test_mu_only_moves_constant_term():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1, 0.3), q=(0, 0, 1)))
    bumped = fam.with_mu(0.015)
    assert bumped.mu == 0.015
    t2 = extract_taylor(
        bumped.global_stages, bumped.x_plus, bumped.y_minus, bumped.mu
    )
    for name in ("a", "b", "c", "d", "e02", "f11", "f03"):
        assert abs(getattr(t2, name) - getattr(fam.taylor, name)) < 1e-8
    img = eval_map(bumped.global_stages, (0.0, bumped.y_minus))
    assert abs(img[0] - fam.x_plus) < 1e-12
    assert abs(img[1] - 0.015) < 1e-12


def _dummy_handle(taylor, x_plus=1.0, y_minus=1.0):
    recipe = HenonLikeRecipe(x_plus=x_plus, y_minus=y_minus)
    return FamilyHandle(LOCAL, recipe, 0.0, MapExpr(()), taylor, 0.0, 0.0)


def _td(**kw):
    base = dict(
        a=0, b=1, c=1, d=1, e20=0, e11=0, e02=0,
        f20=0, f11=0, f30=0, f21=0, f12=0, f03=0,
    )
    base.update(kw)
    return TaylorData(**base)


def test_alpha_invariant_substitutions():
    assert alpha_invariant(_dummy_handle(_td(c=1), 2.0, 2.0)) == 0.0
    assert alpha_invariant(_dummy_handle(_td(c=2))) == 1.0
    assert alpha_invariant(_dummy_handle(_td(c=0.5))) == -0.5


def test_s0_invariant_substitutions():
    assert s0_invariant(_dummy_handle(_td())) == 0.0
    assert abs(s0_invariant(_dummy_handle(_td(f11=-0.4))) + 0.04) < 1e-15
    assert abs(s0_invariant(_dummy_handle(_td(a=0.5, f20=0.25))) - 0.75) < 1e-15


def test_tune_alpha_zero_gives_unit_coefficients():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 0.7), q=(0, 0, 1)))
    tuned = tune_to(fam, alpha_target=0.0)
    assert abs(tuned.alpha) < 1e-8
    assert abs(tuned.taylor.b - 1.0) < 1e-8
    assert abs(tuned.taylor.c - 1.0) < 1e-8


def test_tune_alpha_scales_c():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1), y_minus=1.5))
    tuned = tune_to(fam, alpha_target=-0.2)
    assert abs(tuned.taylor.c - 0.8 * 1.5 / 1.0) < 1e-7


def test_tune_s0_hits_f11_root():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1)))
    tuned = tune_to(fam, s0_target=-0.4)
    assert abs(tuned.s0 + 0.4) < 1e-8
    assert abs(tuned.taylor.f11 + math.sqrt(1.6)) < 1e-6
    assert abs(tuned.taylor.e02 - math.sqrt(0.4)) < 1e-6


def test_tune_both_targets_together():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1)))
    tuned = tune_to(fam, alpha_target=-0.1, s0_target=-0.25)
    assert abs(tuned.alpha + 0.1) < 1e-8
    assert abs(tuned.s0 + 0.25) < 1e-8
    assert abs(tuned.taylor.b * tuned.taylor.c - 1.0) < 1e-10


def test_tune_rejects_positive_s0_for_fold_recipe():
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, 1), q=(0, 0, 1)))
    with pytest.raises(TargetUnreachableError):
        tune_to(fam, s0_target=0.3)


def test_tune_rejects_knobless_recipe():
    fam = build_family(LOCAL, ShearSandwichRecipe())
    with pytest.raises(TargetUnreachableError):
        tune_to(fam, alpha_target=0.0)


def test_cubic_tangency_rejected():
    with pytest.raises(TangencyError):
        HenonLikeRecipe(p=(0, 1), q=(0, 0, 0, 1.0))


@pytest.mark.parametrize("recipe", [HenonLikeRecipe, ShearSandwichRecipe])
@pytest.mark.parametrize(
    "points", [(-1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
)
def test_non_positive_homoclinic_points_rejected(recipe, points):
    # the strip window min(x_plus, y_minus)/10 would not be positive
    with pytest.raises(TangencyError):
        recipe(x_plus=points[0], y_minus=points[1])


class _NoSwapRecipe:
    x_plus = 1.0
    y_minus = 1.0
    n0 = 1

    def stages(self, mu):
        return MapExpr((Translate(1.0, mu - 1.0),))


class _BrokenTangencyRecipe:
    x_plus = 1.0
    y_minus = 1.0
    n0 = 1

    def stages(self, mu):
        # linear eta term in the second component: transversal, not tangent
        return MapExpr(
            (
                Translate(0.0, -1.0),
                Swap(),
                HShear((0.0, 0.5, 1.0)),
                Translate(1.0, mu),
            )
        )


def test_even_swap_count_rejected():
    with pytest.raises(OrientationError):
        build_family(LOCAL, _NoSwapRecipe())


class _MisplacedRecipe:
    x_plus = 1.0
    y_minus = 1.0
    n0 = 1

    def stages(self, mu):
        # a fold that lands at (2, mu) instead of the marked (x_plus, mu)
        return MapExpr(
            (
                Translate(0.0, -1.0),
                Swap(),
                HShear((0.0, 0.0, 1.0)),
                Translate(2.0, mu),
            )
        )


class _FlatRecipe:
    x_plus = 1.0
    y_minus = 1.0
    n0 = 1

    def stages(self, mu):
        # ybar = x + mu: no eta^2 term, so the contact is not quadratic
        return MapExpr((Translate(0.0, -1.0), Swap(), Translate(1.0, mu)))


def test_transversal_crossing_rejected():
    with pytest.raises(TangencyError):
        build_family(LOCAL, _BrokenTangencyRecipe())


def test_misplaced_homoclinic_image_rejected():
    with pytest.raises(TangencyError, match="does not carry"):
        build_family(LOCAL, _MisplacedRecipe())


def test_flat_contact_rejected():
    with pytest.raises(TangencyError, match="d = 0"):
        build_family(LOCAL, _FlatRecipe())


@settings(max_examples=25, deadline=None)
@given(
    b=st.floats(min_value=0.5, max_value=2.0),
    p2=st.floats(min_value=-0.4, max_value=0.4),
    q2=st.floats(min_value=0.5, max_value=1.5),
    q3=st.floats(min_value=-1.0, max_value=1.0),
)
def test_fold_invariants_match_closed_forms(b, p2, q2, q3):
    fam = build_family(LOCAL, HenonLikeRecipe(p=(0, b, p2), q=(0, 0, q2, q3)))
    assert abs(fam.taylor.b * fam.taylor.c - 1.0) < 1e-10
    assert abs(fam.alpha - (1.0 / b - 1.0)) < 1e-7
    assert abs(fam.s0 + (p2 / (b * b)) ** 2) < 1e-7
