"""Tests for the rescaling chain, parameter conversions, and the
convergence of rescaled return maps to the limit quadratic form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas.exceptions import PrecisionFloorError
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    ShearSandwichRecipe,
    build_family,
    tune_to,
)
from homatlas.mapcore import Jet
from homatlas.orbits import _map_at
from homatlas.rescale import (
    _theil_sen_slope,
    build_chain,
    build_frame,
    convergence_report,
    eval_rescaled,
    fit_cubic_coefficient,
    from_rescaled,
    m_from_mu,
    mu_from_m,
    rescaled_jacobian,
    rescaled_window,
    to_rescaled,
)


def _exact_family(lam=0.5):
    return build_family(LocalMapParams(lam), HenonLikeRecipe())


def _rich_family(lam=0.5):
    # cubic shear and quartic fold terms, but no jet entries that the
    # frozen chain cannot absorb (e02 = f11 = 0)
    return build_family(
        LocalMapParams(lam),
        HenonLikeRecipe(p=(0.0, 1.0, 0.0, 0.4), q=(0.0, 0.0, 1.0, 1.0, 0.5)),
    )


def test_chain_round_trip():
    fam = _rich_family()
    for k in (8, 11, 14):
        rr = build_frame(fam, k).at_mu(fam.mu)
        rng = np.random.default_rng(k)
        pts = rng.uniform(-2.0, 2.0, (10, 2))
        for big in pts:
            small = from_rescaled(rr, big)
            back = to_rescaled(rr, small)
            assert abs(back[0] - big[0]) < 1e-9
            assert abs(back[1] - big[1]) < 1e-9


def test_m_from_mu_alpha_zero_exact():
    fam = _exact_family()
    assert fam.alpha == pytest.approx(0.0, abs=1e-12)
    for k in (6, 10, 14):
        assert m_from_mu(fam, k, 0.0) == pytest.approx(-fam.s0, abs=1e-9)


def test_mu_from_m_global_resonance_value():
    p2 = math.sqrt(0.4)
    fam = build_family(
        LocalMapParams(0.5), HenonLikeRecipe(p=(0.0, 1.0, p2))
    )
    assert fam.alpha == pytest.approx(0.0, abs=1e-10)
    assert fam.s0 == pytest.approx(-0.4, rel=1e-7)
    for k in (8, 12):
        mu = mu_from_m(fam, k, 0.0)
        assert mu == pytest.approx(0.4 * 0.5 ** (2 * k), rel=1e-6)


def test_round_trip_mu_direction():
    fam = tune_to(_exact_family(), alpha_target=-0.15)
    for k in (8, 12, 16):
        lamk = 0.5**k
        for mu in (0.3 * lamk, -0.2 * lamk, 1.7 * lamk**2):
            back = mu_from_m(fam, k, m_from_mu(fam, k, mu))
            assert abs(back - mu) <= 1e-12 * max(abs(mu), lamk)


def test_round_trip_m_direction():
    fam = tune_to(_exact_family(), alpha_target=-0.15)
    # m = -s0 is excluded: that point maps onto the cancellation floor
    for k in (8, 12):
        for m in (-0.5, 0.8, 2.5):
            back = m_from_mu(fam, k, mu_from_m(fam, k, m))
            # information loss is bounded by the lam**-2k amplification
            # of the rounding in mu
            tol = 64.0 * np.finfo(float).eps * 0.5 ** (-2 * k) * 0.5**k
            assert abs(back - m) <= max(1e-12, tol)


def test_window_borders_match_interval_formulas():
    fam = tune_to(_exact_family(), alpha_target=-0.1)
    t = fam.taylor
    for k in (8, 11, 14):
        lamk = 0.5**k
        mu_plus = -lamk * fam.y_minus * fam.alpha - fam.s0 * lamk**2 / t.d
        mu_minus = (
            -lamk * fam.y_minus * fam.alpha - (1.0 + fam.s0) * lamk**2 / t.d
        )
        assert mu_from_m(fam, k, 0.0) == pytest.approx(mu_plus, rel=1e-12)
        assert mu_from_m(fam, k, 1.0) == pytest.approx(mu_minus, rel=1e-12)


def test_precision_floor_guard():
    fam = tune_to(_exact_family(), alpha_target=0.3)
    t = fam.taylor
    k = 10
    base = 0.5**k * (t.c * fam.x_plus - fam.y_minus)
    with pytest.raises(PrecisionFloorError):
        m_from_mu(fam, k, -base * (1.0 + 1e-14))
    m_from_mu(fam, k, -base * (1.0 + 1e-9))


def test_dm_dmu_matches_leading_coefficient():
    fam = tune_to(_exact_family(), alpha_target=-0.1)
    for k in (8, 12):
        lamk = 0.5**k
        mu0 = mu_from_m(fam, k, 0.4)
        h = 1e-3 * lamk**2
        dm = (m_from_mu(fam, k, mu0 + h) - m_from_mu(fam, k, mu0 - h)) / (
            2.0 * h
        )
        assert dm == pytest.approx(-fam.taylor.d / lamk**2, rel=1e-6)


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_rescaled_map_reduces_to_quadratic_limit(lam):
    fam = _exact_family(lam)
    lin = np.linspace(-2.0, 2.0, 9)
    gx, gy = np.meshgrid(lin, lin)
    gx, gy = gx.ravel(), gy.ravel()
    for k in (8, 11, 14):
        frame = build_frame(fam, k)
        rr = frame.at_m(0.3)
        xb, yb = eval_rescaled(rr, (gx, gy))
        res = np.maximum(
            np.abs(xb - gy),
            np.abs(yb - (frame.m_effective(rr.mu) + gx - gy**2)),
        )
        assert float(np.max(res)) < 1e-10


def test_rescaled_determinant_is_minus_one():
    fam = _rich_family()
    for k in (8, 11, 14):
        rr = build_frame(fam, k).at_m(0.2)
        for p in [(0.0, 0.0), (1.2, -0.7), (-1.5, 1.1)]:
            det = np.linalg.det(rescaled_jacobian(rr, p))
            assert abs(det + 1.0) < 1e-9


def test_rescaled_jacobian_against_finite_differences():
    rr = build_frame(_rich_family(), 10).at_m(0.2)
    p = (0.4, -0.9)
    jac = rescaled_jacobian(rr, p)
    h = 1e-6
    fd = np.empty((2, 2))
    for j, dp in enumerate([(h, 0.0), (0.0, h)]):
        plus = eval_rescaled(rr, (p[0] + dp[0], p[1] + dp[1]))
        minus = eval_rescaled(rr, (p[0] - dp[0], p[1] - dp[1]))
        fd[0, j] = (plus[0] - minus[0]) / (2 * h)
        fd[1, j] = (plus[1] - minus[1]) / (2 * h)
    assert np.max(np.abs(jac - fd)) < 1e-5


def test_rescaled_fixed_point_near_limit_prediction():
    frame = build_frame(_exact_family(), 10)
    rr = frame.at_m(0.3)
    root = math.sqrt(frame.m_effective(rr.mu))
    p = np.array([root + 0.05, root - 0.05])
    for _ in range(40):
        fx, fy = eval_rescaled(rr, p)
        g = np.array([fx - p[0], fy - p[1]])
        if np.max(np.abs(g)) < 1e-13:
            break
        jac = rescaled_jacobian(rr, p) - np.eye(2)
        p = p - np.linalg.solve(jac, g)
    assert abs(p[0] - root) < 1e-9
    assert abs(p[1] - root) < 1e-9


def test_cubic_coefficient_fit():
    fam = build_family(
        LocalMapParams(0.5), HenonLikeRecipe(q=(0.0, 0.0, 1.0, 1.0))
    )
    t = fam.taylor
    for k in range(8, 15):
        c3 = fit_cubic_coefficient(build_frame(fam, k).at_m(0.3))
        target = t.f03 / t.d**2 * 0.5**k
        assert abs(c3 - target) <= 0.1 * abs(target)


def test_convergence_report_rich_family():
    rep = convergence_report(_rich_family(), range(8, 15), m=0.3)
    assert rep.bounded
    assert rep.slope_in_band
    assert max(rep.normalized) < 6.0
    assert list(rep.normalized) == sorted(rep.normalized, reverse=True)


def test_convergence_report_exact_family_is_noise():
    rep = convergence_report(_exact_family(), range(8, 15), m=0.3)
    assert max(rep.sup_residual) < 1e-9
    assert rep.bounded
    assert rep.log_slope is None


def test_rescaled_window_growth():
    rr = build_frame(_exact_family(), 8).at_m(0.0)
    assert rescaled_window(rr) == pytest.approx(0.5 ** (-2.0))


@settings(max_examples=20, deadline=None)
@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    k=st.integers(6, 14),
)
def test_chain_inversion_property(x, y, k):
    fam = _rich_family()
    rr = build_frame(fam, k).at_mu(1e-5)
    small = from_rescaled(rr, (x, y))
    back = to_rescaled(rr, small)
    assert abs(back[0] - x) < 1e-8
    assert abs(back[1] - y) < 1e-8


def test_theil_sen_slope_equals_scipy():
    from scipy.stats import theilslopes

    rng = np.random.default_rng(5)
    for n in (3, 4, 7, 8):
        ks = np.arange(8.0, 8.0 + n)
        y = -1.4 * ks + rng.normal(0.0, 0.3, n)
        assert _theil_sen_slope(ks, y) == theilslopes(y, ks)[0]
    # repeated x values drop out of the pairwise slopes in both
    ks = np.array([8.0, 9.0, 9.0, 10.0, 12.0])
    y = rng.normal(0.0, 1.0, 5)
    assert _theil_sen_slope(ks, y) == theilslopes(y, ks)[0]


@pytest.mark.parametrize(
    "recipe",
    [HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)),
     ShearSandwichRecipe()],
    ids=["fold", "sandwich"],
)
def test_scalar_and_jet_evaluations_stay_on_python_floats(recipe):
    # numpy scalars in the chain would turn every coefficient downstream
    # into an np.float64 and run the scalar solves in numpy arithmetic
    fam = build_family(LocalMapParams(0.5, (0.3,)), recipe, mu=1e-4)
    k = 10
    frame = build_frame(fam, k)
    for v in (*frame.matrix, frame.offset(fam.mu), *frame.inverse):
        assert len(v) == 2
        assert all(type(c) is float for c in v)
    rr = frame.at_m(m_from_mu(fam, k, fam.mu))
    out = eval_rescaled(rr, Jet.variables(0.1, -0.2, 1))
    assert all(type(c) is float for jet in out for c in jet.c)
    x, y, m = Jet.variables(0.1, -0.2, 0.5, 2)
    out = _map_at(build_frame(fam, k))(m)((x, y))
    assert all(type(c) is float for jet in out for c in jet.c)


def _reference_chain(family, k):
    """The chain with every step in numpy on every call, as it was before
    its mu-independent frame was split off."""
    t = family.taylor
    lamk = family.lam ** k
    xp, ym = family.x_plus, family.y_minus
    d_k = t.d + lamk * t.f12 * xp
    mu = family.mu.c[0] if isinstance(family.mu, Jet) else family.mu
    r1 = 1.0 + family.beta1 * k * lamk * xp * ym
    m1 = math.fsum(
        [
            mu,
            lamk * (t.c * xp - ym) * r1,
            lamk * lamk * xp * (t.a * t.c + t.f20 * xp),
        ]
    ) + (family.mu - mu)
    m2 = -d_k / lamk**2 * m1
    m3 = m2 + (t.f11 * xp) ** 2 / 4.0
    nu1 = -(t.e02 / (t.b * t.d)) * lamk
    nu2 = -nu1 - t.a * lamk
    m_eff = m3 * (1.0 + nu1) + 0.25 * t.a**2 * lamk**2
    su = -d_k / (t.b * lamk)
    sv = -d_k / lamk
    mix = np.array([[1.0, nu1], [-nu2, 1.0]])
    a_mat = mix @ np.diag([su, sv])
    shift1 = np.array([xp + t.a * lamk * xp, ym])
    w = 0.5 * t.f11 * xp
    shift5 = np.array([0.5 * t.a * lamk + nu1 * m3, 0.5 * t.a * lamk])
    offset = mix @ (np.diag([su, sv]) @ (-shift1) - np.array([w, w])) - shift5
    return {
        "matrix": tuple(tuple(row) for row in a_mat.tolist()),
        "offset": tuple(offset.tolist()),
        "inverse": tuple(
            tuple(row) for row in np.linalg.inv(a_mat).tolist()
        ),
        "m_effective": m_eff,
    }


def _bits(v):
    """repr down to the coefficients, so that signed zeros and the types of
    the numbers count."""
    if isinstance(v, Jet):
        return ("Jet", v.n, tuple(_bits(c) for c in v.c))
    if isinstance(v, tuple):
        return tuple(_bits(c) for c in v)
    return (type(v).__name__, repr(v))


# the four families of the chain-completeness study: e02 = f11 = 0 with
# beta = (), then p2 != 0, beta1 != 0 and the shear-sandwich recipe
_CHAIN_FAMILIES = {
    "fold": (LocalMapParams(0.5), HenonLikeRecipe()),
    "fold-p2": (
        LocalMapParams(0.5),
        HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)),
    ),
    "beta": (LocalMapParams(0.5, (0.5,)), HenonLikeRecipe()),
    "sandwich": (LocalMapParams(0.5), ShearSandwichRecipe()),
}


@pytest.mark.parametrize("name", sorted(_CHAIN_FAMILIES))
@pytest.mark.parametrize("jet_mu", [False, True], ids=["float-mu", "jet-mu"])
def test_chain_matches_the_uncached_numpy_chain(name, jet_mu):
    fam = build_family(*_CHAIN_FAMILIES[name])
    for k in range(8, 15):
        for m in (0.0, 0.3, 1.0, 1.7):
            if jet_mu:
                m = Jet.variables(0.1, -0.2, m, 2)[2]
            mu = mu_from_m(fam, k, m)
            ref = _reference_chain(fam.with_mu(mu), k)
            frame = build_frame(fam, k)
            assert _bits(frame.m_effective(mu)) == _bits(ref.pop("m_effective"))
            # the chain of one call, and the one a sweep derives from
            # its frame at each parameter value
            for rr in (build_chain(fam.with_mu(mu), k), frame.at_m(m)):
                got = {"matrix": rr.frame.matrix, "offset": rr.offset,
                       "inverse": rr.frame.inverse}
                for field, value in ref.items():
                    assert _bits(got[field]) == _bits(value), field
