"""Orbit location, classification, and bifurcation borders."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas.atlas import _M_RANGE, _N_PHI, certify_global_resonance
from homatlas.exceptions import (
    BracketError,
    CollapsedOrbitError,
    NewtonDivergedError,
)
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    ShearSandwichRecipe,
    build_family,
    tune_to,
)
from homatlas.henon import ELLIPTIC_EVENTS, TRACE_EVENTS, classify_from_trace
from homatlas.mapcore import (
    Jet,
    _border_residual,
    _lane_newton,
    _limit_seed,
    _locate_trace_lanes,
    eval_map,
)
from homatlas.orbits import (
    _orbit_residual,
    find_two_periodic,
    locate_bifurcation,
    two_orbit_trace,
)
from homatlas.rescale import (
    build_frame,
    eval_rescaled,
    from_rescaled,
    m_from_mu,
    mu_from_m,
    rescaled_window,
)
from homatlas.returnmap import in_sigma0, solve_y0


def _exact_family(lam=0.5):
    # b = c = d = 1 with no higher jet, so the rescaled map is the
    # quadratic limit up to rounding and every oracle below is exact
    return build_family(LocalMapParams(lam), HenonLikeRecipe())


def _s04_family(lam=0.5):
    # quadratic outgoing jet with p2 = sqrt(0.4) puts the invariant
    # s0 = -p2^2 at -0.4 while alpha stays 0
    recipe = HenonLikeRecipe(p=(0.0, 1.0, math.sqrt(0.4)))
    return build_family(LocalMapParams(lam), recipe)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _one_lane_orbit(rr, z0, rounds, window=None):
    """z, the residual and D(F^rounds) of F^rounds(z) = z by the one-lane
    Newton from a rescaled seed, or its error raised."""
    (outcome,) = _lane_newton(
        lambda z, lanes: _orbit_residual(rr, rounds, z),
        np.array([z0], dtype=float), 1e-11, [window],
    )
    if isinstance(outcome, NewtonDivergedError):
        raise outcome
    z, (f, _, jac, _) = outcome
    return z, f, jac


def _rescaled_map_at(frame):
    """M -> the frame's rescaled return map at M, for the locator."""
    return lambda m: functools.partial(eval_rescaled, frame.at_m(m))


def _locate_one(map_at, rounds, trace, m_bracket):
    """M of the one-lane bordered locator on map_at, or its error raised."""
    (m_star,) = _locate_trace_lanes(lambda m, lanes: map_at(m),
                                    [(rounds, trace, m_bracket)])
    if isinstance(m_star, Exception):
        raise m_star
    return m_star


def _fixed_point(rr, seed):
    """Fixed point of the rescaled return map rr from a rescaled seed, in
    the window the 2-orbit solver uses: the point, the residual, the
    multipliers by decreasing modulus and the stability class."""
    window = 1.5 * rescaled_window(rr) + 2.0
    z, f, jac = _one_lane_orbit(rr, seed, 1, window=window)
    mults = sorted(np.linalg.eigvals(jac).real, key=abs, reverse=True)
    stab = classify_from_trace(float(np.trace(jac)), float(np.linalg.det(jac)))
    return z, float(np.max(np.abs(f))), mults, stab


def _strip_point(rr, z):
    """The entry point (x0, y0) in sigma0 of a rescaled point."""
    x0, yk = from_rescaled(rr, z)
    return x0, float(solve_y0(rr.frame.local, rr.frame.k, x0, yk))


def test_fixed_points_at_quarter_are_saddles():
    family = _exact_family()
    rr = build_frame(family, 10).at_m(0.25)
    points, mults = {}, {}
    for sign in (1.0, -1.0):
        z, residual, mults[sign], stab = _fixed_point(rr, (0.5 * sign,) * 2)
        points[sign] = tuple(z)
        assert stab.tag == "saddle"
        assert residual < 1e-10
        x, y = _strip_point(rr, z)
        assert bool(in_sigma0(family, 10, np.array([x]), np.array([y]))[0])
        assert abs(mults[sign][0] * mults[sign][1] + 1.0) < 1e-9
    # the limit fixed point at (0.5, 0.5) has trace -1, so the
    # multipliers are the golden pair (-phi, 1/phi)
    assert abs(mults[1.0][0] + GOLDEN) < 1e-9
    assert abs(mults[-1.0][0] - GOLDEN) < 1e-9
    assert points[1.0] != points[-1.0]


def test_fixed_point_multipliers_at_plus_border():
    family = _exact_family()
    frame = build_frame(family, 10)
    mu_plus = locate_bifurcation(frame, "plus")
    rr = frame.at_m(m_from_mu(family, 10, mu_plus))
    _, _, mults, _ = _fixed_point(rr, (0.0, 0.0))
    lo, hi = sorted(mults)
    assert abs(lo + 1.0) < 1e-6
    assert abs(hi - 1.0) < 1e-6


def test_newton_diverges_without_fixed_points():
    rr = build_frame(_exact_family(), 10).at_m(-0.5)
    failures = 0
    for gx in (-1.0, 0.0, 1.0):
        for gy in (-1.0, 0.0, 1.0):
            with pytest.raises(NewtonDivergedError):
                _fixed_point(rr, (gx, gy))
            failures += 1
    assert failures == 9


def test_two_orbit_elliptic_at_quarter():
    family = _exact_family()
    frame = build_frame(family, 10)
    rec = find_two_periodic(frame, 0.25, (-0.5, 0.5))
    assert rec.stability.tag == "elliptic-generic"
    assert rec.residual < 1e-10
    assert len(rec.points) == 2
    # limit trace 2 - 4M = 1, so the phase is pi/3
    assert abs(rec.stability.phase - math.pi / 3.0) < 1e-9
    m1, m2 = rec.multipliers
    assert abs(m1 * m2 - 1.0) < 1e-9
    assert abs(abs(m1) - 1.0) < 1e-9
    assert abs(m1 - np.conj(m2)) < 1e-9
    # the two points form one orbit under the return map
    image = eval_rescaled(frame.at_m(0.25), rec.points[0])
    assert abs(image[0] - rec.points[1][0]) < 1e-9
    assert abs(image[1] - rec.points[1][1]) < 1e-9


def test_two_orbit_trace_envelope_with_quadratic_jet():
    k = 10
    rec = find_two_periodic(build_frame(_s04_family(), k), 0.25, (-0.5, 0.5))
    assert rec.stability.tag == "elliptic-generic"
    trace = 2.0 * math.cos(rec.stability.phase)
    # limit trace is 1; the finite-k correction stays inside a few k lam^k
    assert abs(trace - 1.0) < 10.0 * k * 0.5**k


def test_two_orbit_parabolic_at_one():
    rec = find_two_periodic(build_frame(_exact_family(), 10), 1.0, (-1.0, 1.0))
    assert rec.stability.tag == "parabolic-minus"
    assert rec.stability.phase is None


def test_two_orbit_collapse_and_absence():
    frame = build_frame(_exact_family(), 10)
    with pytest.raises(CollapsedOrbitError):
        find_two_periodic(frame, 0.25, (0.5, 0.5))
    with pytest.raises(NewtonDivergedError):
        find_two_periodic(frame, -0.5, (-0.5, 0.5))


def test_locate_bifurcation_exact_values():
    family = _exact_family()
    lam2k = 0.5 ** 20
    frame = build_frame(family, 10)
    mu_plus = locate_bifurcation(frame, "plus")
    assert abs(mu_plus) <= 1e-8 * lam2k
    mu_minus = locate_bifurcation(frame, "minus")
    assert abs(mu_minus + lam2k) <= 1e-8 * lam2k
    for kind in ("flip", "fixed-point-birth", "period-doubling"):
        with pytest.raises(ValueError):
            locate_bifurcation(frame, kind)
    # the resonance kinds sit at M = 1/2, 5/8, 3/4, i.e. mu = -M lam^(2k)
    for name, m in zip(ELLIPTIC_EVENTS, (0.5, 0.625, 0.75)):
        mu = locate_bifurcation(frame, name)
        assert abs(mu / lam2k + m) < 1e-9


def test_locate_bifurcation_quadratic_jet_predictions():
    family = _s04_family()
    for k in (8, 10, 12):
        lam2k = 0.5 ** (2 * k)
        envelope = 5.0 * k * 0.5**k
        frame = build_frame(family, k)
        mu_plus = locate_bifurcation(frame, "plus")
        assert abs(mu_plus / lam2k - 0.4) <= envelope
        mu_minus = locate_bifurcation(frame, "minus")
        assert abs(mu_minus / lam2k + 0.6) <= envelope


def test_interval_width_ratio_approaches_lambda_squared():
    family = _s04_family()
    widths = {}
    for k in (11, 12, 13):
        frame = build_frame(family, k)
        mu_plus = locate_bifurcation(frame, "plus")
        mu_minus = locate_bifurcation(frame, "minus")
        widths[k] = abs(mu_plus - mu_minus)
    for k in (11, 12):
        ratio = widths[k + 1] / widths[k]
        assert abs(ratio / 0.25 - 1.0) < 0.05


def test_phase_resonance_flags():
    frame = build_frame(_exact_family(), 10)
    cases = {
        0.5: ("resonance-1:4", math.pi / 2.0),
        0.75: ("resonance-1:3", 2.0 * math.pi / 3.0),
        0.625: ("twistless", math.acos(-0.25)),
    }
    for m, (tag, phase) in cases.items():
        root = math.sqrt(m)
        rec = find_two_periodic(frame, m, (-root, root))
        assert rec.stability.tag == tag
        assert abs(rec.stability.phase - phase) < 1e-9


def test_trace_monotone_across_interval():
    frame = build_frame(_s04_family(), 10)
    traces = []
    mus = []
    for m in np.linspace(0.03, 0.97, 20).tolist():
        root = math.sqrt(m)
        rec = find_two_periodic(frame, m, (-root, root))
        traces.append(2.0 * math.cos(rec.stability.phase))
        mus.append(rec.mu_at)
    order = np.argsort(mus)
    ordered = np.array(traces)[order]
    assert np.all(np.diff(ordered) > 0.0)


# the phase curve's family set: both recipes, each with one Moser term,
# over six |lam| of both signs; each family gives the rows k = 8..14
_LANE_FAMILIES = {
    "fold": lambda local: tune_to(
        build_family(local, HenonLikeRecipe(p=(0.0, 1.0, 0.3),
                                            q=(0.0, 0.0, 1.0, 1.0))),
        alpha_target=-0.1,
    ),
    "sandwich": lambda local: build_family(local, ShearSandwichRecipe()),
}
_LANE_LAMS = tuple(sign * lam for lam in (0.45, 0.47, 0.49, 0.51, 0.53, 0.55)
                   for sign in (1.0, -1.0))


def _one_lane_trace(frame, m):
    """tr D(F^2) of the 2-orbit at M from a one-lane solve on floats."""
    root = math.sqrt(max(m, 1e-9))
    _, _, jac = _one_lane_orbit(frame.at_m(m), (-root, root), 2)
    return float(np.trace(jac))


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("recipe", sorted(_LANE_FAMILIES))
def test_lane_traces_match_one_lane_solves(recipe, beta):
    """Every lane of the phase curve's one Newton is bit for bit the
    one-lane solve at its M, over 84 cascade rows per case.  Row k checks
    the four grid points from 4 (k - 8) on, so the seven rows of a family
    cover all 25; a row whose lanes fail raises the error of the lowest
    failing grid point, as the loop over the grid does."""
    grid = np.linspace(*_M_RANGE, _N_PHI).tolist()
    for lam in _LANE_LAMS:
        family = _LANE_FAMILIES[recipe](LocalMapParams(lam, (beta,)))
        for k in range(8, 15):
            frame = build_frame(family, k)
            try:
                lanes = two_orbit_trace(frame, np.array(grid)).tolist()
            except NewtonDivergedError as exc:
                with pytest.raises(NewtonDivergedError) as loop:
                    for m in grid:
                        _one_lane_trace(frame, m)
                assert str(loop.value) == str(exc)
                continue
            for i in range(4 * (k - 8), 4 * (k - 7)):
                i %= len(grid)
                want = _one_lane_trace(frame, grid[i])
                assert lanes[i].hex() == want.hex(), (lam, k, i)


def test_failing_lane_leaves_the_other_lanes_their_one_lane_solves():
    """A phase-curve row whose grid point 0 fails (sandwich, beta = 1.0,
    lam = 0.51, k = 8): that lane carries the error of its one-lane solve,
    and the other 24 lanes run to the points of theirs."""
    frame = build_frame(
        _LANE_FAMILIES["sandwich"](LocalMapParams(0.51, (1.0,))), 8
    )
    grid = np.linspace(*_M_RANGE, _N_PHI)
    roots = [math.sqrt(max(m, 1e-9)) for m in grid.tolist()]
    outcomes = _lane_newton(
        lambda z, lanes: _orbit_residual(frame.at_m(grid[lanes]), 2, z),
        np.array([(-r, r) for r in roots]), 1e-11, None,
    )
    with pytest.raises(NewtonDivergedError, match="no descent step") as one:
        _one_lane_trace(frame, float(grid[0]))
    assert isinstance(outcomes[0], NewtonDivergedError)
    assert str(outcomes[0]) == str(one.value)
    for i, (m, root) in enumerate(zip(grid.tolist()[1:], roots[1:]), 1):
        z, f, jac = _one_lane_orbit(frame.at_m(m), (-root, root), 2)
        point, (f_lane, _, jac_lane, _) = outcomes[i]
        for lane, want in ((point, z), (f_lane, f), (jac_lane, jac)):
            assert ([v.hex() for v in lane.ravel().tolist()]
                    == [v.hex() for v in want.ravel().tolist()]), i
    # the phase curve still drops the row with that error
    with pytest.raises(NewtonDivergedError, match="no descent step"):
        two_orbit_trace(frame, grid)


def test_saddle_pair_and_elliptic_inside_interval():
    frame = build_frame(_s04_family(), 10)
    root = math.sqrt(0.5)
    for sign in (1.0, -1.0):
        _, _, _, stab = _fixed_point(frame.at_m(0.5), (sign * root,) * 2)
        assert stab.tag == "saddle"
    two = find_two_periodic(frame, 0.5, (-root, root))
    assert two.stability.phase is not None


def test_intervals_disjoint_for_nonzero_alpha():
    base = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    family = tune_to(base, alpha_target=-0.1)
    spans = []
    for k in (10, 11, 12):
        frame = build_frame(family, k)
        mu_plus = locate_bifurcation(frame, "plus")
        mu_minus = locate_bifurcation(frame, "minus")
        lo, hi = sorted((mu_plus, mu_minus))
        spans.append((lo, hi))
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi2 < lo1 or hi1 < lo2
    widths = [hi - lo for lo, hi in spans]
    assert widths[1] < widths[0]
    assert widths[2] < widths[1]


def _cubic_family():
    # Moser term, cubic tangency and alpha != 0 exercise every jet path
    base = build_family(
        LocalMapParams(0.5, (0.3,)),
        HenonLikeRecipe(p=(0.0, 1.0, 0.3), q=(0.0, 0.0, 1.0, 1.0)),
    )
    return tune_to(base, alpha_target=-0.04)


# kind -> (rounds, trace) of its border
_BORDERS = {"plus": TRACE_EVENTS["fixed-point-birth"][:2],
            "minus": TRACE_EVENTS["period-doubling"][:2]}
# 2-orbit trace targets of the cascade row's resonance flags
_FLAG_TARGETS = tuple(TRACE_EVENTS[name][1] for name in ELLIPTIC_EVENTS)


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_border_jacobian_matches_central_differences(kind, k):
    family = _cubic_family()
    rounds, target = _BORDERS[kind]
    z = np.array([_limit_seed(rounds, target)])
    map_at = _rescaled_map_at(build_frame(family, k))
    _, (jac,) = _border_residual(map_at, rounds, target, z)
    fd = np.empty((3, 3))
    for j in range(3):
        h = 1e-6 * max(1.0, abs(z[0, j]))
        zp, zm = z.copy(), z.copy()
        zp[0, j] += h
        zm[0, j] -= h
        (fp,) = _border_residual(map_at, rounds, target, zp)[0]
        (fm,) = _border_residual(map_at, rounds, target, zm)[0]
        fd[:, j] = (fp - fm) / (2.0 * h)
    assert np.max(np.abs(jac - fd)) <= 1e-5 * np.max(np.abs(fd))


def _mpmath_border(family, k, rounds, target):
    """mu where the r-orbit of the unrescaled return map T1 o T0^k has
    trace target, at 50 digits: T0^k by k Moser steps, the trace by
    mp.diff, the bordered system by mp.findroot from the limit-map
    seed."""
    moser = family.local.stage()

    def ret(x, y, mu):
        expr = family.recipe.stages(mu)
        for _ in range(rounds):
            for _ in range(k):
                x, y = moser.apply(x, y)
            x, y = eval_map(expr, (x, y))
        return x, y

    def system(x, y, mu):
        fx, fy = ret(x, y, mu)
        trace = (mp.diff(lambda s: ret(s, y, mu)[0], x)
                 + mp.diff(lambda s: ret(x, s, mu)[1], y))
        return [fx - x, fy - y, trace - target]

    seed = _limit_seed(rounds, target)
    mu0 = mu_from_m(family, k, seed[2])
    x0, yk = from_rescaled(build_frame(family, k).at_mu(mu0), seed[:2])
    y0 = solve_y0(family.local, k, float(x0), float(yk))
    with mp.workdps(50):
        seed = (mp.mpf(float(x0)), mp.mpf(y0), mp.mpf(mu0))
        return float(mp.findroot(system, seed)[2])


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_border_matches_mpmath_border(kind, k):
    family = _cubic_family()
    mu = locate_bifurcation(build_frame(family, k), kind)
    oracle = _mpmath_border(family, k, *_BORDERS[kind])
    assert abs(mu - oracle) <= 1e-10 * 0.5 ** (2 * k)


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("target", _FLAG_TARGETS)
def test_flag_trace_matches_mpmath(target, k):
    family = _cubic_family()
    map_at = _rescaled_map_at(build_frame(family, k))
    m_star = _locate_one(map_at, 2, target, (0.02, 0.98))
    oracle = _mpmath_border(family, k, 2, target)
    assert abs(mu_from_m(family, k, m_star) - oracle) <= 1e-10 * 0.5 ** (2 * k)


def _mpmath_two_orbit_cos(family, k):
    """cos(phi) of the 2-orbit of the unrescaled return map T1 o T0^k at
    mu = 0, at 50 digits: T0^k by k Moser steps, the orbit by mp.findroot
    from the limit seed (-sqrt(-s0), sqrt(-s0)), and half the trace of
    D(F^2) by mp.diff."""
    moser = family.local.stage()
    expr = family.recipe.stages(0.0)

    def ret2(x, y):
        for _ in range(2):
            for _ in range(k):
                x, y = moser.apply(x, y)
            x, y = eval_map(expr, (x, y))
        return x, y

    def system(x, y):
        fx, fy = ret2(x, y)
        return [fx - x, fy - y]

    root = math.sqrt(-family.s0)
    x0, yk = from_rescaled(build_frame(family, k).at_mu(0.0), (-root, root))
    y0 = solve_y0(family.local, k, x0, yk)
    with mp.workdps(50):
        x, y = mp.findroot(system, (mp.mpf(x0), mp.mpf(y0)))
        trace = (mp.diff(lambda s: ret2(s, y)[0], x)
                 + mp.diff(lambda s: ret2(x, s)[1], y))
        return float(trace / 2)


def _newton_stop_bound(rr, z):
    """How far cos(phi) = tr D(F^2)/2 can sit from its value at the exact
    orbit when Newton stops at |F^2(z) - z| < 1e-11 without a last step:
    the point is off by at most |(D(F^2) - I)^-1| 1e-11 in the max norm,
    and the trace moves by its gradient times that.  D(F^2) and the
    gradient come from one pass on degree-2 jets at z."""
    fx, fy = Jet.variables(float(z[0]), float(z[1]), 2)
    for _ in range(2):
        fx, fy = eval_rescaled(rr, (fx, fy))
    jac = np.array([[fx.coeff(1, 0), fx.coeff(0, 1)],
                    [fy.coeff(1, 0), fy.coeff(0, 1)]])
    grad = (2.0 * fx.coeff(2, 0) + fy.coeff(1, 1),
            fx.coeff(1, 1) + 2.0 * fy.coeff(0, 2))
    dz = np.linalg.norm(np.linalg.inv(jac - np.eye(2)), np.inf) * 1e-11
    return 0.5 * (abs(grad[0]) + abs(grad[1])) * dz


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize(
    "family",
    [_s04_family(),
     # a != 0 and f20 != 0 with s0 = -0.4 and alpha = 0
     build_family(LocalMapParams(0.5), ShearSandwichRecipe(d=-0.8))],
    ids=["fold-s04", "sandwich"],
)
def test_certificate_two_orbit_matches_mpmath(family, k):
    (rec,) = certify_global_resonance(family, (k,)).records
    frame = build_frame(family, k)
    m0 = m_from_mu(family, k, 0.0)
    root = math.sqrt(-family.s0)
    orbit = find_two_periodic(frame, m0, (-root, root))
    assert math.cos(orbit.stability.phase) == rec.cos_phi
    bound = _newton_stop_bound(frame.at_m(m0), orbit.points[0])
    assert abs(rec.cos_phi - _mpmath_two_orbit_cos(family, k)) <= bound


def test_bracket_error_outside_border():
    map_at = _rescaled_map_at(build_frame(_exact_family(), 10))
    for rounds, target in _BORDERS.values():
        with pytest.raises(BracketError):
            _locate_one(map_at, rounds, target, (2.0, 3.0))
    # the 1:3 flag sits at M = 3/4, outside this bracket
    with pytest.raises(BracketError):
        _locate_one(map_at, 2, -1.0, (0.02, 0.7))


@settings(max_examples=25, deadline=None)
@given(m=st.floats(min_value=0.05, max_value=0.95))
def test_two_orbit_multiplier_product_property(m):
    root = math.sqrt(m)
    rec = find_two_periodic(build_frame(_exact_family(), 10), m, (-root, root))
    m1, m2 = rec.multipliers
    assert abs(m1 * m2 - 1.0) < 1e-9
    assert rec.residual < 1e-10
