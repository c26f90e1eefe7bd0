"""Orbit location, classification, and bifurcation borders."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homatlas.exceptions import (
    BracketError,
    CollapsedOrbitError,
    NewtonDivergedError,
    NotEllipticError,
)
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    build_family,
    tune_to,
)
from homatlas.mapcore import (
    _border_residual,
    _limit_seed,
    _locate_trace,
    eval_map,
)
from homatlas.orbits import (
    _map_at,
    find_fixed_point,
    find_two_periodic,
    locate_bifurcation,
    phase_of_elliptic,
    seed_from_limit,
)
from homatlas.rescale import (
    build_chain,
    build_frame,
    from_rescaled,
    mu_from_m,
    to_rescaled,
)
from homatlas.returnmap import (
    build_return_map,
    in_sigma0,
    solve_y0,
    t0_pow_closed,
)


def _exact_family(lam=0.5):
    # b = c = d = 1 with no higher jet, so the rescaled map is the
    # quadratic limit up to rounding and every oracle below is exact
    return build_family(LocalMapParams(lam), HenonLikeRecipe())


def _s04_family(lam=0.5):
    # quadratic outgoing jet with p2 = sqrt(0.4) puts the invariant
    # s0 = -p2^2 at -0.4 while alpha stays 0
    recipe = HenonLikeRecipe(p=(0.0, 1.0, math.sqrt(0.4)))
    return build_family(LocalMapParams(lam), recipe)


def _rm_at(family, k, m):
    mu = mu_from_m(family, k, m)
    return build_return_map(family.with_mu(mu), k)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _seed_to_rescaled(family, k, chain, seed):
    # seeds live in strip entry coordinates; the chain works on the pair
    # (x at entry, y after the k local steps)
    _, yk = t0_pow_closed(family.local, seed, k)
    return to_rescaled(chain, (seed[0], float(yk)))


def test_seed_from_limit_round_trip():
    family = _exact_family()
    rm = _rm_at(family, 10, 0.25)
    chain = build_chain(rm.family, 10)
    seeds = seed_from_limit(rm, 0.25, "two")
    assert len(seeds) == 2
    back = _seed_to_rescaled(family, 10, chain, seeds[0])
    assert abs(back[0] + 0.5) < 1e-10
    assert abs(back[1] - 0.5) < 1e-10
    for seed in seeds:
        x, y = seed
        assert bool(in_sigma0(family, 10, np.array([x]), np.array([y]))[0])
    (fp,) = seed_from_limit(rm, 0.25, "fp-")
    back = _seed_to_rescaled(family, 10, chain, fp)
    assert abs(back[0] + 0.5) < 1e-10
    with pytest.raises(ValueError):
        seed_from_limit(rm, 0.25, "three")
    with pytest.raises(ValueError):
        seed_from_limit(rm, -0.1, "fp+")


def test_fixed_points_at_quarter_are_saddles():
    family = _exact_family()
    rm = _rm_at(family, 10, 0.25)
    records = {}
    for orbit in ("fp+", "fp-"):
        (seed,) = seed_from_limit(rm, 0.25, orbit)
        rec = find_fixed_point(rm, seed)
        records[orbit] = rec
        assert rec.stability.tag == "saddle"
        assert rec.period_label == 11
        assert rec.residual < 1e-10
        assert len(rec.points) == 1
        x, y = rec.points[0]
        assert bool(in_sigma0(family, 10, np.array([x]), np.array([y]))[0])
        prod = rec.multipliers[0] * rec.multipliers[1]
        assert abs(prod + 1.0) < 1e-9
    # the limit fixed point at (0.5, 0.5) has trace -1, so the
    # multipliers are the golden pair (-phi, 1/phi)
    big = records["fp+"].multipliers[0]
    assert abs(big + GOLDEN) < 1e-9
    big = records["fp-"].multipliers[0]
    assert abs(big - GOLDEN) < 1e-9
    assert records["fp+"].points[0] != records["fp-"].points[0]


def test_fixed_point_multipliers_at_plus_border():
    family = _exact_family()
    bp = locate_bifurcation(build_frame(family, 10), "plus")
    rm = build_return_map(family.with_mu(bp.mu), 10)
    (seed,) = seed_from_limit(rm, 0.0, "fp+")
    rec = find_fixed_point(rm, seed)
    lo, hi = sorted(rec.multipliers)
    assert abs(lo + 1.0) < 1e-6
    assert abs(hi - 1.0) < 1e-6


def test_newton_diverges_without_fixed_points():
    family = _exact_family()
    rm = _rm_at(family, 10, -0.5)
    chain = build_chain(rm.family, 10)
    failures = 0
    for gx in (-1.0, 0.0, 1.0):
        for gy in (-1.0, 0.0, 1.0):
            cx, cy = from_rescaled(chain, (gx, gy))
            seed = (cx, float(solve_y0(family.local, 10, cx, cy)))
            with pytest.raises(NewtonDivergedError):
                find_fixed_point(rm, seed)
            failures += 1
    assert failures == 9


def test_two_orbit_elliptic_at_quarter():
    family = _exact_family()
    rm = _rm_at(family, 10, 0.25)
    seed = seed_from_limit(rm, 0.25, "two")[0]
    rec = find_two_periodic(rm, seed)
    assert rec.stability.tag == "elliptic-generic"
    assert rec.period_label == 22
    assert rec.residual < 1e-10
    assert len(rec.points) == 2
    # limit trace 2 - 4M = 1, so the phase is pi/3
    assert abs(phase_of_elliptic(rec) - math.pi / 3.0) < 1e-9
    m1, m2 = rec.multipliers
    assert abs(m1 * m2 - 1.0) < 1e-9
    assert abs(abs(m1) - 1.0) < 1e-9
    assert abs(m1 - np.conj(m2)) < 1e-9
    # the two points form one orbit under the return map
    fam = rm.family
    image = eval_map(
        fam.global_expr(), t0_pow_closed(fam.local, rec.points[0], rm.k)
    )
    assert abs(image[0] - rec.points[1][0]) < 1e-9
    assert abs(image[1] - rec.points[1][1]) < 1e-9


def test_two_orbit_trace_envelope_with_quadratic_jet():
    family = _s04_family()
    k = 10
    rm = _rm_at(family, k, 0.25)
    rec = find_two_periodic(rm, seed_from_limit(rm, 0.25, "two")[0])
    assert rec.stability.tag == "elliptic-generic"
    trace = 2.0 * math.cos(rec.stability.phase)
    # limit trace is 1; the finite-k correction stays inside a few k lam^k
    assert abs(trace - 1.0) < 10.0 * k * 0.5**k


def test_two_orbit_parabolic_at_one():
    family = _exact_family()
    rm = _rm_at(family, 10, 1.0)
    rec = find_two_periodic(rm, seed_from_limit(rm, 1.0, "two")[0])
    assert rec.stability.tag == "parabolic-minus"
    with pytest.raises(NotEllipticError):
        phase_of_elliptic(rec)


def test_two_orbit_collapse_and_absence():
    family = _exact_family()
    rm = _rm_at(family, 10, 0.25)
    fp_seed = seed_from_limit(rm, 0.25, "fp+")[0]
    with pytest.raises(CollapsedOrbitError):
        find_two_periodic(rm, fp_seed)
    rm_below = _rm_at(family, 10, -0.5)
    seed = seed_from_limit(rm, 0.25, "two")[0]
    with pytest.raises(NewtonDivergedError):
        find_two_periodic(rm_below, seed)


def test_locate_bifurcation_exact_values():
    family = _exact_family()
    lam2k = 0.5 ** 20
    frame = build_frame(family, 10)
    plus = locate_bifurcation(frame, "plus")
    assert plus.kind == "plus"
    assert plus.k == 10
    assert abs(plus.mu) <= 1e-8 * lam2k
    minus = locate_bifurcation(frame, "minus")
    assert abs(minus.mu + lam2k) <= 1e-8 * lam2k
    with pytest.raises(ValueError):
        locate_bifurcation(frame, "flip")


def test_locate_bifurcation_quadratic_jet_predictions():
    family = _s04_family()
    for k in (8, 10, 12):
        lam2k = 0.5 ** (2 * k)
        envelope = 5.0 * k * 0.5**k
        frame = build_frame(family, k)
        plus = locate_bifurcation(frame, "plus")
        assert abs(plus.mu / lam2k - 0.4) <= envelope
        minus = locate_bifurcation(frame, "minus")
        assert abs(minus.mu / lam2k + 0.6) <= envelope


def test_interval_width_ratio_approaches_lambda_squared():
    family = _s04_family()
    widths = {}
    for k in (11, 12, 13):
        frame = build_frame(family, k)
        plus = locate_bifurcation(frame, "plus")
        minus = locate_bifurcation(frame, "minus")
        widths[k] = abs(plus.mu - minus.mu)
    for k in (11, 12):
        ratio = widths[k + 1] / widths[k]
        assert abs(ratio / 0.25 - 1.0) < 0.05


def test_phase_resonance_flags():
    family = _exact_family()
    cases = {
        0.5: ("resonance-1:4", math.pi / 2.0),
        0.75: ("resonance-1:3", 2.0 * math.pi / 3.0),
        0.625: ("twistless", math.acos(-0.25)),
    }
    for m, (tag, phase) in cases.items():
        rm = _rm_at(family, 10, m)
        rec = find_two_periodic(rm, seed_from_limit(rm, m, "two")[0])
        assert rec.stability.tag == tag
        assert abs(phase_of_elliptic(rec) - phase) < 1e-9


def test_trace_monotone_across_interval():
    family = _s04_family()
    k = 10
    traces = []
    mus = []
    for m in np.linspace(0.03, 0.97, 20):
        rm = _rm_at(family, k, float(m))
        rec = find_two_periodic(rm, seed_from_limit(rm, float(m), "two")[0])
        traces.append(2.0 * math.cos(rec.stability.phase))
        mus.append(rec.mu_at)
    order = np.argsort(mus)
    ordered = np.array(traces)[order]
    assert np.all(np.diff(ordered) > 0.0)


def test_saddle_pair_and_elliptic_inside_interval():
    family = _s04_family()
    rm = _rm_at(family, 10, 0.5)
    for orbit in ("fp+", "fp-"):
        rec = find_fixed_point(rm, seed_from_limit(rm, 0.5, orbit)[0])
        assert rec.stability.tag == "saddle"
    two = find_two_periodic(rm, seed_from_limit(rm, 0.5, "two")[0])
    assert two.stability.phase is not None


def test_intervals_disjoint_for_nonzero_alpha():
    base = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    family = tune_to(base, alpha_target=-0.1)
    spans = []
    for k in (10, 11, 12):
        frame = build_frame(family, k)
        plus = locate_bifurcation(frame, "plus")
        minus = locate_bifurcation(frame, "minus")
        lo, hi = sorted((plus.mu, minus.mu))
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


_BORDERS = {"plus": (1, 0.0), "minus": (2, -2.0)}
# 2-orbit trace targets of the cascade row's resonance flags
_FLAG_TARGETS = (0.0, -0.5, -1.0)


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_border_jacobian_matches_central_differences(kind, k):
    family = _cubic_family()
    rounds, target = _BORDERS[kind]
    z = np.array(_limit_seed(rounds, target))
    map_at = _map_at(build_frame(family, k))
    _, jac = _border_residual(map_at, rounds, target, z)
    fd = np.empty((3, 3))
    for j in range(3):
        h = 1e-6 * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fp = _border_residual(map_at, rounds, target, zp)[0]
        fm = _border_residual(map_at, rounds, target, zm)[0]
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
    x0, yk = from_rescaled(build_chain(family.with_mu(mu0), k), seed[:2])
    y0 = solve_y0(family.local, k, float(x0), float(yk))
    with mp.workdps(50):
        seed = (mp.mpf(float(x0)), mp.mpf(y0), mp.mpf(mu0))
        return float(mp.findroot(system, seed)[2])


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_border_matches_mpmath_border(kind, k):
    family = _cubic_family()
    mu = locate_bifurcation(build_frame(family, k), kind).mu
    oracle = _mpmath_border(family, k, *_BORDERS[kind])
    assert abs(mu - oracle) <= 1e-10 * 0.5 ** (2 * k)


@pytest.mark.parametrize("k", [8, 12])
@pytest.mark.parametrize("target", _FLAG_TARGETS)
def test_flag_trace_matches_mpmath(target, k):
    family = _cubic_family()
    map_at = _map_at(build_frame(family, k))
    m_star = _locate_trace(map_at, 2, target, (0.02, 0.98))
    oracle = _mpmath_border(family, k, 2, target)
    assert abs(mu_from_m(family, k, m_star) - oracle) <= 1e-10 * 0.5 ** (2 * k)


def test_bracket_error_outside_border():
    map_at = _map_at(build_frame(_exact_family(), 10))
    for rounds, target in _BORDERS.values():
        with pytest.raises(BracketError):
            _locate_trace(map_at, rounds, target, (2.0, 3.0))
    # the 1:3 flag sits at M = 3/4, outside this bracket
    with pytest.raises(BracketError):
        _locate_trace(map_at, 2, -1.0, (0.02, 0.7))


@settings(max_examples=25, deadline=None)
@given(m=st.floats(min_value=0.05, max_value=0.95))
def test_two_orbit_multiplier_product_property(m):
    family = _exact_family()
    rm = _rm_at(family, 10, m)
    rec = find_two_periodic(rm, seed_from_limit(rm, m, "two")[0])
    m1, m2 = rec.multipliers
    assert abs(m1 * m2 - 1.0) < 1e-9
    assert rec.residual < 1e-10
