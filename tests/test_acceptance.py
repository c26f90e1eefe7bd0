"""Acceptance gate.

Each test covers one headline capability, prints a single pass/fail
line with the measured numbers (visible even under pytest capture),
and enforces the stated tolerance and runtime budgets.
"""

import time

import numpy as np

from homatlas.atlas import (
    boundary_slope,
    certify_global_resonance,
    pairwise_intersections,
    run_cascade,
    run_strip_atlas,
)
from homatlas.family import (
    HenonLikeRecipe,
    LocalMapParams,
    ShearSandwichRecipe,
    build_family,
    tune_to,
)
from homatlas.henon import (
    bifurcation_values,
    horseshoe_certificate,
    rotation_number_slope,
)
from homatlas.mapcore import eval_map, iterate, jacobian, jacobian_of
from homatlas.rescale import (
    build_frame,
    convergence_report,
    fit_cubic_coefficient,
    mu_from_m,
)
from homatlas.returnmap import (
    classify_horseshoe,
    solve_y0,
    t0_pow_closed,
    validate_cross_form,
)


def _line(capsys, ok, msg):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {msg}")


def _rich_tuned(lam):
    base = build_family(
        LocalMapParams(lam), HenonLikeRecipe(p=(0, 1, 0.3), q=(0, 0, 1, 1))
    )
    return tune_to(base, alpha_target=-0.1)


def _s0_tuned(s0):
    base = build_family(
        LocalMapParams(0.5),
        HenonLikeRecipe(p=(0, 1, np.sqrt(-s0))),
    )
    return tune_to(base, s0_target=s0)


def test_acceptance_1_limit_map_roots(capsys):
    t0 = time.perf_counter()
    vals = bifurcation_values()
    targets = {
        "fixed-point-birth": 0.0,
        "period-doubling": 1.0,
        "resonance-1:4": 0.5,
        "resonance-1:3": 0.75,
    }
    err9 = max(abs(vals[name] - m) for name, m in targets.items())
    err_tw = abs(vals["twistless"] - 0.625)
    slope_lo = rotation_number_slope(0.55)
    slope_hi = rotation_number_slope(0.70)
    sign_flip = slope_lo < 0.0 < slope_hi
    elapsed = time.perf_counter() - t0
    ok = err9 <= 1e-9 and err_tw <= 1e-6 and sign_flip and elapsed < 5.0
    _line(
        capsys,
        ok,
        "acceptance 1: limit-map roots (max err "
        f"{err9:.2e}, twistless err {err_tw:.2e}, slope flip "
        f"{slope_lo:+.2f}/{slope_hi:+.2f}, {elapsed:.1f}s)",
    )
    assert err9 <= 1e-9
    assert err_tw <= 1e-6
    assert sign_flip
    assert elapsed < 5.0


def test_acceptance_2_conservativity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    families = []
    for lam in (0.5, -0.5):
        for beta in ((), (1.0,)):
            families.append(
                build_family(
                    LocalMapParams(lam, beta), HenonLikeRecipe()
                )
            )
        families.append(
            build_family(LocalMapParams(lam), ShearSandwichRecipe())
        )
    worst_det1 = 0.0
    worst_detk = 0.0
    worst_closed = 0.0
    for family in families:
        for _ in range(20):
            p = (rng.uniform(-0.1, 0.1), family.y_minus + rng.uniform(-0.1, 0.1))
            d1 = np.linalg.det(jacobian(family.global_stages, p))
            worst_det1 = max(worst_det1, abs(d1 + 1.0))
        for k in (8, 12, 16):
            xs = family.x_plus + rng.uniform(-0.05, 0.05, 5)
            yks = family.y_minus + rng.uniform(-0.05, 0.05, 5)
            for x0, yk in zip(xs, yks):
                y0 = solve_y0(family.local, k, x0, yk)
                dk = np.linalg.det(jacobian_of(
                    lambda z: eval_map(
                        family.global_stages,
                        t0_pow_closed(family.local, z, k),
                    ),
                    (x0, y0),
                ))
                worst_detk = max(worst_detk, abs(dk + 1.0))
        for k in (4, 9, 16):
            lamk = abs(family.lam) ** k
            x0 = rng.uniform(0.9, 1.1, 100)
            y0 = rng.uniform(0.9, 1.1, 100) * lamk
            xc, yc = t0_pow_closed(family.local, (x0, y0), k)
            expr = family.local.map_expr()
            for i in range(100):
                xi, yi = iterate(expr, (x0[i], y0[i]), k)
                rel = max(
                    abs(xi - xc[i]) / max(1.0, abs(xc[i])),
                    abs(yi - yc[i]) / max(1.0, abs(yc[i])),
                )
                worst_closed = max(worst_closed, rel)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_det1 <= 1e-10
        and worst_detk <= 1e-10
        and worst_closed <= 1e-12
        and elapsed < 10.0
    )
    _line(
        capsys,
        ok,
        "acceptance 2: conservativity (|det T1 + 1| "
        f"{worst_det1:.1e}, |det Tk + 1| {worst_detk:.1e}, closed vs "
        f"iterated {worst_closed:.1e}, {elapsed:.1f}s)",
    )
    assert worst_det1 <= 1e-10
    assert worst_detk <= 1e-10
    assert worst_closed <= 1e-12
    assert elapsed < 10.0


def test_acceptance_3_cross_form(capsys):
    t0 = time.perf_counter()
    worst_sup = 0.0
    worst_fit = 0.0
    growth_ok = True
    for lam in (0.5, -0.5):
        for beta1 in (0.0, 1.0):
            local = LocalMapParams(lam, (beta1,) if beta1 else ())
            family = build_family(local, HenonLikeRecipe())
            report = validate_cross_form(family, range(6, 17))
            worst_sup = max(worst_sup, max(report.sup_normalized))
            if report.sup_normalized[-1] > max(
                report.sup_normalized[0], 1e-9
            ):
                growth_ok = False
            if beta1 == 0.0:
                worst_fit = max(worst_fit, abs(report.beta1_fitted))
            else:
                worst_fit = max(
                    worst_fit, abs(report.beta1_fitted - beta1)
                )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sup <= 2.0
        and growth_ok
        and worst_fit <= 0.05
        and elapsed < 30.0
    )
    _line(
        capsys,
        ok,
        "acceptance 3: cross-form residual bounded (sup "
        f"{worst_sup:.3f}, fit err {worst_fit:.4f}, {elapsed:.1f}s)",
    )
    assert worst_sup <= 2.0
    assert growth_ok
    assert worst_fit <= 0.05
    assert elapsed < 30.0


def test_acceptance_4_cascade(capsys):
    t0 = time.perf_counter()
    ks = range(8, 15)
    c_max = 0.0
    trend_ok = True
    ratio_err = 0.0
    disjoint = True
    monotone = True
    flags_ok = True
    for lam in (0.5, -0.5):
        family = _rich_tuned(lam)
        result = run_cascade(family, ks)
        devs = []
        for row in result.rows:
            assert row.error is None
            lam2k = lam ** (2 * row.k)
            dev = max(
                abs(row.mu_plus - mu_from_m(family, row.k, 0.0)),
                abs(row.mu_minus - mu_from_m(family, row.k, 1.0)),
            ) / abs(lam2k)
            devs.append(dev)
            c_max = max(c_max, dev / (row.k * abs(lam) ** row.k))
            monotone = monotone and row.monotone
            tags = tuple(f.tag for f in row.flags)
            flags_ok = flags_ok and tags == (
                "resonance-1:4",
                "twistless",
                "resonance-1:3",
            )
        trend_ok = trend_ok and all(
            b <= a * 1.01 for a, b in zip(devs, devs[1:])
        )
        widths = [abs(r.mu_minus - r.mu_plus) for r in result.rows]
        for i in (-2, -1):
            ratio = widths[i] / widths[i - 1]
            ratio_err = max(ratio_err, abs(ratio / lam**2 - 1.0))
        spans = [r.interval for r in result.rows]
        disjoint = disjoint and all(
            spans[i][1] < spans[j][0] or spans[j][1] < spans[i][0]
            for i in range(len(spans))
            for j in range(i + 1, len(spans))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        c_max <= 0.2
        and trend_ok
        and ratio_err <= 0.05
        and disjoint
        and monotone
        and flags_ok
        and elapsed < 120.0
    )
    _line(
        capsys,
        ok,
        "acceptance 4: cascade intervals (C = "
        f"{c_max:.3f}, width-ratio err {ratio_err:.4f}, disjoint "
        f"{disjoint}, monotone {monotone}, {elapsed:.1f}s)",
    )
    assert c_max <= 0.2
    assert trend_ok
    assert ratio_err <= 0.05
    assert disjoint
    assert monotone
    assert flags_ok
    assert elapsed < 120.0


def test_acceptance_5_rescaling(capsys):
    t0 = time.perf_counter()
    family = build_family(
        LocalMapParams(0.5),
        HenonLikeRecipe(p=(0, 1, 0, 0.4), q=(0, 0, 1, 1, 0.5)),
    )
    report = convergence_report(family, range(8, 15), m=0.5)
    norm_max = max(report.normalized)
    norm_growth = report.normalized[-1] <= report.normalized[0]
    fam3 = build_family(
        LocalMapParams(0.5), HenonLikeRecipe(q=(0, 0, 1, 1))
    )
    fit_err = 0.0
    for k in (8, 11, 14):
        fit = fit_cubic_coefficient(build_frame(fam3, k).at_m(0.5))
        target = fam3.taylor.f03 / fam3.taylor.d**2 * 0.5**k
        fit_err = max(fit_err, abs(fit / target - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        report.bounded
        and norm_max <= 10.0
        and norm_growth
        and fit_err <= 0.10
        and elapsed < 120.0
    )
    _line(
        capsys,
        ok,
        "acceptance 5: rescaling residual (normalized max "
        f"{norm_max:.2f}, cubic fit err {fit_err:.2e}, {elapsed:.1f}s)",
    )
    assert report.bounded
    assert norm_max <= 10.0
    assert norm_growth
    assert fit_err <= 0.10
    assert elapsed < 120.0


def test_acceptance_6_atlas(capsys):
    t0 = time.perf_counter()
    template = build_family(LocalMapParams(0.5), HenonLikeRecipe())
    atlas = run_strip_atlas(
        template, range(8, 13), eps=0.05, n_alpha=41
    )
    slope_err = 0.0
    for k in atlas.k_values:
        for kind in ("plus", "minus"):
            slope = boundary_slope(atlas, k, kind)
            target = -(0.5**k)
            slope_err = max(slope_err, abs(slope / target - 1.0))
    alpha_min = 10.0 * 0.5**8
    outer = pairwise_intersections(atlas, alpha_min)
    inner = pairwise_intersections(atlas, 0.0)
    disjoint_outer = all(not hit for _, _, hit in outer)
    intersect_inner = all(hit for _, _, hit in inner)
    crossings = all(hit for _, hit in atlas.axis_crossings)
    clean = len(atlas.failures) == 0
    elapsed = time.perf_counter() - t0
    ok = (
        slope_err <= 0.05
        and disjoint_outer
        and intersect_inner
        and crossings
        and clean
        and elapsed < 300.0
    )
    _line(
        capsys,
        ok,
        "acceptance 6: strip atlas (slope err "
        f"{slope_err:.2e}, disjoint beyond 10 lam^8 {disjoint_outer}, "
        f"intersect near 0 {intersect_inner}, mu=0 crossings "
        f"{crossings}, {elapsed:.1f}s)",
    )
    assert slope_err <= 0.05
    assert disjoint_outer
    assert intersect_inner
    assert crossings
    assert clean
    assert elapsed < 300.0


def test_acceptance_7_global_resonance(capsys):
    t0 = time.perf_counter()
    ks = range(8, 15)
    cert = certify_global_resonance(_s0_tuned(-0.4), ks)
    all_found = all(r.failure is None for r in cert.records)
    c_max = max(
        r.limit_error / (r.k * 0.5**r.k) for r in cert.records
    )
    withheld_ok = True
    flag_tags = []
    for s0, tag in (
        (-0.5, "limit-resonance-1:4"),
        (-0.625, "limit-twistless"),
        (-0.75, "limit-resonance-1:3"),
    ):
        flagged = certify_global_resonance(_s0_tuned(s0), ks)
        flag_tags.append(flagged.flags)
        withheld_ok = withheld_ok and (
            flagged.verdict == "withheld" and tag in flagged.flags
        )
    elapsed = time.perf_counter() - t0
    ok = (
        cert.verdict == "certified"
        and all_found
        and c_max <= 0.5
        and withheld_ok
        and elapsed < 60.0
    )
    _line(
        capsys,
        ok,
        "acceptance 7: global resonance (verdict "
        f"{cert.verdict}, C = {c_max:.3f}, degenerate values withheld "
        f"{withheld_ok}, {elapsed:.1f}s)",
    )
    assert cert.verdict == "certified"
    assert all_found
    assert c_max <= 0.5
    assert withheld_ok
    assert elapsed < 60.0


def test_acceptance_8_six_case_table(capsys):
    t0 = time.perf_counter()
    ks = range(8, 15)
    cases = [
        (
            build_family(
                LocalMapParams(0.5), HenonLikeRecipe(p=(0, -1), q=(0, 0, -1))
            ),
            "empty",
            lambda k: 0,
        ),
        (
            build_family(
                LocalMapParams(0.5), HenonLikeRecipe(p=(0, -1), q=(0, 0, 1))
            ),
            "regular",
            lambda k: 2,
        ),
        (
            build_family(
                LocalMapParams(-0.5), HenonLikeRecipe(p=(0, -1), q=(0, 0, 1))
            ),
            "parity-alternating",
            lambda k: 2 if k % 2 == 0 else 0,
        ),
        (
            tune_to(
                build_family(LocalMapParams(0.5), HenonLikeRecipe()),
                alpha_target=-0.2,
            ),
            "alpha-negative-horseshoes",
            lambda k: 2,
        ),
        (
            tune_to(
                build_family(LocalMapParams(0.5), HenonLikeRecipe()),
                alpha_target=0.2,
            ),
            "alpha-positive-trivial",
            lambda k: 0,
        ),
    ]
    mistakes = 0
    for family, tag, expect in cases:
        result = classify_horseshoe(family, ks)
        if result.tag != tag or not result.agrees:
            mistakes += 1
            continue
        for k in ks:
            if result.evidence[k] != expect(k):
                mistakes += 1
    elapsed = time.perf_counter() - t0
    ok = mistakes == 0 and elapsed < 120.0
    _line(
        capsys,
        ok,
        "acceptance 8: six-case table "
        f"({mistakes} misclassifications over {len(cases)} families x "
        f"k=8..14, {elapsed:.1f}s)",
    )
    assert mistakes == 0
    assert elapsed < 120.0


def test_acceptance_9_horseshoe_bound(capsys):
    t0 = time.perf_counter()
    good = all(horseshoe_certificate(m) for m in (9.5, 10.0, 12.0))
    bad = not any(horseshoe_certificate(m) for m in (-1.0, 0.5, 2.0))
    elapsed = time.perf_counter() - t0
    ok = good and bad and elapsed < 10.0
    _line(
        capsys,
        ok,
        "acceptance 9: horseshoe bound (certified above, refused "
        f"below, {elapsed:.1f}s)",
    )
    assert good
    assert bad
    assert elapsed < 10.0
