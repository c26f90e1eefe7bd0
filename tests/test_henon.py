import functools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import homatlas
from homatlas.exceptions import ResonantParameterError
from homatlas.henon import (
    bifurcation_values,
    birkhoff_b1,
    classify_from_trace,
    fixed_points,
    horseshoe_certificate,
    map_expr,
    rotation_number_slope,
    step,
    two_periodic_orbit,
)
from homatlas.mapcore import (
    Jet,
    _border_residual,
    _lane_newton,
    _limit_seed,
    eval_map,
    jacobian,
)


def test_step_matches_stage_composition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.uniform(-1, 2)
        p = tuple(rng.uniform(-2, 2, size=2))
        assert eval_map(map_expr(M), p) == step(M, p)


def test_determinants():
    rng = np.random.default_rng(4)
    for _ in range(20):
        M = rng.uniform(-1, 2)
        p = tuple(rng.uniform(-2, 2, size=2))
        j = jacobian(map_expr(M), p)
        assert abs(np.linalg.det(j) + 1.0) < 1e-13
        q = eval_map(map_expr(M), p)
        j2 = jacobian(map_expr(M), q) @ j
        assert abs(np.linalg.det(j2) - 1.0) < 1e-12


def test_fixed_points_cases():
    assert fixed_points(-1.0) == []
    [(p, mults)] = fixed_points(0.0)
    assert p == (0.0, 0.0)
    assert sorted(mults) == [-1.0, 1.0]
    pts = fixed_points(0.25)
    assert [p for p, _ in pts] == [(-0.5, -0.5), (0.5, 0.5)]
    for p, (nu1, nu2) in pts:
        assert abs(nu1 * nu2 + 1.0) < 1e-12
        assert max(abs(nu1), abs(nu2)) > 1.0  # always a saddle
        img = step(0.25, p)
        assert abs(img[0] - p[0]) < 1e-12 and abs(img[1] - p[1]) < 1e-12


def test_two_periodic_orbit_quarter():
    p1, p2, trace, stab = two_periodic_orbit(0.25)
    assert p1 == (-0.5, 0.5)
    assert p2 == (0.5, -0.5)
    assert abs(trace - 1.0) < 1e-12
    assert stab.tag == "elliptic-generic"
    assert abs(stab.phase - math.pi / 3) < 1e-12
    # the two points exchange under the map and are fixed by its square
    assert np.allclose(step(0.25, p1), p2, atol=1e-12)
    assert np.allclose(step(0.25, p2), p1, atol=1e-12)


def test_two_periodic_orbit_resonances_and_doubling():
    _, _, trace, stab = two_periodic_orbit(0.5)
    assert abs(trace) < 1e-12
    assert stab.tag == "resonance-1:4"
    _, _, trace, stab = two_periodic_orbit(0.75)
    assert abs(trace + 1.0) < 1e-12
    assert stab.tag == "resonance-1:3"
    _, _, trace, stab = two_periodic_orbit(1.0)
    assert abs(trace + 2.0) < 1e-12
    assert stab.tag == "parabolic-minus"
    _, _, trace, stab = two_periodic_orbit(2.0)
    assert trace < -2.0
    assert stab.tag == "saddle"
    with pytest.raises(ValueError):
        two_periodic_orbit(0.0)


def test_classify_from_trace_reflecting_case():
    assert classify_from_trace(0.0, det=-1.0).tag == "parabolic-plus"
    assert classify_from_trace(1.5, det=-1.0).tag == "saddle"
    assert classify_from_trace(5.0, det=1.0).tag == "saddle"
    assert classify_from_trace(-0.5, det=1.0).tag == "twistless"


def test_phase_strictly_increasing_in_m():
    phases = []
    for M in np.linspace(0.05, 0.95, 19):
        stab = two_periodic_orbit(float(M))[3]
        phases.append(stab.phase)
    assert all(b > a for a, b in zip(phases, phases[1:]))


def test_birkhoff_b1_frozen_values():
    assert abs(birkhoff_b1(0.25) + 4.0) < 1e-9
    assert abs(birkhoff_b1(0.625)) < 1e-9


def test_birkhoff_b1_sign_change_across_twistless():
    assert birkhoff_b1(0.6) < 0.0
    assert birkhoff_b1(0.65) > 0.0


def test_birkhoff_b1_rejects_resonances():
    with pytest.raises(ResonantParameterError):
        birkhoff_b1(0.5)
    with pytest.raises(ResonantParameterError):
        birkhoff_b1(0.75)
    with pytest.raises(ValueError):
        birkhoff_b1(1.2)


def _mp_b1_sqrt_m(M, dps=50):
    """birkhoff_b1(M) * sqrt(M) from the same degree-3 normal form, run on
    jets with mpmath coefficients at dps digits."""
    with mp.workdps(dps):
        M = mp.mpf(M)
        s = mp.sqrt(M)
        lam = mp.mpc(1 - 2 * M, 2 * mp.sqrt(M * (1 - M)))
        v0, v1 = mp.mpc(2 * s), 1 - lam
        det_t = v0.real * (-v1.imag) + v0.imag * v1.real
        if det_t < 0:
            v0, v1, det_t = 1j * v0, 1j * v1, -det_t
        v0, v1 = v0 / mp.sqrt(det_t), v1 / mp.sqrt(det_t)
        dd = v0 * mp.conj(v1) - mp.conj(v0) * v1
        l0, l1 = mp.conj(v1) / dd, -mp.conj(v0) / dd
        z, zbar = Jet.variables(0.0, 0.0, 3)
        p = (
            -s + (v0 * z + mp.conj(v0) * zbar),
            s + (v1 * z + mp.conj(v1) * zbar),
        )
        x2, y2 = step(M, step(M, p))
        zn = l0 * (x2 + s) + l1 * (y2 - s)
        a20, a11, a02, a21 = (
            zn.coeff(*e) for e in ((2, 0), (1, 1), (0, 2), (2, 1))
        )
        lam2 = lam * lam
        c1 = (
            a21
            + 2 * a20 * a11 / (1 - lam)
            + abs(a11) ** 2 / (1 - mp.conj(lam))
            + a11 * a20 / (lam2 - lam)
            + 2 * abs(a02) ** 2 / (lam2 - mp.conj(lam))
        )
        return (mp.conj(lam) * c1).imag * s


def test_mpmath_normal_form_is_the_closed_form():
    # the 50-digit normal form agrees with (8M - 5) / ((1 - M)(3 - 4M)),
    # which is -5/3 at M -> 0, -2 at 1/4 and 0 at the twistless 5/8
    with mp.workdps(50):
        for M in ("1e-14", "0.1", "0.25", "0.3", "0.6", "0.625", "0.9"):
            M = mp.mpf(M)
            closed = (8 * M - 5) / ((1 - M) * (3 - 4 * M))
            assert abs(_mp_b1_sqrt_m(M) - closed) < mp.mpf("1e-40")


def test_birkhoff_b1_against_mpmath_down_to_tiny_m():
    # sin(phi) = 2 sqrt(M (1 - M)) and 1 - lam = 2M - i sin(phi) in closed
    # form leave no cancellation as M -> 0, so the error is a few ulps of
    # b1 sqrt(M) at every M, which grows like 1/(1 - M) towards M = 1
    ms = np.concatenate(
        [
            np.logspace(-14, -2, 25),
            np.linspace(0.01, 0.99, 99),
            np.logspace(np.log10(3e-17), np.log10(3e-16), 8),
        ]
    )
    for M in ms.tolist():
        if abs(M - 0.5) < 1e-9 or abs(M - 0.75) < 1e-9:
            continue
        got = birkhoff_b1(M) * math.sqrt(M)
        want = _mp_b1_sqrt_m(M)
        tol = 1e-14 * max(1.0, abs(want))
        assert abs(got - want) <= tol, M


def test_rotation_slope_oracle_agrees():
    # independent measurement of the twist from rotation number vs radius
    for M in (0.25, 0.6, 0.65):
        b1 = birkhoff_b1(M)
        slope = rotation_number_slope(M)
        assert slope * b1 > 0.0
        assert abs(slope - b1) < 0.15 * abs(b1)
    assert abs(rotation_number_slope(0.625)) < 0.05


# (rounds, trace, exact M) of each limit-map root of the bordered locator
_LIMIT_ROOTS = {
    "fixed-point-birth": (1, 0.0, 0.0),
    "period-doubling": (2, -2.0, 1.0),
    "resonance-1:4": (2, 0.0, 0.5),
    "resonance-1:3": (2, -1.0, 0.75),
}


def test_bifurcation_values_table():
    table = bifurcation_values()
    for name, (_, _, exact) in _LIMIT_ROOTS.items():
        assert abs(table[name] - exact) <= 1e-15
    assert abs(table["twistless"] - 0.625) <= 1e-13


def test_bifurcation_values_returns_a_fresh_table():
    first = bifurcation_values()
    want = dict(first)
    first["twistless"] = 0.0
    first["extra"] = 1.0
    assert bifurcation_values() == want


def test_limit_locator_from_perturbed_seeds():
    # the table is a root of the bordered residual, not its seed echoed
    rng = np.random.default_rng(5)
    for rounds, trace, exact in _LIMIT_ROOTS.values():
        residual = functools.partial(
            _border_residual, lambda m: functools.partial(step, m), rounds,
            trace,
        )
        for _ in range(5):
            seed = np.asarray(_limit_seed(rounds, trace))
            seed = seed + rng.uniform(-1e-2, 1e-2, size=3)
            ((z, _),) = _lane_newton(lambda z, lanes: residual(z),
                                     seed[np.newaxis], 1e-10)
            assert abs(z[2] - exact) <= 1e-12


def test_two_orbit_trace_is_two_minus_four_m():
    for M in np.linspace(0.01, 3.0, 300):
        trace = two_periodic_orbit(float(M))[2]
        assert abs(trace - (2.0 - 4.0 * M)) <= 1e-14


def test_horseshoe_certificate_cases():
    for M in (9.5, 10.0, 12.0):
        assert horseshoe_certificate(M) is True
    for M in (-1.0, 0.5, 2.0):
        assert horseshoe_certificate(M) is False


def test_horseshoe_certificate_monotone_in_sampled_range():
    for M in np.arange(9.5, 14.0, 0.5):
        if horseshoe_certificate(float(M)):
            assert horseshoe_certificate(float(M) + 1.0)


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(homatlas.__file__))
    code = "import sys, homatlas; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    assert proc.stdout.strip() == "False"
