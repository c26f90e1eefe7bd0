"""Every public callable of ``homatlas``, given NaN, inf, or a
non-integer or a whole float for a whole number, in any one of its
numeric arguments, returns a result or raises a ``HomatlasError``: never
another exception, and never a warning."""

import math
import warnings

import pytest

import homatlas
from homatlas import (HenonLikeRecipe, HShear, LocalMapParams, Lift, MapExpr,
                      Moser, ShearSandwichRecipe, Swap, Translate, VShear)
from homatlas.exceptions import HomatlasError, PrecisionFloorError

_FAMILY = homatlas.build_family(LocalMapParams(-0.5),
                                HenonLikeRecipe(p=(0.0, 1.0, 0.3)))
_S0_FAMILY = homatlas.build_family(LocalMapParams(0.5),
                                   HenonLikeRecipe(p=(0.0, 1.0, 0.3162)))
_LOCAL = LocalMapParams(0.5, (0.3,))
_EXPR = MapExpr((Swap(), HShear((0.4, 0.0, -1.0))))
_FRAME = homatlas.build_frame(_FAMILY, 8)
_MAP = _FRAME.at_mu(0.0)
_ATLAS = homatlas.run_strip_atlas(_FAMILY, (8, 9), n_alpha=3)

# name -> (call, its numeric arguments): call(*numbers) calls the public
# name with numbers in its numeric argument slots, tuples of numbers for
# tuple arguments; ints are whole-number arguments
CASES = {
    "MapExpr": (lambda: MapExpr((Swap(),)), ()),
    "VShear": (VShear, ((0.1, 1.0),)),
    "HShear": (HShear, ((0.1, 1.0),)),
    "Swap": (Swap, ()),
    "Translate": (Translate, (0.1, 0.2)),
    "Moser": (Moser, (0.5, (0.3,))),
    "Lift": (Lift, ((0.0, 1.0, 0.1),)),
    "eval_map": (lambda x, y: homatlas.eval_map(_EXPR, (x, y)), (0.1, 0.2)),
    "jacobian": (lambda x, y: homatlas.jacobian(_EXPR, (x, y)), (0.1, 0.2)),
    "iterate": (lambda x, y, n: homatlas.iterate(_EXPR, (x, y), n),
                (0.1, 0.2, 3)),
    "LocalMapParams": (LocalMapParams, (0.5, (0.3,))),
    "HenonLikeRecipe": (HenonLikeRecipe,
                        ((0.0, 1.0, 0.3), (0.0, 0.0, 1.0), 1.0, 1.0)),
    "ShearSandwichRecipe": (ShearSandwichRecipe,
                            (0.3, 0.1, 0.5, 1.0, 0.0, 0.2, 0.0, 1.0, 1.0)),
    "extract_taylor": (
        lambda xp, ym, mu: homatlas.extract_taylor(
            _FAMILY.global_stages, xp, ym, mu),
        (1.0, 1.0, 0.0)),
    "alpha_invariant": (lambda: homatlas.alpha_invariant(_FAMILY), ()),
    "s0_invariant": (lambda: homatlas.s0_invariant(_FAMILY), ()),
    "build_family": (
        lambda mu: homatlas.build_family(_FAMILY.local, _FAMILY.recipe, mu),
        (0.01,)),
    "tune_to": (lambda a, s: homatlas.tune_to(_FAMILY, a, s), (-0.02, -0.1)),
    "classify_from_trace": (homatlas.classify_from_trace, (0.5, 1.0)),
    "fixed_points": (homatlas.fixed_points, (0.5,)),
    "two_periodic_orbit": (homatlas.two_periodic_orbit, (0.5,)),
    "birkhoff_b1": (homatlas.birkhoff_b1, (0.5,)),
    "horseshoe_certificate": (homatlas.horseshoe_certificate, (0.5,)),
    "bifurcation_values": (homatlas.bifurcation_values, ()),
    "ReturnMap": (lambda k: homatlas.ReturnMap(_FAMILY, k), (8,)),
    "t0_pow_closed": (
        lambda x, y, k, lamk: homatlas.t0_pow_closed(_LOCAL, (x, y), k, lamk),
        (1.0, 1.0, 8, 0.5**8)),
    "t0_pow_jacobian": (
        lambda x, y, k: homatlas.t0_pow_jacobian(_LOCAL, (x, y), k),
        (1.0, 1.0, 8)),
    "solve_y0": (
        lambda k, x0, yk, lamk: homatlas.solve_y0(_LOCAL, k, x0, yk, lamk),
        (8, 1.0, 1.0, 0.5**8)),
    "build_return_map": (lambda k: homatlas.build_return_map(_FAMILY, k),
                         (8,)),
    "in_sigma0": (lambda k, x, y: homatlas.in_sigma0(_FAMILY, k, x, y),
                  (8, 1.0, 1.0)),
    "validate_cross_form": (
        lambda ks: homatlas.validate_cross_form(_FAMILY, ks), ((8, 9),)),
    "classify_horseshoe": (
        lambda ks: homatlas.classify_horseshoe(_FAMILY, ks), ((8, 9),)),
    "build_frame": (lambda k: homatlas.build_frame(_FAMILY, k), (8,)),
    "build_chain": (lambda k: homatlas.build_chain(_FAMILY, k), (8,)),
    "to_rescaled": (lambda x, y: homatlas.to_rescaled(_MAP, (x, y)),
                    (1.0, 1.0)),
    "from_rescaled": (lambda x, y: homatlas.from_rescaled(_MAP, (x, y)),
                      (0.1, 0.2)),
    "m_from_mu": (lambda k, mu: homatlas.m_from_mu(_FAMILY, k, mu),
                  (8, 0.0)),
    "mu_from_m": (lambda k, m: homatlas.mu_from_m(_FAMILY, k, m), (8, 0.4)),
    "rescaled_window": (lambda: homatlas.rescaled_window(_MAP), ()),
    "eval_rescaled": (lambda x, y: homatlas.eval_rescaled(_MAP, (x, y)),
                      (0.1, 0.2)),
    "rescaled_jacobian": (
        lambda x, y: homatlas.rescaled_jacobian(_MAP, (x, y)), (0.1, 0.2)),
    "fit_cubic_coefficient": (
        lambda: homatlas.fit_cubic_coefficient(_MAP), ()),
    "convergence_report": (
        lambda ks, m, n: homatlas.convergence_report(_FAMILY, ks, m, n),
        ((8, 9), 0.5, 3)),
    "find_two_periodic": (
        lambda m, seed: homatlas.find_two_periodic(_FRAME, m, seed),
        (0.4, (-0.6, 0.6))),
    "locate_bifurcation": (
        lambda: homatlas.locate_bifurcation(_FRAME, "plus"), ()),
    "two_orbit_trace": (lambda m: homatlas.two_orbit_trace(_FRAME, m),
                        ((0.3, 0.4),)),
    "run_cascade": (lambda ks: homatlas.run_cascade(_FAMILY, ks), ((8, 9),)),
    "run_strip_atlas": (
        lambda ks, eps, n: homatlas.run_strip_atlas(_FAMILY, ks, eps, n),
        ((8, 9), 0.05, 3)),
    "pairwise_intersections": (
        lambda a: homatlas.pairwise_intersections(_ATLAS, a), (0.0,)),
    "boundary_slope": (
        lambda k, a: homatlas.boundary_slope(_ATLAS, k, "plus", a),
        (8, 0.0)),
    "certify_global_resonance": (
        lambda ks: homatlas.certify_global_resonance(_S0_FAMILY, ks),
        ((8, 9),)),
}
# plain records of results, which hold what they are given
RECORDS = {
    "TaylorData", "FamilyHandle", "StabilityClass", "CrossFormReport",
    "HorseshoeClass", "RescaleFrame", "RescaledReturnMap",
    "ConvergenceReport", "OrbitRecord", "ResonanceFlag", "CascadeRow",
    "CascadeResult", "StripBand", "StripMap2D", "CertRecord",
    "ResonanceCertificate", "RunConfig",
}
# takes strings; tests/test_cli_contract.py covers its hostile values
STRINGS = {"load_config"}


def _public_callables():
    return {
        name for name, value in vars(homatlas).items()
        if not name.startswith("_") and callable(value)
        and not (isinstance(value, type) and issubclass(value, Exception))
    }


def test_every_public_callable_has_a_case():
    assert set(CASES) | RECORDS | STRINGS == _public_callables()


def _slots(args, path=()):
    """(path, number) of every number in args, tuples entered."""
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            yield from _slots(arg, path + (i,))
        else:
            yield path + (i,), arg


def _put(args, path, value):
    i, rest = path[0], path[1:]
    new = value if not rest else _put(args[i], rest, value)
    return args[:i] + (new,) + args[i + 1:]


def _hostile_calls():
    for name, (call, args) in sorted(CASES.items()):
        if not args:
            yield pytest.param(call, args, id=f"{name}")
        for path, number in _slots(args):
            bad = [math.nan, math.inf]
            if isinstance(number, int):
                bad += [number + 0.5, float(number)]
            for value in bad:
                where = ".".join(map(str, path))
                yield pytest.param(call, _put(args, path, value),
                                   id=f"{name}[{where}]={value}")


@pytest.mark.parametrize("call, args", _hostile_calls())
def test_hostile_number_gives_a_result_or_a_homatlas_error(call, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except HomatlasError:
            pass


@pytest.mark.parametrize("call", [
    lambda: homatlas.m_from_mu(_S0_FAMILY, 2000, 0.0),
    lambda: homatlas.mu_from_m(_S0_FAMILY, 2000, 0.4),
    lambda: homatlas.in_sigma0(_S0_FAMILY, 2000, 1.0, 1.0),
], ids=["m_from_mu", "mu_from_m", "in_sigma0"])
def test_underflowing_lam_2k_is_a_precision_floor_error(call):
    # 0.5**2000 underflows to 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionFloorError):
            call()
