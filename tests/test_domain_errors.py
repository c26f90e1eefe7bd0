"""Every out-of-domain argument of a public function raises
``DomainError``, which is both a ``HomatlasError`` and a ``ValueError``."""

import math

import pytest

from homatlas import atlas, henon, mapcore, orbits, rescale, returnmap
from homatlas.exceptions import DomainError, HomatlasError
from homatlas.family import (HenonLikeRecipe, LocalMapParams,
                             ShearSandwichRecipe, build_family)


def _frame(lam):
    return rescale.build_frame(_family(lam), 8)


def _two_lanes():
    return rescale.stack_frames([_frame(0.5), _frame(0.5)])


def _family(lam=0.5, p=(0.0, 1.0), q=(0.0, 0.0, 1.0)):
    return build_family(LocalMapParams(lam), HenonLikeRecipe(p=p, q=q))


def _atlas(n):
    """An atlas of k = 8 over n columns."""
    alphas = tuple(0.01 * i for i in range(n))
    band = atlas.StripBand(k=8, mu_plus=alphas, mu_minus=alphas)
    return atlas.StripMap2D(alphas=alphas, k_values=(8,), bands=(band,),
                            intersections=(), axis_crossings=(),
                            failures=())


@pytest.mark.parametrize("call", [
    lambda: LocalMapParams(1.5),
    lambda: henon.two_periodic_orbit(0.0),
    lambda: henon.birkhoff_b1(1.2),
    lambda: henon.rotation_number_slope(1.5),
    lambda: mapcore.iterate(henon.map_expr(0.5), (0.0, 0.0), -1),
    lambda: orbits.locate_bifurcation(_frame(0.5), "flip"),
    lambda: atlas.boundary_slope(_atlas(1), 8, "plus"),
    lambda: rescale.stack_frames([_frame(0.5), _frame(0.55)]),
    lambda: orbits.find_two_periodic(_frame(0.5), 0.4, (0.1, 0.2, 0.3)),
    lambda: orbits.find_two_periodic(_frame(0.5), 0.4, (0.1, (0.2, 0.3))),
    lambda: orbits.two_orbit_trace(_frame(0.5), [[0.3]]),
    lambda: orbits.two_orbit_trace(_frame(0.5), [math.inf]),
    lambda: orbits.locate_bifurcation_lanes(_two_lanes(), ["plus"] * 3),
    lambda: orbits.two_orbit_trace_lanes(_two_lanes(), [0.3, 0.4, 0.5]),
    lambda: rescale.build_frame(_family(-0.5), 10.5),
    lambda: atlas.run_cascade(_family(), [10.5]),
    lambda: atlas.run_cascade(_family(), [math.nan]),
    lambda: atlas.run_strip_atlas(_family(), [10.5], n_alpha=2),
    lambda: atlas.certify_global_resonance(_family(p=(0.0, 1.0, 0.3)),
                                           [10.5]),
    lambda: mapcore.iterate(henon.map_expr(0.5), (0.0, 0.0), 1.5),
    lambda: atlas.boundary_slope(_atlas(2), 9, "plus"),
    lambda: atlas.boundary_slope(_atlas(2), 8, "upper"),
    lambda: rescale.convergence_report(_family(), (8, 9), 0.5, grid_n=0),
    lambda: returnmap.validate_cross_form(_family(), []),
    # d = -1 and f12 = 1024, so d + lam**10 f12 x_plus = 0 at lam 0.5
    lambda: rescale.build_frame(
        _family(p=(0.0, 1.0, 16.0), q=(0.0, 0.0, -1.0)), 10),
    lambda: henon.classify_from_trace(math.nan, 1.0),
    lambda: henon.fixed_points(math.nan),
    lambda: HenonLikeRecipe(p=(0.0, math.nan)),
    lambda: ShearSandwichRecipe(d=math.nan),
    lambda: LocalMapParams(0.5, (math.nan,)),
    lambda: returnmap.classify_horseshoe(_family(), []),
    lambda: rescale.convergence_report(_family(p=(0.0, 1.0, 0.3)),
                                       [8, 8, 8], 0.5),
    lambda: rescale.m_from_mu(_family(), -2000, 0.0),
    lambda: rescale.mu_from_m(_family(), -2000, 0.4),
    lambda: rescale.stack_frames([]),
    lambda: _two_lanes().take([5]),
    lambda: _two_lanes().take([-1]),
    lambda: atlas.certify_global_resonance(_family(p=(0.0, 1.0, 0.3)), []),
    lambda: rescale.convergence_report(_family(), [], 0.5),
    lambda: rescale.stack_frames([
        _frame(0.5), rescale.build_frame(_family(p=(0.0, 1.0, 0.3)), 8)]),
    lambda: rescale.stack_frames([_frame(0.5), rescale.build_frame(
        build_family(LocalMapParams(0.5), ShearSandwichRecipe()), 8)]),
    lambda: _two_lanes().take([0.5]),
    lambda: _two_lanes().take([1.9]),
    lambda: _two_lanes().take(["1"]),
], ids=["lam", "two_periodic_orbit", "birkhoff_b1", "rotation_number_slope",
        "iterate", "locate_bifurcation", "boundary_slope", "stack_frames",
        "find_two_periodic_seed", "find_two_periodic_ragged_seed",
        "two_orbit_trace_m_shape",
        "two_orbit_trace_m_finite", "locate_bifurcation_lanes_count",
        "two_orbit_trace_lanes_count", "build_frame_half_k",
        "run_cascade_half_k", "run_cascade_nan_k", "run_strip_atlas_half_k",
        "certify_global_resonance_half_k", "iterate_half_count",
        "boundary_slope_missing_k", "boundary_slope_kind",
        "convergence_report_empty_grid", "validate_cross_form_no_k",
        "build_frame_singular_chain", "classify_from_trace_nan",
        "fixed_points_nan", "henon_recipe_nan", "sandwich_recipe_nan",
        "moser_coefficient_nan", "classify_horseshoe_no_k",
        "convergence_report_one_k", "m_from_mu_overflow",
        "mu_from_m_overflow", "stack_frames_none", "take_lane_past_end",
        "take_negative_lane", "certify_global_resonance_no_k",
        "convergence_report_no_k", "stack_frames_polynomial_lengths",
        "stack_frames_stage_types", "take_half_lane", "take_fractional_lane",
        "take_string_lane"])
def test_out_of_domain_argument_is_a_domain_error(call):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, HomatlasError)
    assert isinstance(info.value, ValueError)
