"""Numerics for quadratic homoclinic tangencies of planar area-preserving maps."""

from .exceptions import (
    HomatlasError,
    EscapeError,
    TangencyError,
    OrientationError,
    ExtractionError,
    TargetUnreachableError,
    StripWindowError,
    CrossFormSolveError,
    NewtonDivergedError,
    CollapsedOrbitError,
    BracketError,
    ResonantParameterError,
    ResonanceWindowError,
    PrecisionFloorError,
    NonFiniteResultError,
    DomainError,
    ConfigError,
)
from .mapcore import (
    MapExpr,
    VShear,
    HShear,
    Swap,
    Translate,
    Moser,
    Lift,
    eval_map,
    jacobian,
    iterate,
)
from .family import (
    LocalMapParams,
    TaylorData,
    HenonLikeRecipe,
    ShearSandwichRecipe,
    FamilyHandle,
    extract_taylor,
    alpha_invariant,
    s0_invariant,
    build_family,
    tune_to,
)
from .henon import (
    StabilityClass,
    classify_from_trace,
    fixed_points,
    two_periodic_orbit,
    birkhoff_b1,
    horseshoe_certificate,
    bifurcation_values,
)
from .returnmap import (
    ReturnMap,
    CrossFormReport,
    HorseshoeClass,
    t0_pow_closed,
    t0_pow_jacobian,
    solve_y0,
    build_return_map,
    in_sigma0,
    validate_cross_form,
    classify_horseshoe,
)
from .rescale import (
    RescaleFrame,
    RescaledReturnMap,
    ConvergenceReport,
    build_frame,
    build_chain,
    to_rescaled,
    from_rescaled,
    m_from_mu,
    mu_from_m,
    rescaled_window,
    eval_rescaled,
    rescaled_jacobian,
    fit_cubic_coefficient,
    convergence_report,
)
from .orbits import (
    OrbitRecord,
    find_two_periodic,
    locate_bifurcation,
    two_orbit_trace,
)
from .atlas import (
    ResonanceFlag,
    CascadeRow,
    CascadeResult,
    StripBand,
    StripMap2D,
    CertRecord,
    ResonanceCertificate,
    run_cascade,
    run_strip_atlas,
    pairwise_intersections,
    boundary_slope,
    certify_global_resonance,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
