"""Exception hierarchy shared across the package."""


class HomatlasError(Exception):
    """Base class for all package errors."""


class EscapeError(HomatlasError):
    """An orbit left the admissible domain during evaluation.

    Carries the index of the stage (or iterate) at which the escape was
    detected, so callers can report where a composition blew up.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class TangencyError(HomatlasError):
    """The supplied global map does not have a quadratic tangency."""


class OrientationError(HomatlasError):
    """The global map is orientation preserving where it must reverse."""


class ExtractionError(HomatlasError):
    """A Taylor expansion failed its consistency checks."""


class TargetUnreachableError(HomatlasError):
    """A tuning target cannot be met by the recipe's free knobs."""


class StripWindowError(HomatlasError):
    """The requested return-map strip does not fit inside the fixed windows."""


class CrossFormSolveError(HomatlasError):
    """The implicit solve linking entry and exit coordinates did not converge."""


class NewtonDivergedError(HomatlasError):
    """Newton iteration failed to converge to an orbit."""


class CollapsedOrbitError(HomatlasError):
    """A period-2 search converged onto a fixed point."""


class BracketError(HomatlasError):
    """A bifurcation bracket contained no sign change / orbit transition."""


class ResonantParameterError(HomatlasError):
    """Normal-form reduction is blocked by a strong resonance."""


class ResonanceWindowError(HomatlasError):
    """The family invariants are outside the global-resonance window."""


class PrecisionFloorError(HomatlasError):
    """A parameter conversion would lose all significant digits."""


class NonFiniteResultError(HomatlasError):
    """A number that must be finite is NaN or infinity: a result, which
    JSON cannot carry, or a number of a rescaling frame."""


class DomainError(HomatlasError, ValueError):
    """An argument lies outside the domain of a function: a multiplier
    with |lam| outside (0, 1), an M without the orbit asked for, a
    negative iterate count, an unknown locator kind, too few points for a
    fit, or frames of different saddles to stack."""


class ConfigError(HomatlasError):
    """Invalid run configuration."""
