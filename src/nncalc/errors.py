"""Exception hierarchy shared by all nncalc modules."""


class NncalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NncalcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class LevelRangeError(NncalcError, ValueError):
    """A requested iteration level is not an integer or exceeds the configured cap."""


class ConfigError(NncalcError, ValueError):
    """A configuration object is malformed (unknown keys, bad values)."""


class PullbackDivisionError(NncalcError, ZeroDivisionError):
    """Division by a value whose pullback to the base arithmetic is zero.

    The user-visible divisor may be far from zero; ``pullback`` records the
    offending base-level value for debugging across levels.
    """

    def __init__(self, message: str, pullback: float):
        super().__init__(message)
        self.pullback = pullback


class QuadratureError(NncalcError, ArithmeticError):
    """Adaptive quadrature failed to converge within the subdivision cap.

    ``estimate`` carries the best value achieved before giving up.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class ApplicabilityError(NncalcError, ValueError):
    """A bound was requested outside its regime of validity.

    ``min_trials`` names the smallest trial count for which the bound applies.
    """

    def __init__(self, message: str, min_trials: int):
        super().__init__(message)
        self.min_trials = min_trials
