"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`ContrisError` so that
callers can distinguish model/configuration problems from genuine bugs.
"""


class ContrisError(Exception):
    """Base class for all library errors."""


class DomainError(ContrisError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateGeometry(ContrisError):
    """A layout or distance collapses to a physically meaningless value."""


class QuadratureFailure(ContrisError):
    """Numerical integration could not reach the requested tolerance."""

    def __init__(self, message: str, estimate: float = float("nan"),
                 error: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class CovarianceRepairFailure(ContrisError):
    """A correlation matrix is too indefinite to be repaired by clipping."""


class ConfigError(ContrisError):
    """An experiment configuration is missing or inconsistent."""
