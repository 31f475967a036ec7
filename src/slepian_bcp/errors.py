"""Exception types shared across the package."""


class SlepianError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SlepianError, ValueError):
    """An argument lies outside the domain a function is defined on."""


class NotPositiveDefiniteError(SlepianError):
    """A matrix expected to be positive definite is not.

    For covariance matrices built from process time points this usually
    signals duplicated or out-of-range times.
    """


class QuadratureNonConvergenceError(SlepianError):
    """Quadrature ended its refinement ladder before reaching tolerance.

    Carries the last value obtained and the achieved error estimate so the
    caller can decide whether the result is still usable.
    """

    def __init__(self, message: str, value: float, error_bound: float,
                 evaluations: int):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound
        self.evaluations = evaluations
