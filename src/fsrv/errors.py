"""Exception types shared across the package."""


class FsrvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FsrvError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class FibOverflowError(FsrvError, OverflowError):
    """A Fibonacci index exceeds the exact-arithmetic table bound."""


class NonConvergenceError(FsrvError, RuntimeError):
    """Adaptive quadrature hit its depth cap or ran out of its evaluation
    budget before reaching tolerance.

    The best available estimate is carried in ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


class OutsideSupportError(FsrvError, ValueError):
    """A conditional quantity was requested where the marginal density
    is below the configured floor."""


class DegenerateSampleError(FsrvError, RuntimeError):
    """Every simulated path was excluded from a ratio statistic."""


class KsUnreliableWarning(UserWarning):
    """Kolmogorov-Smirnov distance computed from fewer than 100 paths."""
