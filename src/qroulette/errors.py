"""Exception hierarchy shared by all qroulette modules, and the one efficiency check."""


class QRouletteError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QRouletteError, ValueError):
    """Inputs violate a documented contract (range, shape, invariant)."""


class NumericalError(QRouletteError, RuntimeError):
    """A numerical procedure failed (non-convergence, truncation, overflow)."""


class IntegrationError(NumericalError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message: str, best_estimate: float | None = None):
        super().__init__(message)
        self.best_estimate = best_estimate


class TruncationError(NumericalError):
    """A truncated basis or distribution cannot hold the requested mass."""


def check_eta(eta) -> float:
    """Return eta as a float; ValidationError unless 0 < eta <= 1."""
    value = float(eta)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"quantum efficiency eta must lie in (0, 1] (got {eta})")
    return value
