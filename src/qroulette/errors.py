"""Exception hierarchy shared by all qroulette modules; the one efficiency check (eta a
number in (0, 1]) and the one integer check (an int, numpy integer or integer-valued float
in range, never a bool, for every order, size, truncation and seed); and the scheme names
and size bounds the command line prints, kept here so that printing them loads no numpy."""

import numbers

SCHEMES = ("roulette", "heterodyne", "direct")

# The largest Naimark sizes accepted.  A random spec of dimension d <= MAX_DIM
# with M <= MAX_M families extends to projectors of 16 d^3 M^2 bytes (1.07 GB at
# both bounds).  The semiclassical check works on amplitude vectors, so its
# memory is small at any truncation; MAX_TRUNC bounds its time, which grows
# linearly with the system and probe truncations (about 1.6 ms per probe
# amplitude at 4096 on a 2-core x86-64 host).
MAX_DIM = 64
MAX_M = 16
MAX_TRUNC = 4096


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
    """Return eta as a float; ValidationError unless it is a number in (0, 1]."""
    try:
        value = float(eta)
    except (TypeError, ValueError):
        raise ValidationError(f"quantum efficiency 'eta' is not a number (got {eta!r})") from None
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"quantum efficiency 'eta' must lie in (0, 1] (got {eta})")
    return value


def check_int(value, name: str, low, high) -> int:
    """Return value as an int; ValidationError unless it is an int, a numpy integer
    or an integer-valued float, not a bool, in [low, high] (either may be infinite)."""
    if (
        type(value) is int  # the common case, ahead of the slow ABC check
        or isinstance(value, numbers.Integral) and not isinstance(value, bool)
        or isinstance(value, float) and value.is_integer()
    ) and low <= value <= high:
        return int(value)
    if isinstance(high, int) and high > 1 << 32 and not high & high - 1:
        high = f"2**{high.bit_length() - 1}"  # a large power of two, as 2**53
    raise ValidationError(f"{name} must lie in [{low}, {high}] and be an integer (got {value!r})")
