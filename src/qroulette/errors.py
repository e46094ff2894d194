"""Exception hierarchy shared by all qroulette modules; the one integer check (every order,
size, truncation and seed), the one real-number check (every real scalar argument, eta in
(0, 1] among them) and the point check (a point or end of integration, +-inf kept), none
taking a bool; and the scheme names and size bounds the command line prints, kept here so
that printing them loads no numpy."""

import math
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
    bounds = "" if low == -math.inf and high == math.inf else f"lie in [{low}, {high}] and "
    raise _refused(f"{name} must {bounds}be an integer", value)


def check_real(value, name: str, low, high) -> float:
    """Return value as a float; ValidationError unless it is a real number or numeric string,
    not a bool, whose float is finite and in [low, high].  low = 5e-324 reads as (0."""
    number = value
    if type(value) is not float:  # the common case skips the conversion
        refused = isinstance(value, bool) or not isinstance(value, (float, str, numbers.Real))
        try:
            number = math.nan if refused else float(value)
        except (ValueError, OverflowError):  # not a number, or past the float range
            number = math.nan
    if low <= number <= high and number - number == 0.0:  # not NaN nor infinite
        return number
    left = "(0" if low == 5e-324 else f"[{low}"
    raise _refused(f"{name} must be a finite real in {left}, {high}]", value)


def check_point(value, name: str, nan: bool = False) -> float:
    """Return value as a float; ValidationError unless it is a real number, not a bool nor
    text, within the float range.  A point a function is evaluated at or integrated to:
    +-inf are kept, and NaN too where nan is set."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            point = float(value)
        except OverflowError:  # an int past the float range
            pass
        else:
            if nan or point == point:
                return point
    also = ", +-inf or NaN" if nan else " or +-inf"
    raise _refused(f"{name} must be a real number in the float range{also}", value)


def check_eta(eta) -> float:
    """Return eta as a float; ValidationError unless it is a number in (0, 1]."""
    return check_real(eta, "quantum efficiency 'eta'", 5e-324, 1)


def _refused(rule: str, value) -> ValidationError:
    """The error for a value that breaks rule; an int too long to print is given by its size."""
    try:
        return ValidationError(f"{rule} (got {value!r})")
    except ValueError:  # more digits than int-to-str conversion allows
        return ValidationError(f"{rule} (got an integer of {value.bit_length()} bits)")
