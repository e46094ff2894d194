"""Unbiased intensity estimators and the general tomographic kernel."""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import NumericalError, check_eta, check_int, check_real
from .numerics import _hermite_scaled

__all__ = [
    "heterodyne_estimator",
    "intensity_estimator",
    "richter_kernel",
]

MAX_KERNEL_ORDER = 300


def richter_kernel(n: int, m: int, x: float, phi: float) -> complex:
    """Tomographic pattern kernel for the normally ordered moment a^dag^n a^m.

    Averaging e^{i phi (m - n)} H_{n+m}(sqrt(2) x) / (2^{(n+m)/2} C(n+m, m))
    over homodyne data (x, phi) yields <a^dag^n a^m>.  Phase independent
    exactly when n == m; total order n + m is capped at 300, above which the
    Hermite factor leaves double range for generic x.
    """
    n = check_int(n, "richter_kernel: order 'n'", 0, math.inf)
    m = check_int(m, "richter_kernel: order 'm'", 0, math.inf)
    order = n + m
    if order > MAX_KERNEL_ORDER:
        raise NumericalError(
            f"richter_kernel: total order {order} exceeds the supported maximum "
            f"{MAX_KERNEL_ORDER}"
        )
    x = check_real(x, "richter_kernel: 'x'", -math.inf, math.inf)
    phi = check_real(phi, "richter_kernel: 'phi'", -math.inf, math.inf)
    # sqrt(2) x is inf beyond |x| = 1.27e308, where every order >= 1 overflows anyway
    t = max(-sys.float_info.max, min(math.sqrt(2.0) * x, sys.float_info.max))
    mant, ln_scale = _hermite_scaled(order, t)
    # binomial divisor in log form; C(n+m, m) overflows integers near order 60
    ln_binom = math.lgamma(order + 1) - math.lgamma(m + 1) - math.lgamma(n + 1)
    ln_den = 0.5 * order * math.log(2.0) + ln_binom
    try:
        magnitude = (
            math.copysign(math.exp(math.log(abs(mant)) + ln_scale - ln_den), mant) if mant else 0.0
        )
    except OverflowError:
        raise NumericalError(f"richter_kernel: order {order} overflows at x = {x}") from None
    if n == m:
        return complex(magnitude, 0.0)
    # the phase reduced mod 2 pi first, so phi (m - n) cannot overflow
    return magnitude * cmath.exp(1j * math.fmod(phi, 2.0 * math.pi) * (m - n))


def intensity_estimator(x, eta: float = 1.0):
    """Unbiased field-intensity estimate from a quadrature outcome: 2 x^2 - 1/(2 eta)."""
    eta = check_eta(eta)
    return _estimate("intensity_estimator", eta, lambda x: 2.0 * x * x - 0.5 / eta, x)


def heterodyne_estimator(alpha_re: float, alpha_im: float, eta: float = 1.0):
    """Unbiased field-intensity estimate from a heterodyne point: |alpha|^2 - 1/eta.

    Outcomes below the support floor after smearing are kept as-is;
    unbiasedness requires retaining the negative excursions.
    """
    eta = check_eta(eta)
    return _estimate(
        "heterodyne_estimator", eta, lambda a, b: a * a + b * b - 1.0 / eta, alpha_re, alpha_im
    )


def _estimate(name: str, eta: float, closed_form, *points):
    """closed_form of the points as float arrays, a float for scalars.  Where it is
    not finite, a NaN point gives NaN and an infinite one +inf, the limit of its
    square; finite points raise NumericalError, as the closed form overflowed."""
    points = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in points))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(closed_form(*points))
    off = ~np.isfinite(out)
    if off.any():
        if (off & np.isfinite(points).all(axis=0)).any():
            raise NumericalError(f"{name} overflows at eta = {eta!r}")
        out = np.where(off & ~np.isnan(points).any(axis=0), np.inf, out)
    return float(out) if out.ndim == 0 else out
