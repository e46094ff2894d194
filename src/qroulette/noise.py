"""Closed-form noise figures and the roulette-vs-heterodyne comparison.

All quantities depend on the state only through (mean_n, mean_nsq), the
first two photon-number moments, plus the quantum efficiency eta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError, ValidationError, check_eta

__all__ = [
    "NoiseReport",
    "ZeroLinePoint",
    "added_noise",
    "delta_rh",
    "direct_variance",
    "heterodyne_variance",
    "noise_report",
    "roulette_variance",
    "squeezed_delta_rh",
    "threshold_n",
    "zero_contour_n",
    "zero_line",
]


def _check_inputs(mean_n: float, mean_nsq: float, eta: float) -> None:
    check_eta(eta)
    if not (math.isfinite(mean_n) and math.isfinite(mean_nsq)):
        raise ValidationError(f"photon moments must be finite (got {mean_n}, {mean_nsq})")
    if mean_n < 0.0:
        raise ValidationError(f"mean photon number must be >= 0 (got {mean_n})")
    if mean_nsq - mean_n * mean_n < -1e-9 * max(1.0, mean_nsq):
        raise ValidationError(
            f"inconsistent moments: variance {mean_nsq - mean_n**2:.6g} is negative"
        )


def _inverse_square(eta: float) -> float:
    """1/eta^2, inf where eta^2 underflows to zero."""
    square = eta * eta
    return 1.0 / square if square > 0.0 else math.inf


def _finite(figure: str, value: float, eta: float) -> float:
    """value, or NumericalError naming the figure when its closed form overflows."""
    if not math.isfinite(value):
        raise NumericalError(f"{figure} overflows at eta = {eta!r}")
    return value


def roulette_variance(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Variance of the roulette intensity estimate at efficiency eta:
    <dn^2> + <n^2>/2 + <n>(2/eta - 3/2) + 1/(2 eta^2)."""
    _check_inputs(mean_n, mean_nsq, eta)
    var_n = mean_nsq - mean_n * mean_n
    value = var_n + 0.5 * mean_nsq + mean_n * (2.0 / eta - 1.5) + 0.5 * _inverse_square(eta)
    return _finite("roulette_var", value, eta)


def direct_variance(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Variance of the direct-detection estimate m/eta: <dn^2> + <n>(1/eta - 1)."""
    _check_inputs(mean_n, mean_nsq, eta)
    return _finite("direct_var", mean_nsq - mean_n * mean_n + mean_n * (1.0 / eta - 1.0), eta)


def heterodyne_variance(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Variance of the heterodyne intensity estimate: <dn^2> + (2/eta - 1)<n> + 1/eta^2."""
    _check_inputs(mean_n, mean_nsq, eta)
    value = mean_nsq - mean_n * mean_n + (2.0 / eta - 1.0) * mean_n + _inverse_square(eta)
    return _finite("heterodyne_var", value, eta)


def added_noise(scheme: str, mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Noise a scheme adds on top of direct detection; strictly positive.

    roulette   : [<n^2> + <n>(2/eta - 1) + 1/eta^2] / 2
    heterodyne : [<n> + 1/eta] / eta
    """
    _check_inputs(mean_n, mean_nsq, eta)
    if scheme == "roulette":
        value = 0.5 * (mean_nsq + mean_n * (2.0 / eta - 1.0) + _inverse_square(eta))
    elif scheme == "heterodyne":
        value = (mean_n + 1.0 / eta) / eta
    else:
        raise ValidationError(
            f"added_noise: scheme must be roulette or heterodyne (got '{scheme}')"
        )
    return _finite(f"added_{scheme}", value, eta)


def delta_rh(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Roulette-minus-heterodyne variance gap: [<n^2> - <n> - 1/eta^2] / 2.

    Negative means the roulette is the quieter intensity measurement.
    """
    _check_inputs(mean_n, mean_nsq, eta)
    return _finite("delta_rh", 0.5 * (mean_nsq - mean_n - _inverse_square(eta)), eta)


def threshold_n(eta: float = 1.0) -> float:
    """Photon number above which heterodyne beats the roulette for Fock states:
    (1 + sqrt(1 + 4/eta^2)) / 2; strictly decreasing in eta."""
    check_eta(eta)
    return _finite("threshold_n", 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * _inverse_square(eta))), eta)


def squeezed_delta_rh(total_n: float, beta: float, eta: float = 1.0) -> float:
    """Roulette/heterodyne gap for the squeezed family in (N, beta) form.

    Returned exactly as the closed-form expression
        N^2 + 2 b N (1 + b N) + (1 - b) N (1 + 2 b N + 2 sqrt(b N (1 + b N)))
        - N - 1/eta^2,
    which is an un-halved convention: it equals 2 * delta_rh evaluated on the
    same state's photon moments.  Zero contours are unaffected by the positive
    scale, so both are kept as documented rather than reconciled.
    """
    check_eta(eta)
    if not 0.0 <= total_n < math.inf:
        raise ValidationError(f"total mean photon number must be finite and >= 0 (got {total_n})")
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"squeezing fraction beta must lie in [0, 1] (got {beta})")
    bn = beta * total_n
    value = (
        total_n * total_n
        + 2.0 * bn * (1.0 + bn)
        + (1.0 - beta) * total_n * (1.0 + 2.0 * bn + 2.0 * math.sqrt(bn * (1.0 + bn)))
        - total_n
        - _inverse_square(eta)
    )
    return _finite("squeezed_delta_rh", value, eta)


@dataclass(frozen=True)
class NoiseReport:
    """All closed-form figures of merit for one (state moments, eta) pair."""

    mean_n: float
    mean_nsq: float
    eta: float
    roulette_var: float
    direct_var: float
    heterodyne_var: float
    added_roulette: float
    added_heterodyne: float
    delta_rh: float
    threshold_n: float

    def to_dict(self) -> dict:
        return asdict(self)


def noise_report(mean_n: float, mean_nsq: float, eta: float = 1.0) -> NoiseReport:
    """Assemble every noise figure for one set of photon moments."""
    return NoiseReport(
        mean_n=mean_n,
        mean_nsq=mean_nsq,
        eta=eta,
        roulette_var=roulette_variance(mean_n, mean_nsq, eta),
        direct_var=direct_variance(mean_n, mean_nsq, eta),
        heterodyne_var=heterodyne_variance(mean_n, mean_nsq, eta),
        added_roulette=added_noise("roulette", mean_n, mean_nsq, eta),
        added_heterodyne=added_noise("heterodyne", mean_n, mean_nsq, eta),
        delta_rh=delta_rh(mean_n, mean_nsq, eta),
        threshold_n=threshold_n(eta),
    )


@dataclass(frozen=True)
class ZeroLinePoint:
    """One sampled point of a squeezed-family zero contour."""

    total_n: float
    beta: float
    converged: bool


def _root_beta(total_n: float, eta: float) -> ZeroLinePoint:
    def f(beta):
        return squeezed_delta_rh(total_n, beta, eta)

    scan = np.linspace(0.0, 1.0, 33)
    values = np.array([f(b) for b in scan])
    exact = np.flatnonzero(values == 0.0)
    if exact.size:
        return ZeroLinePoint(total_n, float(scan[exact[0]]), True)
    crossings = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if crossings.size == 0:
        return ZeroLinePoint(total_n, math.nan, False)
    lo, hi = scan[crossings[0]], scan[crossings[0] + 1]
    try:
        beta = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    except RuntimeError:
        return ZeroLinePoint(total_n, math.nan, False)
    return ZeroLinePoint(total_n, float(beta), abs(f(beta)) <= 1e-10)


def zero_line(eta: float, n_points: int = 128, n_max: float = 12.0) -> list[ZeroLinePoint]:
    """Sample the squeezed-family contour where the roulette/heterodyne gap is zero.

    For each sampled total mean photon number N the root beta in [0, 1] is
    bisected to |gap| <= 1e-10 when a sign change exists; N values without a
    root are kept as flagged, non-converged points.  The beta = 0 intercept
    (at N = 1/eta) is root-found in N and included explicitly whenever it
    falls inside (0, n_max].
    """
    check_eta(eta)
    if n_points < 1:
        raise ValidationError(f"n_points must be >= 1 (got {n_points})")
    if not 0.0 < n_max < math.inf:
        raise ValidationError(f"n_max must be positive and finite (got {n_max})")
    points = [_root_beta(float(n), eta) for n in np.linspace(n_max / n_points, n_max, n_points)]
    if squeezed_delta_rh(n_max, 0.0, eta) > 0.0:
        intercept = float(
            brentq(lambda n: squeezed_delta_rh(n, 0.0, eta), 0.0, n_max, xtol=1e-14, rtol=8.9e-16)
        )
        duplicate = any(
            p.converged and p.beta == 0.0 and abs(p.total_n - intercept) < 1e-12 for p in points
        )
        if not duplicate:
            points.append(ZeroLinePoint(intercept, 0.0, True))
    points.sort(key=lambda p: p.total_n)
    return points


def zero_contour_n(eta: float, beta: float, n_hi: float = 1e4) -> float:
    """Total mean photon number on the zero contour at a fixed beta."""
    check_eta(eta)
    if squeezed_delta_rh(n_hi, beta, eta) <= 0.0:
        raise ValidationError(f"no contour crossing below N = {n_hi}")
    return float(
        brentq(lambda n: squeezed_delta_rh(n, beta, eta), 0.0, n_hi, xtol=1e-14, rtol=8.9e-16)
    )
