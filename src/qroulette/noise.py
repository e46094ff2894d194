"""Closed-form noise figures and the roulette-vs-heterodyne comparison.

All quantities depend on the state only through (mean_n, mean_nsq), the
first two photon-number moments, plus the quantum efficiency eta.  Each zero
contour point is one bisection of a bracket on which the gap never falls, run
to adjacent floats; the beta = 0 intercept is the coherent crossover N = 1/eta
in closed form.  A contour validates (N, eta) once: its bisection steps run the
gap kernel that squeezed_delta_rh also uses, which only checks each value finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import NumericalError, ValidationError, check_eta, check_int, check_real

# the points one zero contour may sample
MAX_POINTS = 100_000

__all__ = [
    "MAX_POINTS",
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


def _check_inputs(mean_n, mean_nsq, eta) -> tuple[float, float, float]:
    """(mean_n, mean_nsq, eta) as floats, eta checked first, and the variance not negative."""
    eta = check_eta(eta)
    mean_n = check_real(mean_n, "photon moment 'mean_n'", 0, math.inf)
    mean_nsq = check_real(mean_nsq, "photon moment 'mean_nsq'", -math.inf, math.inf)
    if mean_nsq - mean_n * mean_n < -1e-9 * max(1.0, mean_nsq):
        raise ValidationError(
            f"inconsistent moments: variance {mean_nsq - mean_n**2:.6g} is negative"
        )
    return mean_n, mean_nsq, eta


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
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
    var_n = mean_nsq - mean_n * mean_n
    value = var_n + 0.5 * mean_nsq + mean_n * (2.0 / eta - 1.5) + 0.5 * _inverse_square(eta)
    return _finite("roulette_var", value, eta)


def direct_variance(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Variance of the direct-detection estimate m/eta: <dn^2> + <n>(1/eta - 1)."""
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
    return _finite("direct_var", mean_nsq - mean_n * mean_n + mean_n * (1.0 / eta - 1.0), eta)


def heterodyne_variance(mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Variance of the heterodyne intensity estimate: <dn^2> + (2/eta - 1)<n> + 1/eta^2."""
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
    value = mean_nsq - mean_n * mean_n + (2.0 / eta - 1.0) * mean_n + _inverse_square(eta)
    return _finite("heterodyne_var", value, eta)


def added_noise(scheme: str, mean_n: float, mean_nsq: float, eta: float = 1.0) -> float:
    """Noise a scheme adds on top of direct detection; strictly positive.

    roulette   : [<n^2> + <n>(2/eta - 1) + 1/eta^2] / 2
    heterodyne : [<n> + 1/eta] / eta
    """
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
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
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
    return _finite("delta_rh", 0.5 * (mean_nsq - mean_n - _inverse_square(eta)), eta)


def threshold_n(eta: float = 1.0) -> float:
    """Photon number above which heterodyne beats the roulette for Fock states:
    (1 + sqrt(1 + 4/eta^2)) / 2; strictly decreasing in eta."""
    eta = check_eta(eta)
    return _finite("threshold_n", 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * _inverse_square(eta))), eta)


def _squeezed_gap(total_n: float, eta: float):
    """gap(beta) = squeezed_delta_rh(total_n, beta, eta) for arguments that are
    already valid: 1/eta^2 is taken once and each value only checked finite, so a
    bisection pays for the validation once per contour, not once per step."""
    inverse_square = _inverse_square(eta)

    def gap(beta: float) -> float:
        bn = beta * total_n
        value = (
            total_n * total_n
            + 2.0 * bn * (1.0 + bn)
            + (1.0 - beta) * total_n * (1.0 + 2.0 * bn + 2.0 * math.sqrt(bn * (1.0 + bn)))
            - total_n
            - inverse_square
        )
        return _finite("squeezed_delta_rh", value, eta)

    return gap


def squeezed_delta_rh(total_n: float, beta: float, eta: float = 1.0) -> float:
    """Roulette/heterodyne gap for the squeezed family in (N, beta) form.

    Returned exactly as the closed-form expression
        N^2 + 2 b N (1 + b N) + (1 - b) N (1 + 2 b N + 2 sqrt(b N (1 + b N)))
        - N - 1/eta^2,
    which is an un-halved convention: it equals 2 * delta_rh evaluated on the
    same state's photon moments.  Zero contours are unaffected by the positive
    scale, so both are kept as documented rather than reconciled.
    """
    eta = check_eta(eta)
    total_n = check_real(total_n, "total mean photon number 'total_n'", 0, math.inf)
    beta = check_real(beta, "squeezing fraction 'beta'", 0, 1)
    return _squeezed_gap(total_n, eta)(beta)


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

    @property
    def verdict(self) -> str:
        """The quieter scheme by delta_rh: indifferent within 1e-12 of zero."""
        if self.delta_rh < -1e-12:
            return "roulette"
        return "heterodyne" if self.delta_rh > 1e-12 else "indifferent"


def noise_report(mean_n: float, mean_nsq: float, eta: float = 1.0) -> NoiseReport:
    """Assemble every noise figure for one set of photon moments."""
    mean_n, mean_nsq, eta = _check_inputs(mean_n, mean_nsq, eta)
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


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of a nondecreasing f with f(lo) = f_lo <= 0 <= f_hi = f(hi), by
    bisection until lo and hi are adjacent floats: an end where f is exactly 0,
    else the end with the smaller |f|."""
    while f_lo != 0.0 and f_hi != 0.0:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if -f_lo <= f_hi else hi
        f_mid = f(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if f_lo == 0.0 else hi


def _root_beta(total_n: float, eta: float) -> ZeroLinePoint:
    f = _squeezed_gap(total_n, eta)
    # With s = beta N = sinh^2 r and u = e^{2r} the number variance is
    # (N - s) u + 2 s (1 + s); du/ds >= 4 and u <= 2 + 4 s give it a slope
    # >= 4 (N - s) >= 0, so the gap never falls as beta grows: [0, 1] is the bracket.
    at_0, at_1 = f(0.0), f(1.0)
    if at_0 > 0.0 or at_1 < 0.0:
        return ZeroLinePoint(total_n, math.nan, False)
    return ZeroLinePoint(total_n, _bisect(f, 0.0, 1.0, at_0, at_1), True)


def zero_line(eta: float, n_points: int = 128, n_max: float = 12.0) -> list[ZeroLinePoint]:
    """Sample the squeezed-family contour where the roulette/heterodyne gap is zero.

    For each of the n_points sampled total mean photon numbers N (at most
    MAX_POINTS) the root beta is found by bisection in the one bracket [0, 1],
    and the point is converged exactly when the gap changes sign there; N values
    without a root are kept as flagged, non-converged points.
    The beta = 0 intercept, the coherent crossover N = 1/eta in closed form, is
    included whenever it falls inside (0, n_max].
    """
    eta = check_eta(eta)
    n_points = check_int(n_points, "n_points", 1, MAX_POINTS)
    n_max = check_real(n_max, "'n_max'", 5e-324, math.inf)
    start = n_max / n_points
    delta, div = n_max - start, n_points - 1
    step = delta / div if div else 0.0
    # np.linspace(start, n_max, n_points) value for value: i step + start, or
    # (i / div) delta + start where step underflows to 0, and n_max last
    grid = [(i * step if step else i / div * delta) + start for i in range(div)] + [n_max]
    points = [_root_beta(n, eta) for n in grid]
    intercept = 1.0 / eta
    if squeezed_delta_rh(n_max, 0.0, eta) > 0.0 and not any(
        p.converged and p.beta == 0.0 and abs(p.total_n - intercept) < 1e-12 for p in points
    ):
        points.append(ZeroLinePoint(intercept, 0.0, True))
    points.sort(key=lambda p: p.total_n)
    return points


def zero_contour_n(eta: float, beta: float, n_hi: float = 1e4) -> float:
    """Total mean photon number on the zero contour at a fixed beta: the gap
    never falls as N grows, so one bisection of [0, n_hi] finds it."""
    eta = check_eta(eta)
    beta = check_real(beta, "squeezing fraction 'beta'", 0, 1)
    n_hi = check_real(n_hi, "'n_hi'", 0, math.inf)
    f = lambda n: _squeezed_gap(n, eta)(beta)
    at_hi = f(n_hi)
    if at_hi <= 0.0:
        raise ValidationError(f"no contour crossing below N = {n_hi}")
    if beta == 0.0:
        return 1.0 / eta
    return _bisect(f, 0.0, n_hi, f(0.0), at_hi)
