"""Outcome densities and exact distribution functions of the three detection schemes.

Nonunit quantum efficiency eta enters in one place: thin, measure at unit
efficiency, rescale.  The number distribution is Bernoulli-thinned once per
(state, eta), shared through a cache, and then
  * roulette: p_eta(x) = sqrt(eta) p_thinned(sqrt(eta) x), Gaussian smearing
    of the quadrature with variance (1 - eta)/(4 eta);
  * heterodyne: p_eta(I) = eta p_thinned(eta I + 1) with p_thinned the Husimi
    radial law, a complex Gaussian of per-quadrature variance (1/eta - 1)/2;
  * direct detection: the thinned distribution itself.
Every CDF is in closed form through the tail sums of the thinned weights, and as every
POM is number-diagonal, every outcome moment of order 0-4 is a finite sum: over the
state's factorial moments, which thinning scales by eta^j, with no thinned weight.
A heterodyne law, a Poisson mixture, sums at each v only the orders in the window
of Fox & Glynn (Commun. ACM 31 (1988) 440), v -+ (10 sqrt(v) + 40): with less than
e^-50 ~ 2e-22 of the Poisson(v) weight beyond either end, the sum moves by < 4e-22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SCHEMES, NumericalError, ValidationError, check_eta, check_int
from .numerics import log_factorials, oscillator_mixture, oscillator_mixture_cdf, poisson_window
from .states import PhotonStatistics

__all__ = [
    "DetectorConfig",
    "SCHEMES",
    "direct_detection_cdf",
    "direct_detection_pmf",
    "heterodyne_cdf_v",
    "heterodyne_density_I",
    "heterodyne_outcome_moment",
    "roulette_cdf_abs_x",
    "roulette_density_x",
    "roulette_density_y",
    "roulette_outcome_moment",
    "thinned_distribution",
]

# cells of one block of the thinning sum: a few MB of temporaries at any n_max
_THIN_BLOCK_CELLS = 1 << 16
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection scheme tag plus quantum efficiency."""

    scheme: str
    eta: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"scheme must be one of {SCHEMES} (got '{self.scheme}')"
            )
        object.__setattr__(self, "eta", check_eta(self.eta))

    @property
    def smearing_variance(self) -> float:
        """Quadrature smearing variance (1 - eta)/(4 eta); derived, not stored."""
        return (1.0 - self.eta) / (4.0 * self.eta)


def thinned_distribution(rho: np.ndarray, eta: float) -> np.ndarray:
    """Bernoulli thinning of a number distribution: each photon survives
    independently with probability eta,
    out[m] = sum_{n >= m} rho[n] C(n, m) eta^m (1 - eta)^(n - m).

    The binomial weights are summed in the log domain over the nonzero rho[n]
    only, one block of output rows m at a time.
    """
    eta = check_eta(eta)
    rho = np.asarray(rho, dtype=float)
    if eta == 1.0:
        return rho.copy()
    log_fact = log_factorials(len(rho))
    log_eta, log_loss = math.log(eta), math.log1p(-eta)
    n = np.flatnonzero(rho)
    out = np.zeros_like(rho)
    rows = max(1, _THIN_BLOCK_CELLS // max(1, len(n)))
    for start in range(0, len(rho), rows):
        cols = n[np.searchsorted(n, start) :]
        m = np.arange(start, min(start + rows, len(rho)))[:, None]
        k = cols[None, :] - m
        log_pmf = np.where(
            k >= 0,
            log_fact[cols] - log_fact[m] - log_fact[np.maximum(k, 0)] + m * log_eta + k * log_loss,
            -np.inf,
        )
        out[start : start + len(m)] = np.exp(log_pmf) @ rho[cols]
    return out


@lru_cache(maxsize=64)
def _thinned_law(rho_bytes: bytes, eta: float) -> np.ndarray:
    weights = thinned_distribution(np.frombuffer(rho_bytes), eta)
    weights.setflags(write=False)
    return weights


def _thinned(stats: PhotonStatistics, eta: float) -> np.ndarray:
    """Read-only thinned weights, computed once per (state content, eta)."""
    return stats.rho if eta == 1.0 else _thinned_law(stats.rho_bytes, eta)


def direct_detection_pmf(stats: PhotonStatistics, eta: float) -> np.ndarray:
    """Probability mass over detected counts m for direct photodetection,
    p(m) = sum_{n >= m} rho_nn C(n, m) eta^m (1 - eta)^(n - m)."""
    return _thinned(stats, check_eta(eta)).copy()


def roulette_density_x(stats: PhotonStatistics, x, eta: float = 1.0):
    """Outcome density of the random-phase homodyne quadrature.

    At eta = 1 this is the number-diagonal mixture of |<x|n>|^2; below unit
    efficiency it is that mixture convolved with a centred Gaussian of
    variance (1 - eta)/(4 eta), computed exactly via the thinned state:
    p_eta(x) = sqrt(eta) * p_thinned(sqrt(eta) x).
    """
    eta = check_eta(eta)
    root = math.sqrt(eta)
    out = root * oscillator_mixture(_thinned(stats, eta), root * np.asarray(x, dtype=float))
    return float(out) if np.isscalar(x) else out


def roulette_cdf_abs_x(stats: PhotonStatistics, s, eta: float = 1.0):
    """P(|x| <= s), which fixes the outcome y = 2 x^2 - 1/(2 eta): with
    F_eta(x) = F_thinned(sqrt(eta) x) and an even density, 2 F_eta(s) - T_0
    for s >= 0, and 0 below."""
    eta = check_eta(eta)
    weights, x = _thinned(stats, eta), math.sqrt(eta) * np.asarray(s, dtype=float)
    return np.where(x < 0.0, 0.0, 2.0 * oscillator_mixture_cdf(weights, x) - weights.sum())[()]


def roulette_density_y(stats: PhotonStatistics, y, eta: float = 1.0):
    """Density of the unbiased intensity outcome y = 2 x^2 - 1/(2 eta).

    Support is [-1/(2 eta), inf); the boundary value is the one-sided limit
    (infinite when the quadrature density is nonzero at the origin, zero
    otherwise).  The integrable inverse-square-root factor at the boundary
    is genuine and never clipped.
    """
    eta = check_eta(eta)
    floor = -0.5 / eta
    scalar = np.isscalar(y)
    y = np.asarray(y, dtype=float)
    out = np.where(np.isnan(y), math.nan, 0.0)

    inside = y > floor
    if inside.any():
        x0 = np.sqrt(0.5 * (y[inside] - floor))
        out[inside] = roulette_density_x(stats, x0, eta) / (2.0 * x0)
    at_floor = y == floor
    if at_floor.any():
        origin = roulette_density_x(stats, 0.0, eta)
        out[at_floor] = math.inf if origin > 0.0 else 0.0
    return float(out) if scalar else out[()]


def _poisson_mixture(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_n rho_n e^{-u} u^n / n! for u >= 0 (0 at u = inf) in the log domain, in
    blocks of u in place in one buffer per call, so a long u touches the same pages.
    A block computes the orders in its points' Fox & Glynn windows (poisson_window)
    alone; the others weigh < 4e-22 and enter as zeros, so BLAS adds the terms as in
    the full sum.  u is sorted first if not increasing and its window drops an order."""
    count = len(rho)
    def orders(low, high):  # every order at a NaN end
        start, end = poisson_window(float(low))[0], poisson_window(float(high))[1]
        stop = int(end) + 1 if end < count else count
        return min(int(start) if start > 0.0 else 0, stop), stop
    ascending = len(u) < 2 or bool(np.all(u[1:] >= u[:-1]))  # False with a NaN
    order = None if ascending or orders(u.min(), u.max()) == (0, count) else np.argsort(u)
    u = u if order is None else u[order]
    out, buf = np.empty_like(u), np.zeros(count * min(len(u), 512))
    for start in range(0, len(u), 512):
        block = u[start : start + 512]
        first, stop = orders(block[0], block[-1]) if ascending or order is not None else (0, count)
        expo = buf[: count * len(block)].reshape(count, len(block))
        if start:  # the first block finds the buffer zeroed
            expo[:first] = expo[stop:] = 0.0
        window = expo[first:stop]
        # finite logs at u = 0 (set to rho_0 below) and at u = inf: no 0 * inf
        logs = np.log(block.clip(5e-324, _FLOAT_MAX))
        np.multiply.outer(np.arange(first, stop, dtype=float), logs, out=window)
        window -= block
        window -= log_factorials(count)[first:stop, None]
        np.exp(window, out=window)
        out[start : start + 512] = rho @ expo
    out[u == 0.0] = rho[0]
    return out if order is None else out[np.argsort(order)]


def heterodyne_density_I(stats: PhotonStatistics, intensity, eta: float = 1.0):
    """Outcome density of the heterodyne intensity estimator I = |alpha|^2 - 1/eta.

    At eta = 1 it is the radial marginal of the coherent-state (Husimi) law,
    p(I) = sum_n rho_nn e^{-(I+1)} (I+1)^n / n! on I >= -1; below unit
    efficiency it is that law of the thinned state at eta I + 1, times eta,
    on I >= -1/eta.  Below the support v is inf, where the law is 0.
    """
    eta = check_eta(eta)
    u = np.asarray(intensity, dtype=float) + 1.0 / eta
    out = _poisson_mixture(_thinned(stats, eta), np.where(u < 0.0, math.inf, eta * u).ravel())
    return eta * float(out[0]) if np.isscalar(intensity) else eta * out.reshape(u.shape)


def heterodyne_cdf_v(stats: PhotonStatistics, v, eta: float = 1.0):
    """P(eta I + 1 <= v) for v the unit-efficiency |alpha|^2 of the thinned state,
    1 - sum_k T_k e^{-v} v^k / k! for v >= 0, and 0 below: a number state m
    gives Gamma(m + 1) (DLMF 8.4.10)."""
    weights, v = _thinned(stats, check_eta(eta)), np.asarray(v, dtype=float)
    tails = np.cumsum(weights[::-1])[::-1]
    above = 1.0 - _poisson_mixture(tails, np.maximum(v, 0.0).reshape(-1)).reshape(v.shape)
    return np.where(v < 0.0, 0.0, above)[()]


def direct_detection_cdf(stats: PhotonStatistics, eta: float) -> np.ndarray:
    """P(m' <= m) over detected counts m: the cumulative thinned pmf."""
    return np.cumsum(_thinned(stats, check_eta(eta)))


# For k = 0..4, <m|Y^k|m> with Y = 2 x^2 - 1/2 on the thinned state, and E[(V - 1)^k] with
# V ~ Gamma(m + 1) the unit-efficiency |alpha|^2 of number state m, as polynomials
# sum_j c_j (m)_j in the falling factorials (m)_j = m (m - 1) ... (m - j + 1), c_0 first:
# the power coefficients times Stirling numbers of the second kind.  No c_j is negative,
# so no sum cancels.
_ROULETTE_DIAGONALS = ((1,), (0, 1), (0.5, 2, 1.5), (1, 7.5, 9, 2.5), (3.75, 34, 58.5, 30, 4.375))
_HETERODYNE_DIAGONALS = ((1,), (0, 1), (1, 2, 1), (2, 9, 6, 1), (9, 44, 42, 12, 1))


@lru_cache(maxsize=64)
def _factorial_moments(rho_bytes: bytes) -> tuple[float, ...]:
    """F_j = sum_n rho_n (n)_j for j = 0..4.  Thinning maps (m)_j to eta^j (n)_j, so
    the thinned law's factorial moments are eta^j F_j: no thinned weight is needed."""
    rho = np.frombuffer(rho_bytes)
    falling = np.cumprod(np.arange(len(rho), dtype=float)[:, None] - np.arange(4.0), axis=1)
    return (float(rho.sum()), *(rho @ falling).tolist())


def _diagonal_moment(name: str, diagonals, stats: PhotonStatistics, eta, order) -> float:
    """eta^-order sum_m p_m D(m) over the thinned pmf p, D = diagonals[order], as
    sum_j c_j F_j eta^(j - order) over the state's factorial moments F_j, dividing by
    eta once per unit of order - j so that no eta^j underflows: exact at a subnormal
    eta, and a NumericalError where it overflows."""
    eta, order = check_eta(eta), check_int(order, "moment 'order'", 0, 4)
    moments = _factorial_moments(stats.rho_bytes)
    value = 0.0
    for c, f in zip(diagonals[order], moments):
        value = value / eta + c * f
    if not math.isfinite(value):
        raise NumericalError(f"{name} of order {order} overflows at eta = {eta!r}")
    return value


def roulette_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment E[y^order], order an integer from 0 to 4, of the roulette intensity outcome
    y = 2 x^2 - 1/(2 eta) = Y / eta: the thinned pmf summed against <m|Y^order|m>."""
    return _diagonal_moment("roulette_outcome_moment", _ROULETTE_DIAGONALS, stats, eta, order)


def heterodyne_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment E[I^order], order an integer from 0 to 4, of the heterodyne intensity outcome
    I = (V - 1) / eta: the thinned pmf summed against E[(V - 1)^order], V ~ Gamma(m + 1)."""
    return _diagonal_moment("heterodyne_outcome_moment", _HETERODYNE_DIAGONALS, stats, eta, order)
