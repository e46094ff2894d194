"""Outcome densities and exact distribution functions of the three detection schemes.

Nonunit quantum efficiency eta enters in one place: thin, measure at unit
efficiency, rescale.  The number distribution is Bernoulli-thinned once per
(state, eta), shared through a cache, and then
  * roulette: p_eta(x) = sqrt(eta) p_thinned(sqrt(eta) x), Gaussian smearing
    of the quadrature with variance (1 - eta)/(4 eta);
  * heterodyne: p_eta(I) = eta p_thinned(eta I + 1) with p_thinned the Husimi
    radial law, a complex Gaussian of per-quadrature variance (1/eta - 1)/2;
  * direct detection: the thinned distribution itself.
Every CDF is in closed form through the tail sums of the thinned weights.
A heterodyne law, a Poisson mixture, sums at each v only the orders in the window
of Fox & Glynn (Commun. ACM 31 (1988) 440), v -+ (10 sqrt(v) + 40): with less than
e^-50 ~ 2e-22 of the Poisson(v) weight beyond either end, the sum moves by < 4e-22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SCHEMES, ValidationError, check_eta
from .estimators import intensity_estimator
from .numerics import (
    gauss_legendre_grid,
    log_factorials,
    oscillator_mixture,
    oscillator_mixture_cdf,
    poisson_window,
)
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
        check_eta(self.eta)

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
    weights, x = _thinned(stats, check_eta(eta)), math.sqrt(eta) * np.asarray(s, dtype=float)
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


def _check_order(order) -> int:
    """order as an int; ValidationError unless it is an integer (not a bool) from 0 to 4."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not 0 <= order <= 4:
        raise ValidationError(f"moment 'order' must be an integer from 0 to 4 (got {order!r})")
    return int(order)


def roulette_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment integral(y^order p_eta(y) dy) of the roulette intensity outcome, order an
    integer from 0 to 4, in the smooth parameterisation y = 2 x^2 - 1/(2 eta), which has
    no inverse-square-root factor: twice the integral over [0, x_lim], as p_eta(x) and y
    are even.  x_lim = (sqrt(n_max + 1/2) + 10) / sqrt(eta), ten past the top order's
    turning point, is cut into max(32, n_max + 16) 12-point Gauss-Legendre panels, at
    most 0.44 / sqrt(eta) wide; a panel of width h errs by h^25 (12!)^4 / (25 (24!)^3)
    max|f^(24)| (Abramowitz & Stegun, section 25.4)."""
    eta, order = check_eta(eta), _check_order(order)
    x_lim = (math.sqrt((2.0 * stats.n_max + 1.0) / 2.0) + 10.0) / math.sqrt(eta)
    nodes, weights = gauss_legendre_grid(0.0, x_lim, max(32, stats.n_max + 16))
    dens = roulette_density_x(stats, nodes, eta)
    return 2.0 * float(np.sum(weights * dens * intensity_estimator(nodes, eta) ** order))


def heterodyne_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment integral(I^order p_eta(I) dI) of the heterodyne intensity outcome, order an
    integer from 0 to 4, over v = eta I + 1, the unit-efficiency |alpha|^2 of the thinned
    state, up to `upper`, the top of the window of the mean len(rho), past every order.
    It is cut into max(16, ceil(upper / 4)) 12-point Gauss-Legendre panels, at most 4 wide,
    each erring by < 1e-23 max|f^(24)| (Abramowitz & Stegun, section 25.4); no term
    e^-v v^m / m! has |f^(24)| > C(24, 12) ~ 2.7e6 (m = 12, v = 0): < 3e-17 for the density."""
    eta, order = check_eta(eta), _check_order(order)
    upper = poisson_window(len(stats.rho))[1]
    v_nodes, weights = gauss_legendre_grid(0.0, upper, max(16, math.ceil(upper / 4.0)))
    dens = _poisson_mixture(_thinned(stats, eta), v_nodes)
    return float(np.sum(weights * dens * ((v_nodes - 1.0) / eta) ** order))
