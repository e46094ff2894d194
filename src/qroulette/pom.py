"""Outcome probability densities of the three detection schemes.

Nonunit quantum efficiency eta enters in one place: thin, measure at unit
efficiency, rescale.  The number distribution is Bernoulli-thinned once per
(state, eta), shared through a cache, and then
  * roulette: p_eta(x) = sqrt(eta) p_thinned(sqrt(eta) x), Gaussian smearing
    of the quadrature with variance (1 - eta)/(4 eta);
  * heterodyne: p_eta(I) = eta p_thinned(eta I + 1) with p_thinned the Husimi
    radial law, a complex Gaussian of per-quadrature variance (1/eta - 1)/2;
  * direct detection: the thinned distribution itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import ValidationError, check_eta
from .estimators import intensity_estimator
from .numerics import gauss_legendre_grid, oscillator_mixture
from .states import PhotonStatistics, moments

__all__ = [
    "DetectorConfig",
    "SCHEMES",
    "direct_detection_pmf",
    "heterodyne_density_I",
    "heterodyne_outcome_moment",
    "roulette_density_x",
    "roulette_density_y",
    "roulette_outcome_moment",
    "thinned_distribution",
]

SCHEMES = ("roulette", "heterodyne", "direct")

# cells of one block of the thinning sum: a few MB of temporaries at any n_max
_THIN_BLOCK_CELLS = 1 << 16


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
    log_fact = gammaln(np.arange(len(rho)) + 1.0)
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
    return stats.rho if eta == 1.0 else _thinned_law(stats.rho.tobytes(), eta)


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
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros_like(y)

    inside = y > floor
    if inside.any():
        x0 = np.sqrt(0.5 * (y[inside] - floor))
        out[inside] = roulette_density_x(stats, x0, eta) / (2.0 * x0)
    at_floor = y == floor
    if at_floor.any():
        origin = roulette_density_x(stats, 0.0, eta)
        out[at_floor] = math.inf if origin > 0.0 else 0.0
    return float(out[0]) if scalar else out


def _poisson_mixture(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_n rho_n e^{-u} u^n / n! evaluated in the log domain, chunked in u."""
    n = np.arange(len(rho), dtype=float)
    lgn = gammaln(n + 1.0)
    out = np.empty_like(u)
    for start in range(0, len(u), 512):
        block = u[start : start + 512]
        safe = np.where(block > 0.0, block, 1.0)
        expo = -block[None, :] + n[:, None] * np.log(safe)[None, :] - lgn[:, None]
        out[start : start + 512] = rho @ np.exp(expo)
    zero = u == 0.0
    if zero.any():
        out[zero] = rho[0]
    return out


def heterodyne_density_I(stats: PhotonStatistics, intensity, eta: float = 1.0):
    """Outcome density of the heterodyne intensity estimator I = |alpha|^2 - 1/eta.

    At eta = 1 it is the radial marginal of the coherent-state (Husimi) law,
    p(I) = sum_n rho_nn e^{-(I+1)} (I+1)^n / n! on I >= -1; below unit
    efficiency it is that law of the thinned state at eta I + 1, times eta,
    on I >= -1/eta.
    """
    eta = check_eta(eta)
    scalar = np.isscalar(intensity)
    intensity = np.atleast_1d(np.asarray(intensity, dtype=float))
    u = intensity + 1.0 / eta
    out = np.zeros_like(u)
    ok = u >= 0.0
    out[ok] = eta * _poisson_mixture(_thinned(stats, eta), eta * u[ok])
    return float(out[0]) if scalar else out


def roulette_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment integral(y^order p_eta(y) dy) of the roulette intensity outcome.

    Integrated in the smooth quadrature parameterisation y = 2 x^2 - 1/(2 eta),
    which removes the inverse-square-root boundary factor of the y density.
    """
    eta = check_eta(eta)
    n_top = stats.n_max
    x_lim = (math.sqrt((2.0 * n_top + 1.0) / 2.0) + 10.0) / math.sqrt(eta)
    panels = max(64, 2 * (n_top + 16))
    nodes, weights = gauss_legendre_grid(-x_lim, x_lim, panels)
    dens = roulette_density_x(stats, nodes, eta)
    est = intensity_estimator(nodes, eta) ** order if order else np.ones_like(nodes)
    return float(np.sum(weights * dens * est))


def heterodyne_outcome_moment(stats: PhotonStatistics, eta: float = 1.0, order: int = 1) -> float:
    """Moment integral(I^order p_eta(I) dI) of the heterodyne intensity outcome,
    integrated over v = eta I + 1, the unit-efficiency |alpha|^2 of the thinned state."""
    eta = check_eta(eta)
    mean, _, var = moments(stats)
    upper = mean + 4.0 * stats.n_max + 10.0 * math.sqrt(var + 1.0) + 96.0
    panels = max(64, int(upper) + 2 * stats.n_max)
    v_nodes, weights = gauss_legendre_grid(0.0, upper, panels)
    dens = _poisson_mixture(_thinned(stats, eta), v_nodes)
    est = ((v_nodes - 1.0) / eta) ** order if order else np.ones_like(v_nodes)
    return float(np.sum(weights * dens * est))
