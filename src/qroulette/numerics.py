"""Special functions, adaptive quadrature, and inverse-CDF sampling tables.

Everything here is a pure function of its inputs; DensityTable instances are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate as _quadpack

from .errors import IntegrationError, ValidationError

__all__ = [
    "DensityTable",
    "build_inverse_cdf",
    "gauss_legendre_grid",
    "hermite_h",
    "integrate",
    "oscillator_density",
    "oscillator_mixture",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Magnitude/exponent splitting used by the weighted Hermite recurrence:
# a true value is mantissa * 1e-150**count with count >= 0, so deep-tail
# starting points (where exp(-t^2/2) underflows) still recover correct
# interior values.
_RESCALE = 1e-150
_RESCALE_LN = math.log(1e150)
_MANT_HIGH = 1e140


def hermite_h(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence.

    H_{k+1} = 2 x H_k - 2 k H_{k-1}.  The raw polynomial overflows to inf
    for large n and |x|; use :func:`oscillator_density` when the Gaussian
    weight is meant to tame the growth.
    """
    if n < 0:
        raise ValidationError(f"hermite_h: order must be >= 0 (got {n})")
    if n == 0:
        return 1.0
    h_prev, h_cur = 1.0, 2.0 * x
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
    return h_cur


def _hermite_scaled(n: int, x: float) -> tuple[float, float]:
    """Return (mantissa, ln_scale) with H_n(x) = mantissa * exp(ln_scale)."""
    if n == 0:
        return 1.0, 0.0
    h_prev, h_cur, ln_scale = 1.0, 2.0 * x, 0.0
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
        if abs(h_cur) > 1e250:
            h_prev *= 1e-250
            h_cur *= 1e-250
            ln_scale += math.log(1e250)
    return h_cur, ln_scale


def _count_factor(count: np.ndarray) -> np.ndarray:
    # 1e-150**count as a float, exact for the three representable cases
    factor = np.zeros(count.shape)
    factor[count == 0] = 1.0
    factor[count == 1] = 1e-150
    factor[count == 2] = 1e-300
    return factor


def _weighted_hermite_sq(t: np.ndarray, n_top: int, weights=None) -> np.ndarray:
    """Evaluate weight-absorbed squared Hermite functions.

    With ``g_k(t)^2 = H_k(t)^2 exp(-t^2) / (2^k k!)``, returns either
    ``g_{n_top}(t)^2`` (weights None) or ``sum_k weights[k] g_k(t)^2``.
    Uses the normalised recurrence

        g_{k+1} = t sqrt(2/(k+1)) g_k - sqrt(k/(k+1)) g_{k-1},

    every intermediate staying within representable range for orders well
    beyond 1e4.
    """
    t = np.asarray(t, dtype=float)
    ln0 = -0.5 * t * t
    count = np.ceil(np.maximum(0.0, (-ln0 - 600.0) / _RESCALE_LN)).astype(np.int64)
    factor = _count_factor(count)
    mant_prev = np.exp(ln0 + count * _RESCALE_LN)  # g_0 mantissa
    acc = None
    if weights is not None:
        acc = weights[0] * np.square(mant_prev * factor)
    if n_top == 0 and weights is None:
        return np.square(mant_prev * factor)
    mant_cur = math.sqrt(2.0) * t * mant_prev  # g_1 mantissa
    if weights is not None and n_top >= 1 and weights[1] != 0.0:
        acc = acc + weights[1] * np.square(mant_cur * factor)
    for k in range(1, n_top):
        mant_prev, mant_cur = (
            mant_cur,
            t * math.sqrt(2.0 / (k + 1)) * mant_cur
            - math.sqrt(k / (k + 1)) * mant_prev,
        )
        big = (np.abs(mant_cur) > _MANT_HIGH) & (count > 0)
        if big.any():
            mant_cur = np.where(big, mant_cur * _RESCALE, mant_cur)
            mant_prev = np.where(big, mant_prev * _RESCALE, mant_prev)
            count = count - big
            factor = _count_factor(count)
        if weights is not None and weights[k + 1] != 0.0:
            acc = acc + weights[k + 1] * np.square(mant_cur * factor)
    if weights is not None:
        return acc
    return np.square(mant_cur * factor)


def oscillator_density(n: int, x):
    """Position density |<x|n>|^2 of a harmonic-oscillator number state.

    Equals sqrt(2/pi) exp(-2 x^2) H_n(sqrt(2) x)^2 / (2^n n!) in the
    quadrature convention with vacuum variance 1/4.  Accepts scalars or
    arrays; total function, no overflow for n up to at least 1e4.
    """
    if n < 0 or n != int(n):
        raise ValidationError(f"oscillator_density: order must be a nonnegative integer (got {n})")
    scalar = np.isscalar(x)
    t = math.sqrt(2.0) * np.asarray(x, dtype=float)
    out = _SQRT_2_OVER_PI * _weighted_hermite_sq(t, int(n))
    return float(out) if scalar else out


def oscillator_mixture(weights, x):
    """Mixture sum_k weights[k] * oscillator_density(k, x), evaluated in one
    pass of the normalised recurrence."""
    weights = np.asarray(weights, dtype=float)
    scalar = np.isscalar(x)
    t = math.sqrt(2.0) * np.asarray(x, dtype=float)
    out = _SQRT_2_OVER_PI * _weighted_hermite_sq(t, len(weights) - 1, weights)
    return float(out) if scalar else out


def integrate(f, lower: float, upper: float, tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [lower, upper].

    Semi-infinite and doubly infinite ranges are accepted; they are mapped
    to finite intervals by the library's algebraic transform.  Returns an
    estimate with absolute error <= tol on smooth integrands; raises
    IntegrationError (carrying the best estimate) when the refinement
    budget is exhausted without convergence.
    """
    if tol <= 0.0:
        raise ValidationError(f"integrate: tol must be positive (got {tol})")
    result = _quadpack.quad(
        f, lower, upper, epsabs=tol, epsrel=max(tol, 1e-12), limit=600, full_output=True
    )
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise IntegrationError(
            f"quadrature did not converge on [{lower}, {upper}]: {str(result[3]).strip()}",
            best_estimate=value,
        )
    if abserr > max(100.0 * tol, 1e-10 * max(1.0, abs(value))):
        raise IntegrationError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}",
            best_estimate=value,
        )
    return value


def gauss_legendre_grid(lower: float, upper: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre nodes/weights on [lower, upper].

    Returns flat (nodes, weights) arrays covering `panels` equal panels with
    an `order`-point rule each.
    """
    glx, glw = leggauss(order)
    edges = np.linspace(lower, upper, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * glx[None, :]).ravel()
    weights = (half[:, None] * glw[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class DensityTable:
    """Tabulated CDF supporting inverse-transform draws.

    grid    : strictly increasing abscissae
    cdf     : nondecreasing cumulative values, cdf[0] ~ 0 and cdf[-1] ~ 1
    domain  : (lower, upper) support bounds used at construction
    """

    grid: np.ndarray
    cdf: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if grid.ndim != 1 or grid.shape != cdf.shape or grid.size < 2:
            raise ValidationError("DensityTable: grid and cdf must be matching 1-d arrays")
        if not np.all(np.diff(grid) > 0.0):
            raise ValidationError("DensityTable: grid must be strictly increasing")
        if np.any(np.diff(cdf) < 0.0):
            raise ValidationError("DensityTable: cdf must be nondecreasing")
        if cdf[0] > 1e-12 or cdf[-1] < 1.0 - 1e-12:
            raise ValidationError("DensityTable: cdf must run from ~0 to ~1")
        grid.setflags(write=False)
        cdf.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)

    def sample(self, u):
        """Map uniform variates in [0, 1] through the inverse CDF."""
        return np.interp(u, self.cdf, self.grid)

    def cdf_at(self, x):
        """Tabulated CDF evaluated by linear interpolation."""
        return np.interp(x, self.grid, self.cdf, left=0.0, right=1.0)


def build_inverse_cdf(density, domain: tuple[float, float], tol: float = 1e-6) -> DensityTable:
    """Build an inverse-CDF table for a probability density on a finite domain.

    The density callable must accept ndarray input, be nonnegative, and
    integrate to 1 on the domain within tol.  Panels are refined adaptively
    (breadth-first Simpson refinement), which concentrates nodes near narrow
    or oscillatory lobes; the resulting linearly interpolated CDF tracks the
    true law to roughly Kolmogorov-Smirnov distance tol.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValidationError(f"build_inverse_cdf: bad domain ({lo}, {hi})")
    if tol <= 0.0:
        raise ValidationError(f"build_inverse_cdf: tol must be positive (got {tol})")

    width_total = hi - lo
    # an oscillatory density aliased on coarse panels fails only the mass check
    for initial in (64, 512, 4096, 32768):
        edges = np.linspace(lo, hi, initial + 1)
        pending = np.column_stack([edges[:-1], edges[1:]])
        accepted = []  # rows (a, m, b, mass_left, mass_right)
        total_panels = initial
        max_panels = 500_000
        rounds = 0

        while pending.size:
            rounds += 1
            if rounds > 60 or total_panels > max_panels:
                raise IntegrationError(
                    "build_inverse_cdf: refinement budget exhausted before reaching tolerance"
                )
            a, b = pending.T
            w = b - a
            # five Simpson nodes per panel, evaluated in one vector call
            nodes = a[:, None] + w[:, None] * np.array([0.0, 0.25, 0.5, 0.75, 1.0])[None, :]
            vals = np.asarray(density(nodes.ravel()), dtype=float).reshape(nodes.shape)
            if np.any(vals < -1e-9):
                raise ValidationError("build_inverse_cdf: density is negative on the domain")
            vals = np.maximum(vals, 0.0)
            f0, f1, f2, f3, f4 = vals.T
            simp = w / 6.0 * (f0 + 4.0 * f2 + f4)
            simp2_left = w / 12.0 * (f0 + 4.0 * f1 + f2)
            simp2_right = w / 12.0 * (f2 + 4.0 * f3 + f4)
            simp2 = simp2_left + simp2_right
            trap = w / 2.0 * (f0 + f4)
            quad_ok = np.abs(simp2 - simp) <= 15.0 * 0.2 * tol * np.maximum(w / width_total, 1e-9)
            interp_ok = np.abs(simp - trap) <= 0.5 * tol
            done = (quad_ok & interp_ok) | (w < 1e-12 * width_total)
            if done.any():
                accepted.append(
                    np.column_stack(
                        [a[done], 0.5 * (a + b)[done], b[done], simp2_left[done], simp2_right[done]]
                    )
                )
            if (~done).any():
                a_s, b_s = a[~done], b[~done]
                m_s = 0.5 * (a_s + b_s)
                pending = np.vstack(
                    [np.column_stack([a_s, m_s]), np.column_stack([m_s, b_s])]
                )
                total_panels += len(a_s)
            else:
                pending = np.empty((0, 2))

        rows = np.vstack(accepted)
        rows = rows[np.argsort(rows[:, 0])]
        grid = np.empty(2 * len(rows) + 1)
        grid[0] = rows[0, 0]
        grid[1::2] = rows[:, 1]
        grid[2::2] = rows[:, 2]
        masses = np.empty(2 * len(rows))
        masses[0::2] = rows[:, 3]
        masses[1::2] = rows[:, 4]
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        total = cdf[-1]
        if abs(total - 1.0) <= max(10.0 * tol, 1e-9):
            break
    else:
        raise ValidationError(
            f"build_inverse_cdf: density mass on domain is {total:.12g}, not 1 within tolerance"
        )
    cdf /= total
    cdf = np.maximum.accumulate(cdf)
    cdf[-1] = 1.0

    keep = np.concatenate([[True], np.diff(grid) > 0.0])
    return DensityTable(grid=grid[keep], cdf=cdf[keep], domain=(lo, hi))
