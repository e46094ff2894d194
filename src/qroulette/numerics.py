"""Special functions, adaptive quadrature, and inverse-CDF sampling tables.

Everything here is a pure function of its inputs; GuideTable and DensityTable
instances are immutable after construction and safe to share across workers.

scipy.integrate is imported by `integrate` on its first call, so a process
that never integrates does not load it.  The oscillator mixture has two paths
with the same bits: arrays run the rescaled Hermite recurrence as numpy
operations, and a single point, as adaptive quadrature asks for it, runs the
same operations in the same order on Python floats.  Each is one IEEE
operation that numpy rounds elementwise as Python does; the start value keeps
np.exp.  The point path skips the 8-10 numpy dispatches per order that
dominate the cost of one point.  Both take every step from one coefficient
table, after clamping the point to |t| <= 1e9, where every order's density is
exactly 0.0: a far or infinite point gives 0.0 with no overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IntegrationError, ValidationError

__all__ = [
    "DensityTable",
    "GuideTable",
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
# 1e-150**count as a float for count 0, 1, 2, exact; zero from 3 on
_COUNT_FACTORS = (1.0, _RESCALE, 1e-300, 0.0)
# points are clamped to |t| <= _T_FAR, where every order's term is 0.0, the
# rescale count fits in int64 and the exponent of g_0 rounds far from overflow
_T_FAR = 1e9

# guide cells per table node: a cell holds half a node on average
_GUIDE_CELLS_PER_NODE = 2
# nodes a point steps over in its guide cell before a binary search takes over
_GUIDE_STEPS = 4
# the left node of the segments beyond the table's ends: _FAR - u is nonzero and finite
_FAR = float(np.finfo(float).max)


def hermite_h(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence.

    H_{k+1} = 2 x H_k - 2 k H_{k-1}.  The raw polynomial overflows to inf
    for large n and |x|; use :func:`oscillator_density` when the Gaussian
    weight is meant to tame the growth.
    """
    if n < 0:
        raise ValidationError(f"hermite_h: order must be >= 0 (got {n})")
    h_prev, h_cur = 0.0, 1.0
    for k in range(n):
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


def _weighted_hermite_sq(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Evaluate a mixture of weight-absorbed squared Hermite functions.

    With ``g_k(t)^2 = H_k(t)^2 exp(-t^2) / (2^k k!)``, returns
    ``sum_k weights[k] g_k(t)^2``.  Uses the normalised recurrence

        g_{k+1} = t sqrt(2/(k+1)) g_k - sqrt(k/(k+1)) g_{k-1},   g_{-1} = 0,

    every intermediate staying within representable range for orders well
    beyond 1e4.

    A 0-d t runs on Python floats, bitwise as an array of one point.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return _weighted_hermite_sq_scalar(float(t), weights)
    t = np.clip(t, -_T_FAR, _T_FAR)
    ln0 = -0.5 * t * t
    count = np.ceil(np.maximum(0.0, (-ln0 - 600.0) / _RESCALE_LN)).astype(np.int64)
    factor = np.take(_COUNT_FACTORS, np.minimum(count, 3))
    mant_prev, mant_cur = 0.0, np.exp(ln0 + count * _RESCALE_LN)  # g_-1, g_0 mantissas
    acc = weights[0] * np.square(mant_cur * factor)
    for (step, damp), weight in zip(_recurrence_coefficients(len(weights)), weights[1:].tolist()):
        mant_prev, mant_cur = mant_cur, t * step * mant_cur - damp * mant_prev
        big = (np.abs(mant_cur) > _MANT_HIGH) & (count > 0)
        if big.any():
            mant_cur = np.where(big, mant_cur * _RESCALE, mant_cur)
            mant_prev = np.where(big, mant_prev * _RESCALE, mant_prev)
            count = count - big
            factor = np.take(_COUNT_FACTORS, np.minimum(count, 3))
        if weight != 0.0:
            acc = acc + weight * np.square(mant_cur * factor)
    return acc


@lru_cache(maxsize=16)
def _recurrence_coefficients(n_terms: int) -> tuple[tuple[float, float], ...]:
    """(sqrt(2/(k+1)), sqrt(k/(k+1))) for k = 0 .. n_terms - 2: the step to g_{k+1}."""
    return tuple((math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(n_terms - 1))


def _weighted_hermite_sq_scalar(t: float, weights: np.ndarray) -> np.float64:
    """_weighted_hermite_sq at one point, bitwise equal to the array path:
    the same IEEE operations in the same order, with g_0 from np.exp."""
    t = min(max(t, -_T_FAR), _T_FAR)
    ln0 = -0.5 * t * t
    count = math.ceil(max(0.0, (-ln0 - 600.0) / _RESCALE_LN))
    factor = _COUNT_FACTORS[min(count, 3)]
    w = weights.tolist()
    mant_prev, mant_cur = 0.0, float(np.exp(ln0 + count * _RESCALE_LN))
    scaled = mant_cur * factor
    acc = w[0] * (scaled * scaled)
    for (step, damp), weight in zip(_recurrence_coefficients(len(w)), w[1:]):
        mant_prev, mant_cur = mant_cur, t * step * mant_cur - damp * mant_prev
        if count > 0 and abs(mant_cur) > _MANT_HIGH:
            mant_cur *= _RESCALE
            mant_prev *= _RESCALE
            count -= 1
            factor = _COUNT_FACTORS[min(count, 3)]
        if weight != 0.0:
            scaled = mant_cur * factor
            acc = acc + weight * (scaled * scaled)
    return np.float64(acc)


def oscillator_density(n: int, x):
    """Position density |<x|n>|^2 of a harmonic-oscillator number state.

    Equals sqrt(2/pi) exp(-2 x^2) H_n(sqrt(2) x)^2 / (2^n n!) in the
    quadrature convention with vacuum variance 1/4.  Accepts scalars or
    arrays; total function, no overflow for n up to at least 1e4.
    """
    if n < 0 or n != int(n):
        raise ValidationError(f"oscillator_density: order must be a nonnegative integer (got {n})")
    weights = np.zeros(int(n) + 1)
    weights[-1] = 1.0
    return oscillator_mixture(weights, x)


def oscillator_mixture(weights, x):
    """Mixture sum_k weights[k] * oscillator_density(k, x), evaluated in one
    pass of the normalised recurrence."""
    weights = np.asarray(weights, dtype=float)
    scalar = np.isscalar(x)
    t = math.sqrt(2.0) * np.asarray(x, dtype=float)
    out = _SQRT_2_OVER_PI * _weighted_hermite_sq(t, weights)
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
    from scipy import integrate as _quadpack  # on first use: most runs never integrate

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


class GuideTable:
    """np.searchsorted(cdf, u, "right") for a fixed finite nondecreasing cdf, by
    a guide table (Chen & Asau, 1974; Devroye, 1986, section III.2.4).

    [0, 1] is cut into K = 2 len(cdf) equal cells.  A point u starts at the count
    of nodes in cells before its own, which never passes the answer because cells
    are a nondecreasing function of value, and steps over the nodes <= u left in
    its cell.  That takes O(1) steps in expectation; the few points still
    stepping after _GUIDE_STEPS steps, in cells holding many nodes, finish by
    binary search.
    """

    def __init__(self, cdf):
        cdf = np.asarray(cdf, dtype=float)
        self._cells = _GUIDE_CELLS_PER_NODE * len(cdf)
        # the node after each count; the sentinel stops a point at the last node
        self._next = np.append(cdf, np.inf)
        self._start = np.searchsorted(self._cell(cdf), np.arange(self._cells + 1))

    def _cell(self, u: np.ndarray) -> np.ndarray:
        scaled = u * self._cells
        np.clip(scaled, 0.0, self._cells, out=scaled)
        return scaled.astype(np.intp)

    def rank(self, u) -> np.ndarray:
        """Count of nodes <= u, for each finite point of u."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        count = self._start[self._cell(flat)]
        todo = np.flatnonzero(self._next[count] <= flat)
        for _ in range(_GUIDE_STEPS):
            if not todo.size:
                break
            count[todo] += 1
            todo = todo[self._next[count[todo]] <= flat[todo]]
        if todo.size:
            count[todo] = np.searchsorted(self._next[:-1], flat[todo], "right")
        return count.reshape(u.shape)


@dataclass(frozen=True)
class DensityTable:
    """Tabulated CDF supporting inverse-transform draws.

    grid    : strictly increasing finite abscissae
    cdf     : nondecreasing finite cumulative values, cdf[0] ~ 0 and cdf[-1] ~ 1
    domain  : (lower, upper) support bounds used at construction

    Draws find their segment through a GuideTable, built once here, and
    interpolate with the segment slopes np.interp uses, so that sample(u) is
    bitwise np.interp(u, cdf, grid) at O(1) expected cost per draw.
    """

    grid: np.ndarray
    cdf: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if grid.ndim != 1 or grid.shape != cdf.shape or grid.size < 2:
            raise ValidationError("DensityTable: grid and cdf must be matching 1-d arrays")
        if not (np.isfinite(grid).all() and np.isfinite(cdf).all()):
            raise ValidationError("DensityTable: grid and cdf must be finite")
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
        object.__setattr__(self, "_guide", GuideTable(cdf))
        # np.interp's slope d_grid / d_cdf of each segment; a steep segment,
        # whose quotient overflows or divides by zero, is nan
        d_grid, d_cdf = np.diff(grid), np.diff(cdf)
        with np.errstate(divide="ignore", over="ignore"):
            slopes = d_grid / d_cdf
        steep = ~np.isfinite(slopes)
        slopes[steep] = np.nan
        # no draw lands inside a zero-mass segment: its count includes both ends
        object.__setattr__(self, "_steep", bool(np.any(steep & (d_cdf > 0.0))))
        # by count k = j + 1 of nodes <= u: the segment's left node, its value
        # and its negated slope; outside the nodes the slope is 0 and the value
        # the end node's
        object.__setattr__(self, "_base", np.concatenate(([_FAR], cdf[:-1], [_FAR])))
        object.__setattr__(self, "_left", np.concatenate((grid[:1], grid)))
        object.__setattr__(self, "_fall", np.concatenate(([-0.0], -slopes, [-0.0])))

    def locate(self, u) -> np.ndarray:
        """Segment j with cdf[j] <= u < cdf[j + 1]: np.searchsorted(cdf, u, "right") - 1."""
        return self._guide.rank(u) - 1

    def sample(self, u):
        """Map uniform variates in [0, 1] through the inverse CDF, bitwise as
        np.interp(u, cdf, grid)."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        count = self._guide.rank(flat)
        # (-slope) * (base - u) is slope * (u - base) to the bit, and -0.0 at a
        # node, where adding it leaves the node's value as np.interp returns it
        rise = self._base[count]
        rise -= flat
        rise *= self._fall[count]
        out = self._left[count]
        out += rise
        if self._steep:
            # np.interp's slope overflowed there: the node's value at the node, inf inside
            odd = np.flatnonzero(np.isnan(out))
            at_node = flat[odd] == self._base[count[odd]]
            out[odd] = np.where(at_node, self._left[count[odd]], np.inf)
        return out.reshape(u.shape)[()]

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
