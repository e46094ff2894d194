"""Special functions, adaptive quadrature, and inverse-CDF sampling tables.

Everything here is a pure function of its inputs.  A DensityTable is the guide
table of its CDF; tables are immutable after construction, safe to share across
workers, and compare and hash by identity, like photon laws and roulette specs.
Nothing here needs scipy: `integrate` runs QUADPACK's Gauss-Kronrod rule on
whole arrays of nodes.  The normal distribution function `ndtr` is libm's erfc
(math.erfc), and the log-factorial table `log_factorials` ports the cephes
routine behind scipy.special.gammaln bit for bit with libm's log, because the
coherent photon-number law is pinned to scipy's Poisson pmf.  `poisson_tail`
sums a Poisson law over its window (`poisson_window`; Fox & Glynn, CACM 31
(1988) 440).  Sampling tables are built from a law's exact CDF alone; their
guide-table lookups give np.interp's and searchsorted's answers for every float.

The oscillator mixture is one rescaled Hermite recurrence over all points at
once, run to the last nonzero weight; a single point runs it as a 0-d array, so
it has the bits of the same point in any array.  Points are clamped to
|t| <= 1e9, where every order's density is 0.0.  The same pass sums the CDF's
ladder terms from its two rows, to the last nonzero weight or link.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import IntegrationError, ValidationError, check_int, check_point, check_real

__all__ = [
    "DensityTable",
    "GuideTable",
    "build_inverse_cdf",
    "gauss_legendre_grid",
    "hermite_h",
    "integrate",
    "log_factorials",
    "ndtr",
    "oscillator_density",
    "oscillator_mixture",
    "oscillator_mixture_cdf",
    "poisson_tail",
    "poisson_window",
]

_SQRT_2 = math.sqrt(2.0)
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

# guide cells per table node: a cell holds an eighth of a node on average
_GUIDE_CELLS_PER_NODE = 8

# a table panel's ends and its check points, the golden sections: no period of
# an oscillating law puts both check points on its own phase at the left end
_PANEL_POINTS = np.array([0.0, (3.0 - math.sqrt(5.0)) / 2.0, (math.sqrt(5.0) - 1.0) / 2.0, 1.0])
# table panels one build may hold
_MAX_PANELS = 500_000

# QUADPACK's qk21 on [-1, 1] from 1 down to 0: Kronrod nodes and weights, Gauss weights
_QK21_HALF = np.array([
    (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
     0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
     0.2943928627014602, 0.14887433898163122, 0.0),
    (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
     0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
     0.14277593857706009, 0.14773910490133849, 0.1494455540029169),
    (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
     0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0),
])
_QK21 = (_QK21_HALF[:, :-1] * [[-1.0], [1.0], [1.0]], _QK21_HALF[:, ::-1])
_KRONROD_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS = np.concatenate(_QK21, axis=1)

# ln n! is tabulated for n < 5400, past every photon-number window and every
# Poisson tail's (the widest ends at 5327.9); a longer request builds a longer table
_LOG_FACTORIALS = 5400
# cephes lgam: log sqrt(2 pi) and the Stirling series in 1/x^2 below x = 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# and its three terms from x = 1000
_STIRLING_FAR = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)

def _lgam(x: float) -> float:
    """cephes lgam (scipy.special.gammaln) at an integer-valued x >= 1, on
    Python floats: the log of the exact product (x - 1)! below 13, Stirling's
    series above."""
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    coefficients = _STIRLING_FAR if x >= 1000.0 else _STIRLING
    series = coefficients[0]
    for c in coefficients[1:]:  # cephes polevl: Horner's rule, highest power first
        series = series * p + c
    return q + series / x


@lru_cache(maxsize=2)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([_lgam(n + 1.0) for n in range(size)])
    table.setflags(write=False)
    return table


def log_factorials(count: int) -> np.ndarray:
    """ln n! for n = 0 .. count - 1, bit for bit scipy.special.gammaln(n + 1).

    A read-only view of one cached table, built once with libm's log.
    """
    return _log_factorial_table(max(count, _LOG_FACTORIALS))[:count]


def poisson_window(v: float) -> tuple[float, float]:
    """Fox & Glynn's window (v - 10 sqrt(v) - 40, v + 10 sqrt(v) + 40) of Poisson(v)."""
    spread = 10.0 * math.sqrt(v)
    return v - spread - 40.0, v + spread + 40.0


def poisson_tail(mu: float, k: int) -> float:
    """P(N >= k) for N ~ Poisson(mu), summing the terms e^(n ln mu - mu - ln n!):
    from k to the top of the window of k where k > mu, else 1 minus those from
    the bottom of the window of mu to k - 1 (none where it lies above k, mu = inf
    included).  Within 2**-52 (k |ln mu| + mu + ln k! + 1) relative."""
    if k <= 0 or mu == 0.0:
        return float(k <= 0)
    if k > mu:
        first, stop = k, int(poisson_window(k)[1]) + 1
    else:
        low = poisson_window(mu)[0]
        if not low < k:
            return 1.0
        first, stop = max(int(low), 0), k
    n = np.arange(first, stop)
    mass = float(np.exp(n * math.log(mu) - mu - log_factorials(stop)[first:]).sum())
    return mass if k > mu else 1.0 - mass


def ndtr(a):
    """Standard normal distribution function, erfc(-a / sqrt(2)) / 2 point by
    point in libm (math.erfc).

    The error is within 2**-52 absolute and (a**2 + 2) 2**-52 relative, the
    a**2 from rounding a / sqrt(2) where the tail decays as exp(-a**2 / 2).
    NaN in, NaN out; a scalar gives a 0-d result.
    """
    a = np.asarray(a, dtype=float)
    values = [0.5 * math.erfc(-v / _SQRT_2) for v in a.reshape(-1).tolist()]
    return np.array(values).reshape(a.shape)[()]


def hermite_h(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence.

    H_{k+1} = 2 x H_k - 2 k H_{k-1}, rescaled as it runs: a value past the float
    range is inf with the sign of H_n(x), never NaN.  x is a real number: at +-inf
    H_n is its limit, and at NaN from order 1 NaN.  Use :func:`oscillator_density`
    when the Gaussian weight is meant to tame the growth.
    """
    n, x = check_int(n, "hermite_h: order", 0, math.inf), check_point(x, "hermite_h: x", nan=True)
    if math.isinf(x):
        return x**n  # the limit, where the recurrence would take inf - inf
    mant, ln_scale = _hermite_scaled(n, x)
    for _ in range(round(ln_scale / math.log(1e250))):  # undo each rescale by 1e-250
        mant *= 1e250  # inf with the sign of H_n once past the float range
    return mant


def _hermite_scaled(n: int, x: float) -> tuple[float, float]:
    """Return (mantissa, ln_scale) with H_n(x) = mantissa * exp(ln_scale), x finite."""
    h_prev, h_cur, ln_scale = 0.0, 1.0, 0.0
    # rescaled before each step until |x h_k| and k |h_{k-1}| are <= 1e300: nothing overflows
    limit = 1e300 / max(abs(x), n, 1.0)
    for k in range(n):
        while abs(h_cur) > limit:
            h_prev *= 1e-250
            h_cur *= 1e-250
            ln_scale += math.log(1e250)
        h_prev, h_cur = h_cur, 2.0 * (x * h_cur) - 2.0 * k * h_prev
    return h_cur, ln_scale


def _weighted_hermite_sq(t: np.ndarray, weights: np.ndarray, ladder=None):
    """Evaluate a mixture of weight-absorbed squared Hermite functions.

    With ``g_k(t)^2 = H_k(t)^2 exp(-t^2) / (2^k k!)``, returns
    ``sum_k weights[k] g_k(t)^2`` by the normalised recurrence

        g_{k+1} = t sqrt(2/(k+1)) g_k - sqrt(k/(k+1)) g_{k-1},   g_{-1} = 0,

    whose intermediates stay representable for orders well beyond 1e4.  Given
    ``ladder``, as long as weights, the same pass also returns
    ``sum_{k>=1} ladder[k] g_k g_{k-1}`` from its two rows, leaving the first
    sum's bits alone.  It stops at the last nonzero weight or link.
    """
    t = np.asarray(t, dtype=float)
    shape, t = t.shape, np.clip(t, -_T_FAR, _T_FAR).reshape(-1)
    ln0 = -0.5 * t * t
    count = np.ceil(np.fmax(0.0, (-ln0 - 600.0) / _RESCALE_LN)).astype(np.int64)  # 0 at NaN
    factor = np.take(_COUNT_FACTORS, np.minimum(count, 3))
    mant_prev, mant_cur = np.zeros_like(t), np.exp(ln0 + count * _RESCALE_LN)  # g_-1, g_0
    acc = weights[0] * np.square(mant_cur * factor)
    # A point's pair terms count once it has no rescale left: before, its g are
    # below 1e-10, so the terms dropped are under 1e-20 and none is subnormal.
    # With count 0 everywhere, every factor is 1.0 and no rescale can come.
    settled, rescaling = factor == 1.0, bool(count.any())
    term, pairs = np.empty_like(t), np.zeros_like(t)
    used = weights if ladder is None else (weights != 0) | (ladder != 0)
    stop = 1 + int(np.flatnonzero(used).max(initial=0))  # later terms are 0.0
    links = [None] * (stop - 1) if ladder is None else ladder[1:stop].tolist()
    for (step, damp), weight, link in zip(
        _recurrence_coefficients(stop), weights[1:stop].tolist(), links
    ):
        np.multiply(t, step, out=term)
        term *= mant_cur
        mant_prev *= damp
        mant_prev, mant_cur = mant_cur, np.subtract(term, mant_prev, out=mant_prev)
        if link is not None:
            np.multiply(mant_cur, mant_prev, out=term)
            if rescaling:
                term *= settled
            term *= link
            pairs += term
        # only a point with count > 0 passes _MANT_HIGH: at count 0 its
        # mantissa is g_k, and |g_k| <= 1.09 (Cramer's bound)
        if rescaling and np.abs(mant_cur, out=term).max(initial=0.0) > _MANT_HIGH:
            big = (term > _MANT_HIGH).nonzero()[0]
            mant_cur[big] *= _RESCALE
            mant_prev[big] *= _RESCALE
            count[big] -= 1
            factor[big] = np.take(_COUNT_FACTORS, np.minimum(count[big], 3))
            settled[big] = factor[big] == 1.0
        if weight != 0.0:
            acc += weight * np.square(mant_cur * factor if rescaling else mant_cur)
    return acc.reshape(shape)[()] if ladder is None else (acc.reshape(shape), pairs.reshape(shape))


@lru_cache(maxsize=16)
def _recurrence_coefficients(n_terms: int) -> tuple[tuple[float, float], ...]:
    """(sqrt(2/(k+1)), sqrt(k/(k+1))) for k = 0 .. n_terms - 2: the step to g_{k+1}."""
    return tuple((math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(n_terms - 1))


def oscillator_density(n: int, x):
    """Position density |<x|n>|^2 of a harmonic-oscillator number state.

    Equals sqrt(2/pi) exp(-2 x^2) H_n(sqrt(2) x)^2 / (2^n n!) in the
    quadrature convention with vacuum variance 1/4.  Accepts scalars or
    arrays; total function, no overflow for n up to at least 1e4.
    """
    weights = np.zeros(check_int(n, "oscillator_density: order", 0, math.inf) + 1)
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


def oscillator_mixture_cdf(weights, x):
    """Distribution function of oscillator_mixture(weights, .), in closed form:
    for Hermite functions psi_k at t = sqrt(2) x, d/dt[psi_k psi_{k-1}] =
    sqrt(2k) (psi_{k-1}^2 - psi_k^2) (DLMF 18.9), so the CDF is T_0 Phi(2 x) -
    sum_{k>=1} T_k psi_k psi_{k-1} / sqrt(2k), with T_k = sum_{n>=k} weights[n].
    """
    weights = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    tails = np.cumsum(weights[::-1])[::-1]
    ladder = tails / np.sqrt(2.0 * math.pi * np.maximum(np.arange(len(tails)), 1))  # k >= 1 used
    # zero weights: the pass sums the pair terms alone
    _, pairs = _weighted_hermite_sq(math.sqrt(2.0) * x, np.zeros_like(weights), ladder)
    return tails[0] * ndtr(2.0 * x) - pairs


def _on_unit_interval(f, lower: float, upper: float):
    """g on (0, 1) integrating as f over [lower, upper], by x = a + (b - a) u^2 (3 - 2 u),
    a + s^2, b - s^2 or +-s^2 with s = (1 - t) / t: smooth at an inverse square root at
    an end.  f gets 1-d arrays until a TypeError, ValueError or other shape, then floats."""
    whole = True

    def values(x: np.ndarray) -> np.ndarray:
        nonlocal whole
        try:
            y = np.asarray(f(x), dtype=float) if whole else None
        except (TypeError, ValueError):
            y = None
        whole = y is not None and y.shape == x.shape
        return y if whole else np.array([float(f(point)) for point in x.tolist()])

    if math.isfinite(lower) and math.isfinite(upper):
        width = upper - lower
        return lambda u: values(lower + width * u * u * (3 - 2 * u)) * (6 * width * u * (1 - u))
    end = lower if math.isfinite(lower) else upper if math.isfinite(upper) else 0.0
    sides = [1.0] if math.isfinite(lower) else [-1.0] if math.isfinite(upper) else [1.0, -1.0]

    def g(t):
        s = (1.0 - t) / t
        y = values(np.concatenate([end + side * (s * s) for side in sides]))
        return y.reshape(len(sides), -1).sum(axis=0) * (2.0 * s / (t * t))

    return g


def integrate(f, lower: float, upper: float, tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [lower, upper], either end possibly infinite,
    by QUADPACK's 21-point Gauss-Kronrod rule and error estimate, in numpy.

    The range maps onto 16 equal panels of (0, 1).  A round evaluates the nodes of
    every new panel in one call of f, then bisects the panels of largest error
    until those left whole hold at most half the bound max(tol, max(tol, 1e-12) |I|)
    on the summed estimate.  IntegrationError, carrying the estimate, follows past
    600 panels, and at a NaN or infinite value of f.  tol must be a finite real > 0,
    and each end a real number or +-inf."""
    lower, upper = check_point(lower, "integrate: lower"), check_point(upper, "integrate: upper")
    tol = check_real(tol, "integrate: tol", 5e-324, math.inf)
    if lower >= upper:
        return -integrate(f, upper, lower, tol) if lower > upper else 0.0
    g = _on_unit_interval(f, lower, upper)
    a, b = np.arange(16.0) / 16.0, np.arange(1.0, 17.0) / 16.0  # the panels to evaluate
    kept = [np.empty(0)] * 4  # the panels left whole: ends, Kronrod sums, errors
    while True:
        half = 0.5 * (b - a)
        with np.errstate(all="ignore"):
            y = g((a + half + half * _KRONROD_NODES[:, None]).T.ravel()).reshape(a.size, -1)
            if not np.isfinite(y).all():
                raise IntegrationError(f"integrate: f not finite at a node in [{lower}, {upper}]")
            kronrod = y @ _KRONROD_WEIGHTS
            spread = np.abs(y - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS
            error = spread * np.fmin(1, (200 * abs(kronrod - y @ _GAUSS_WEIGHTS) / spread) ** 1.5)
        error = np.maximum(error, 50.0 * np.finfo(float).eps * (np.abs(y) @ _KRONROD_WEIGHTS))
        a, b, values, errors = map(np.concatenate, zip(kept, (a, b, kronrod * half, error * half)))
        total = float(values.sum())
        bound = max(tol, max(tol, 1e-12) * abs(total))
        if errors.sum() <= bound:
            return total
        order = np.argsort(errors)
        stays = np.cumsum(errors[order]) <= 0.5 * bound
        keep, split = order[stays], order[~stays]
        if a.size + split.size > 600:
            raise IntegrationError(f"integrate: 600 panels miss tol on [{lower}, {upper}]", total)
        kept = [column[keep] for column in (a, b, values, errors)]
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))


@lru_cache(maxsize=8)
def _gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(order) once per order, as read-only arrays."""
    from numpy.polynomial.legendre import leggauss  # on first use: no package code calls it

    glx, glw = leggauss(order)
    glx.flags.writeable = glw.flags.writeable = False
    return glx, glw


def gauss_legendre_grid(lower: float, upper: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre nodes/weights on [lower, upper]: flat arrays
    covering `panels` equal panels with an `order`-point rule each."""
    glx, glw = _gauss_legendre_rule(order)
    edges = np.linspace(lower, upper, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * glx).ravel(), (half * glw).ravel()


class GuideTable:
    """np.searchsorted(cdf, u, "right") for a fixed finite nondecreasing cdf, by
    a guide table (Chen & Asau, 1974; Devroye, 1986, section III.2.4).

    [0, 1] is cut into K = 8 len(cdf) equal cells, each storing the count of
    nodes in cells before it, or -1 - that count if a node lies inside it.  A
    point is clamped to the nodes' range, which keeps its count; in a node-free
    cell it has its count from that one gather, as about 89 % of uniform points
    on the Monte Carlo tables do.  The rest start at the count before their
    cell, which never passes the answer because cells are a nondecreasing
    function of value, and step over the cell's first node if it is <= u; the
    few with more nodes <= u ahead finish by binary search.  One node array, the
    cdf between two sentinels, and the guide take about 72 bytes per node.
    """

    def __init__(self, cdf):
        cdf = np.asarray(cdf, dtype=float)
        self._cells = _GUIDE_CELLS_PER_NODE * len(cdf)
        # points clamped to [min(0, just below the first node), the last node];
        # cells span [0, 1], or [-r, r] for a cdf reaching past it, so indices fit intp
        self._lo, self._hi = min(float(np.nextafter(cdf[0], -np.inf)), 0.0), float(cdf[-1])
        self._scale = self._cells / max(self._hi, -self._lo, 1.0)
        # by count k of nodes <= u: the node before, _nodes[k], and after, _nodes[k + 1];
        # the first node stands again before itself, and inf stops a point at the last
        self._nodes = np.concatenate((cdf[:1], cdf, [np.inf]))
        self._nodes.setflags(write=False)
        node_cells = np.clip((cdf * self._scale).astype(np.intp), 0, self._cells)
        inside = np.bincount(node_cells, minlength=self._cells + 1)
        before = np.cumsum(inside) - inside
        self._guide = np.where(inside > 0, ~before, before)
        self._guide.setflags(write=False)

    def _lookup(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(count of nodes <= u, u clamped to the nodes' range) for a flat u."""
        t = np.clip(u, self._lo, self._hi)
        with np.errstate(invalid="ignore"):  # a NaN point's cell: any, clipped by the gather
            cell = (t * self._scale).astype(np.intp)
        count = self._guide.take(cell, mode="clip")
        # the points in cells that hold a node, from the count before their cell
        held = np.flatnonzero(count < 0)
        start, point, after = ~count[held], t[held], self._nodes[1:]
        start += after[start] <= point
        late = np.flatnonzero(after[start] <= point)
        start[late] = np.searchsorted(self.cdf, point[late], "right")
        count[held] = start
        return count, t

    def __setstate__(self, state):
        # numpy pickles no read-only flag: a worker's copy is frozen again
        self.__dict__.update(state)
        for array in (value for value in state.values() if isinstance(value, np.ndarray)):
            array.setflags(write=False)

    @property
    def cdf(self) -> np.ndarray:
        """The nodes, a read-only view."""
        return self._nodes[1:-1]

    def rank(self, u) -> np.ndarray:
        """Count of nodes <= u, for each point of u but NaN."""
        u = np.asarray(u, dtype=float)
        return self._lookup(u.reshape(-1))[0].reshape(u.shape)


class DensityTable(GuideTable):
    """The guide table of a tabulated CDF, with inverse-transform draws.

    grid    : strictly increasing finite abscissae
    cdf     : nondecreasing finite cumulative values, from 0 to 1 within 1e-12
    domain  : (lower, upper) support bounds used at construction

    Draws find their segment through the guide and interpolate with the
    segment slopes np.interp uses, so that sample(u) is bitwise
    np.interp(u, cdf, grid) at O(1) expected cost per draw.  grid and cdf are
    read-only views of the table's own copies; it takes about 88 bytes per node.
    """

    def __init__(self, grid, cdf, domain: tuple[float, float]):
        grid = np.asarray(grid, dtype=float)
        cdf = np.asarray(cdf, dtype=float)
        if grid.ndim != 1 or grid.shape != cdf.shape or grid.size < 2:
            raise ValidationError("DensityTable: grid and cdf must be matching 1-d arrays")
        if not (np.isfinite(grid).all() and np.isfinite(cdf).all()):
            raise ValidationError("DensityTable: grid and cdf must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise ValidationError("DensityTable: grid must be strictly increasing")
        if np.any(np.diff(cdf) < 0.0):
            raise ValidationError("DensityTable: cdf must be nondecreasing")
        if abs(cdf[0]) > 1e-12 or abs(cdf[-1] - 1.0) > 1e-12:
            raise ValidationError("DensityTable: cdf must run from ~0 to ~1")
        super().__init__(cdf)
        self.domain = domain
        # np.interp's slope d_grid / d_cdf of each segment; a steep segment,
        # whose quotient overflows or divides by zero, is nan
        d_grid, d_cdf = np.diff(grid), np.diff(cdf)
        with np.errstate(divide="ignore", over="ignore"):
            slopes = d_grid / d_cdf
        steep = ~np.isfinite(slopes)
        slopes[steep] = np.nan
        # no draw lands inside a zero-mass segment: its count includes both ends
        self._steep = bool(np.any(steep & (d_cdf > 0.0)))
        # by count k = j + 1 of nodes <= u: the segment's left node _nodes[k], its
        # value and its negated slope; outside the nodes the slope is 0 and the
        # value the end node's
        self._left = np.concatenate((grid[:1], grid))
        self._left.setflags(write=False)
        self._fall = np.concatenate(([-0.0], -slopes, [-0.0]))
        self._fall.setflags(write=False)

    @property
    def grid(self) -> np.ndarray:
        """The abscissae, a read-only view."""
        return self._left[1:]

    def locate(self, u) -> np.ndarray:
        """Segment j with cdf[j] <= u < cdf[j + 1]: np.searchsorted(cdf, u, "right") - 1."""
        return self.rank(u) - 1

    def sample(self, u):
        """Map uniform variates in [0, 1] through the inverse CDF, bitwise as
        np.interp(u, cdf, grid) for every float u."""
        u = np.asarray(u, dtype=float)
        count, t = self._lookup(u.reshape(-1))
        # (-slope) * (base - t) is slope * (t - base) to the bit, and -0.0 where
        # base >= t, at a node or an end: adding it leaves the node's value as np.interp does
        rise = self._nodes.take(count)
        rise -= t
        rise *= self._fall.take(count)
        out = self._left.take(count)
        out += rise
        if self._steep:
            # np.interp's slope overflowed there: the node's value at the node, inf inside
            odd = np.flatnonzero(np.isnan(out))
            at_node = t[odd] == self._nodes[count[odd]]
            out[odd] = np.where(at_node, self._left[count[odd]], t[odd] + np.inf)  # NaN stays
        return out.reshape(u.shape)[()]

    def cdf_at(self, x):
        """Tabulated CDF evaluated by linear interpolation."""
        return np.interp(x, self.grid, self.cdf, left=0.0, right=1.0)


def build_inverse_cdf(
    cdf, domain: tuple[float, float], tol: float = 1e-6, *, panels: int = 64
) -> DensityTable:
    """Inverse-CDF table of a law on a finite domain, from its exact CDF.

    cdf evaluates the distribution function on arrays; it must rise by 1 over
    the domain within tol, a falling step counting as 0.  The domain starts as
    `panels` equal panels.  A panel is split at its check points, the golden
    sections, until linear interpolation between its ends matches the CDF there
    to within tol / 2, so the table tracks the law to about Kolmogorov-Smirnov
    distance tol.  Split panels keep their end values: a round evaluates the CDF
    at new check points only.
    """
    lo = check_real(domain[0], "build_inverse_cdf: domain start", -math.inf, math.inf)
    hi = check_real(
        domain[1], "build_inverse_cdf: domain end", math.nextafter(lo, math.inf), math.inf
    )
    tol = check_real(tol, "build_inverse_cdf: tol", 5e-324, math.inf)
    panels = check_int(panels, "build_inverse_cdf: panels", 1, math.inf)
    edges = np.linspace(lo, hi, panels + 1)
    ends = np.asarray(cdf(edges), dtype=float)
    a, b, at_a, at_b = edges[:-1], edges[1:], ends[:-1], ends[1:]
    lefts, leaf_masses = [], []
    while a.size:
        if sum(map(len, lefts)) + a.size > _MAX_PANELS:
            raise IntegrationError(f"build_inverse_cdf: tol not met within {_MAX_PANELS} panels")
        # each row: a panel's ends and its check points in between, and the CDF there
        points = a[:, None] + (b - a)[:, None] * _PANEL_POINTS
        points[:, -1] = b
        inner = np.asarray(cdf(points[:, 1:3].ravel()), dtype=float).reshape(-1, 2)
        values = np.column_stack([at_a, inner, at_b])
        parts = np.maximum(np.diff(values, axis=1), 0.0)
        whole = parts.sum(axis=1)
        miss = np.cumsum(parts[:, :2], axis=1) - whole[:, None] * _PANEL_POINTS[1:3]
        done = (np.abs(miss).max(axis=1) <= 0.5 * tol) | (b - a < 1e-12 * (hi - lo))
        lefts.append(a[done])
        leaf_masses.append(whole[done])
        points, values = points[~done], values[~done]
        a, b = points[:, :-1].T.ravel(), points[:, 1:].T.ravel()
        at_a, at_b = values[:, :-1].T.ravel(), values[:, 1:].T.ravel()
    lefts = np.concatenate(lefts)
    order = np.argsort(lefts)
    total = np.concatenate([[0.0], np.cumsum(np.concatenate(leaf_masses)[order])])
    if abs(total[-1] - 1.0) > max(10.0 * tol, 1e-9):
        raise ValidationError(
            f"build_inverse_cdf: the CDF rises by {total[-1]:.12g} over the domain, not 1"
        )
    return DensityTable(grid=np.append(lefts[order], hi), cdf=total / total[-1], domain=(lo, hi))

