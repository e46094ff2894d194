"""Seeded Monte Carlo simulation of the three detection schemes.

A run is four stages, each a function whose work is done once per run:

- the law (`_run_law`), one per (state, scheme, eta), built in the calling
  process before any worker starts and the only thing the chunk kernels take;
  a process keeps up to LAW_CACHE_BYTES of their tables, least recently used
  out first.  Efficiency eta enters only through its exact `pom` law: the
  inverse-CDF table of the roulette's |x| or of heterodyne's v = eta I + 1, or
  the guide table (`numerics.GuideTable`; Devroye, 1986, section III.2.4) of
  the thinned photon-number law.  It maps uniforms to outcomes in place,
  bitwise np.interp on the table or Generator.choice on the pmf;
- the bins (`_histogram_bins`), from the law before any draw, after a check
  that fails a run whose n_samples times the exact outcome variance overflows:
  equal-width Freedman-Diaconis bins (Freedman & Diaconis, 1981) spanning the
  quantiles eps .. 1 - eps, eps = 0.1 / n_samples; direct-detection bins are
  whole steps of the 1/eta lattice;
- the rows (`_rows`), one per fixed-size chunk of draws with its own random
  stream from (seed, scheme, chunk index), in chunk order from this process or
  a pool: workers only decide where a chunk is drawn, so a run is bit for bit
  the same for any worker count.  A chunk is reduced where it is drawn to its
  count, mean, sum of squared deviations and bin counts (the end bins take the
  outcomes beyond them).  A run in one process yields each row as it is drawn,
  so it holds one row of 3 + bins floats whatever n_samples is; a pool process
  returns the rows of its range of chunks together;
- the fold (`_summarize`), merging rows as they arrive (Chan, Golub & LeVeque, 1979).

A chunk holds one chunk-size array: its uniforms are mapped to outcomes in
place and binned in blocks of BLOCK_SIZE points, whose temporaries stay in
cache.  Every step is elementwise or the same full-array sum, so the rows are
bit for bit those of the whole-array arithmetic.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from functools import partial, wraps

import numpy as np

from .errors import NumericalError, ValidationError, check_int
from .noise import (
    NoiseReport,
    direct_variance,
    heterodyne_variance,
    noise_report,
    roulette_variance,
)
from .numerics import GuideTable, build_inverse_cdf, poisson_window
from .pom import (
    SCHEMES,
    DetectorConfig,
    direct_detection_pmf,
    heterodyne_cdf_v,
    roulette_cdf_abs_x,
)
from .states import StateSpec, exact_moments, photon_distribution

__all__ = [
    "ExperimentConfig",
    "SampleSummary",
    "run_comparison",
    "run_sampling",
    "sample_direct",
    "sample_heterodyne",
    "sample_roulette",
]

CHUNK_SIZE = 1 << 17
# the points a chunk maps and bins at a time: its temporaries (128 KB each) stay
# in cache and in the allocator's heap, where chunk-size ones go back to the kernel
BLOCK_SIZE = 1 << 14
# the draws of one run: the chunk rows count them in float64, exactly up to 2**53
MAX_SAMPLES = 1 << 53
MAX_HISTOGRAM_BINS = 512
# the table bytes of the run laws a process keeps: 15 times the 72 laws of the
# validation matrix (4.46 MB), or 19 of the largest, Fock 4096 roulette (3.41 MB)
LAW_CACHE_BYTES = 64 << 20
# Generator.choice's tolerance on the sum of p
_PMF_ATOL = math.sqrt(np.finfo(float).eps)
_SCHEME_INDEX = {scheme: i for i, scheme in enumerate(SCHEMES)}
_OUTCOME_VARIANCE = {
    "roulette": roulette_variance,
    "heterodyne": heterodyne_variance,
    "direct": direct_variance,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible sampling run."""

    state: StateSpec
    detector: DetectorConfig
    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        bounds = (("n_samples", 1, MAX_SAMPLES), ("workers", 1, math.inf), ("seed", 0, 2**64 - 1))
        for name, low, high in bounds:  # stored as ints: a seed of 1.0 is recorded as 1
            object.__setattr__(self, name, check_int(getattr(self, name), name, low, high))


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of one sampling run, histogram included."""

    scheme: str
    eta: float
    state: str
    n_samples: int
    seed: int
    workers: int
    mean: float
    sample_variance: float
    standard_error: float
    bin_centers: tuple[float, ...]
    bin_counts: tuple[int, ...]

    @property
    def histogram(self) -> list[tuple[float, int]]:
        return list(zip(self.bin_centers, self.bin_counts))

    def to_dict(self) -> dict:
        """JSON-ready payload, without `workers`: results do not depend on the
        worker count, so the serialised summary must not either."""
        payload = asdict(self)
        del payload["workers"], payload["bin_centers"], payload["bin_counts"]
        return payload | {"histogram": [[center, count] for center, count in self.histogram]}


@dataclass(frozen=True)
class _RunLaw:
    """The law one run draws from: the scheme, eta and the table a uniform is
    looked up in.  That table is the inverse-CDF table of |x| for the roulette
    (2 x^2 - 1/(2 eta) depends on |x| alone) or of v = eta I + 1 for heterodyne,
    and for direct detection the guide table of the thinned pmf's choice cdf."""

    scheme: str
    eta: float
    table: GuideTable

    def outcomes(self, u: np.ndarray) -> np.ndarray:
        """Map a flat u in [0, 1] to outcomes in place and return u: m/eta, (v - 1)/eta,
        or 2 |x|^2 - 1/(2 eta) in estimators.intensity_estimator's order, to the bit.
        The table's lookup takes u unclamped, as rank and sample would leave it: every
        run law's table runs from a guard <= 0 to exactly 1.0, its cdf divided by its end."""
        if self.scheme == "direct":
            return np.divide(self.table._lookup(u), self.eta, out=u)
        q = self.table._interp(u)
        if self.scheme == "roulette":
            return np.subtract(np.multiply(np.multiply(q, 2.0, u), q, u), 0.5 / self.eta, u)
        return np.divide(np.subtract(q, 1.0, u), self.eta, u)


def _law_cache(build):
    """build, cached as by functools.lru_cache but bounded by the bytes of the
    tables held, not their count: a new law evicts the least recently used ones
    until the laws held fit in LAW_CACHE_BYTES, and is kept itself however large."""
    laws = OrderedDict()

    def held() -> int:
        return sum(law.table.nbytes for law in laws.values())

    @wraps(build)
    def cached(*key):
        if key not in laws:
            laws[key] = build(*key)
            while held() > LAW_CACHE_BYTES and len(laws) > 1:
                laws.popitem(last=False)
        laws.move_to_end(key)
        return laws[key]

    cached.cache_clear, cached.cache_bytes = laws.clear, held
    return cached


@_law_cache
def _run_law(spec: StateSpec, scheme: str, eta: float) -> _RunLaw:
    """The run law of (state, scheme, eta), its table built from the exact law;
    it serves both draws and bins."""
    stats = photon_distribution(spec)
    if scheme == "direct":
        table = GuideTable(_choice_cdf(direct_detection_pmf(stats, eta)))
    elif scheme == "roulette":
        limit = (math.sqrt((2.0 * stats.n_max + 1.0) / 2.0) + 8.0) / math.sqrt(eta)
        # seeded with two panels per order: a few per lobe of the density
        cdf = partial(roulette_cdf_abs_x, stats, eta=eta)
        table = build_inverse_cdf(cdf, (0.0, limit), 1e-6, panels=2 * (stats.n_max + 1))
    else:
        # up to the top of the window of the mean len(rho), past every order
        cdf = partial(heterodyne_cdf_v, stats, eta=eta)
        table = build_inverse_cdf(cdf, (0.0, poisson_window(len(stats.rho))[1]), 1e-6)
    return _RunLaw(scheme, eta, table)


def _choice_cdf(pmf) -> np.ndarray:
    """The cumulative table Generator.choice(len(pmf), p=pmf) draws from, after its
    checks on p; a draw is the count of its entries <= a uniform variate."""
    p = np.asarray(pmf, dtype=float)
    if not (np.isfinite(p).all() and (p >= 0.0).all() and abs(p.sum() - 1.0) <= _PMF_ATOL):
        raise NumericalError("the photon-number law is not a nonnegative pmf summing to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _check_spread(config: ExperimentConfig) -> None:
    """NumericalError before any draw when n_samples times the exact outcome
    variance overflows, as the chunks' sums of squared deviations then would."""
    scheme, eta = config.detector.scheme, config.detector.eta
    mean_n, mean_nsq = exact_moments(config.state)
    try:
        total = config.n_samples * _OUTCOME_VARIANCE[scheme](mean_n, mean_nsq, eta)
    except NumericalError:  # the variance itself overflows
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"sample_variance overflows at eta = {eta!r}")


def _histogram_bins(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(edges, centres) of the run's equal-width Freedman-Diaconis bins from the
    run law's exact interquartile range, spanning the quantiles eps .. 1 - eps;
    the spread check comes first, so a run that would overflow builds no law."""
    _check_spread(config)
    n, scheme, eta = config.n_samples, config.detector.scheme, config.detector.eta
    law = _run_law(config.state, scheme, eta)
    probs = np.array([0.1 / n, 0.25, 0.75, 1.0 - 0.1 / n])
    if scheme == "direct":
        # whole steps of the 1/eta lattice, edges at half-lattice points
        cdf = law.table.cdf
        m_lo, m_25, m_75, m_hi = np.minimum(np.searchsorted(cdf, probs), len(cdf) - 1)
        span = int(m_hi - m_lo) + 1
        step = max(
            1, round(2.0 * (m_75 - m_25) / n ** (1.0 / 3.0)), math.ceil(span / MAX_HISTOGRAM_BINS)
        )
        lo, width, bins = (m_lo - 0.5) / eta, step / eta, math.ceil(span / step)
    else:
        lo, q_25, q_75, hi = law.outcomes(probs)
        width = max(2.0 * (q_75 - q_25) / n ** (1.0 / 3.0), (hi - lo) / MAX_HISTOGRAM_BINS)
        bins = min(MAX_HISTOGRAM_BINS, max(1, math.ceil((hi - lo) / width)))
    edges = np.linspace(lo, lo + bins * width, bins + 1)
    centres = lo + width * (np.arange(bins) + 0.5)
    return edges, centres


def _chunk_outcomes(law: _RunLaw, seed: int, chunk_index: int, size: int) -> np.ndarray:
    """Outcomes for one chunk of a run drawing from law, a pure function of its
    arguments.  The uniforms are drawn into the one array returned, which the
    caller owns, and mapped to outcomes in place a block at a time."""
    key = (_SCHEME_INDEX[law.scheme], chunk_index)
    x = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key)).random(size)
    for start in range(0, size, BLOCK_SIZE):
        law.outcomes(x[start : start + BLOCK_SIZE])
    return x


def _chunk_reduction(
    law: _RunLaw, seed: int, chunk_index: int, size: int, edges: np.ndarray
) -> np.ndarray:
    """One chunk reduced where it is drawn: (count, mean, M2, bin counts...).
    Bin i holds edges[i] <= x < edges[i + 1], up to the rounding of
    (x - edges[0]) / width; outcomes beyond the edges count in the end bins.
    The bin counts are summed block by block, and the deviations from the
    whole-chunk mean are formed in place, so no second chunk-size array is made."""
    x = _chunk_outcomes(law, seed, chunk_index, size)
    mean = x.mean()
    bins = len(edges) - 1
    scale = bins / (edges[-1] - edges[0])
    row = np.zeros(3 + bins)
    for start in range(0, size, BLOCK_SIZE):
        index = x[start : start + BLOCK_SIZE] - edges[0]
        index *= scale
        np.clip(index, 0, bins - 1, out=index)
        row[3:] += np.bincount(index.astype(np.intp), minlength=bins)
    x -= mean
    row[:3] = size, mean, np.sum(np.square(x, out=x))
    return row


def _batch_reduction(
    law: _RunLaw, seed: int, n: int, edges: np.ndarray, first: int, stop: int
) -> Iterator[np.ndarray]:
    """The rows of chunks first .. stop - 1 of a run of n draws, each yielded as
    its chunk is drawn; every chunk holds CHUNK_SIZE draws but the last, which
    holds the rest."""
    for i in range(first, stop):
        yield _chunk_reduction(law, seed, i, min(CHUNK_SIZE, n - i * CHUNK_SIZE), edges)


def _batch_rows(*args) -> list[np.ndarray]:
    """_batch_reduction's rows as one list: a pool process's task and its result."""
    return list(_batch_reduction(*args))


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported when a run first starts
    more than one process: a run of one loads neither it nor multiprocessing.
    It keeps the class's name, so a pool of another kind can be patched in under it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: no more than requested, cores, or chunks."""
    return min(workers, os.cpu_count() or 1, n_chunks)


def _rows(config: ExperimentConfig, edges: np.ndarray) -> Iterator[np.ndarray]:
    """The run's chunk rows (count, mean, M2, bin counts...) in chunk order.  In
    one process each row is yielded as its chunk is drawn, so a reader that keeps
    none holds one row at a time; a pool process returns its range's rows at once."""
    law = _run_law(config.state, config.detector.scheme, config.detector.eta)
    n_chunks = -(-config.n_samples // CHUNK_SIZE)
    processes = _pool_size(config.workers, n_chunks)
    run = (law, config.seed, config.n_samples, edges)
    if processes == 1:
        yield from _batch_reduction(*run, 0, n_chunks)
        return
    # one task per process, a range of consecutive chunks: each worker receives
    # the law once, and the rows come back in chunk order
    bounds = [n_chunks * i // processes for i in range(processes + 1)]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for part in pool.map(partial(_batch_rows, *run), bounds[:-1], bounds[1:]):
            yield from part


def _summarize(rows: Iterable, centres: np.ndarray, config: ExperimentConfig) -> SampleSummary:
    """Fold the chunk rows in chunk order as they arrive (Chan, Golub & LeVeque,
    1979); the bin counts, exact integers below 2**53, are summed alongside."""
    rows = iter(rows)
    first = next(rows)
    n, mean, m2 = first[:3].tolist()
    counts = first[3:].copy()
    for row in rows:
        count, chunk_mean, chunk_m2 = row[:3].tolist()
        total = n + count
        delta = chunk_mean - mean
        mean += delta * count / total
        m2 += chunk_m2 + delta * delta * n * count / total
        n = total
        counts += row[3:]
    variance = m2 / (n - 1.0) if n > 1 else 0.0
    return SampleSummary(
        scheme=config.detector.scheme,
        eta=config.detector.eta,
        state=config.state.describe(),
        n_samples=int(n),
        seed=config.seed,
        workers=config.workers,
        mean=mean,
        sample_variance=variance,
        standard_error=math.sqrt(variance / n),
        bin_centers=tuple(centres.tolist()),
        bin_counts=tuple(int(c) for c in counts),
    )


def draw_outcomes(config: ExperimentConfig) -> np.ndarray:
    """The stacked view of the run's row iterator: one row (count, mean, M2, bin
    counts...) per chunk in the fixed chunk order."""
    edges, _ = _histogram_bins(config)
    return np.vstack(list(_rows(config, edges)))


def run_sampling(config: ExperimentConfig) -> SampleSummary:
    """Simulate the scheme named in config.detector and summarise the outcomes."""
    edges, centres = _histogram_bins(config)
    return _summarize(_rows(config, edges), centres, config)


def _check_scheme(config: ExperimentConfig, scheme: str) -> ExperimentConfig:
    if config.detector.scheme != scheme:
        raise ValidationError(
            f"config.detector.scheme is '{config.detector.scheme}', expected '{scheme}'"
        )
    return config


def sample_roulette(config: ExperimentConfig) -> SampleSummary:
    """Random-phase homodyne intensity sampling: |x| from the cached inverse-CDF
    table of its exact law at efficiency eta, then the unbiased estimator
    2 x^2 - 1/(2 eta)."""
    return run_sampling(_check_scheme(config, "roulette"))


def sample_heterodyne(config: ExperimentConfig) -> SampleSummary:
    """Heterodyne intensity sampling: v = eta I + 1, the Husimi radial |alpha|^2
    of the thinned state, from the cached inverse-CDF table of its exact law at
    efficiency eta, then the outcome (v - 1)/eta."""
    return run_sampling(_check_scheme(config, "heterodyne"))


def sample_direct(config: ExperimentConfig) -> SampleSummary:
    """Direct photodetection: m from the thinned photon-number law, outcome m/eta."""
    return run_sampling(_check_scheme(config, "direct"))


def run_comparison(
    state: StateSpec, eta: float, n_samples: int, seed: int, workers: int = 1
) -> tuple[SampleSummary, SampleSummary, SampleSummary, NoiseReport]:
    """Run all three schemes on identical state/eta and attach the analytic report."""
    summaries = tuple(
        run_sampling(ExperimentConfig(state, DetectorConfig(scheme, eta), n_samples, seed, workers))
        for scheme in SCHEMES
    )
    mean_n, mean_nsq = exact_moments(state)
    return summaries[0], summaries[1], summaries[2], noise_report(mean_n, mean_nsq, eta)
