"""Seeded Monte Carlo simulation of the three detection schemes.

Draws are produced in fixed-size chunks, each with its own random stream
derived deterministically from (seed, scheme, chunk index).  Workers only
decide which process evaluates which chunk, so a given configuration is
bit-reproducible for any worker count.

Efficiency eta enters only through the exact laws of `pom`.  Each run resolves
its sampling law once, before any worker starts: the roulette table of the
state at eta, or the thinned photon-number law that `pom` caches per
(state, eta).  Every chunk draws from that one law, sent once to each worker,
so no worker builds one.  A draw finds its table segment, or its photon
number, through a guide table (`numerics.GuideTable`) in O(1) expected steps:
the roulette is bitwise np.interp on the table, and a photon number bitwise
Generator.choice on the pmf, from the same uniforms.  A run whose n_samples
times the exact outcome variance overflows fails before any draw.

The histogram edges are fixed before any draw, by the exact outcome law:
equal-width Freedman-Diaconis bins (Freedman & Diaconis, 1981) from the exact
interquartile range, spanning the quantiles eps .. 1 - eps with
eps = 0.1 / n_samples; direct-detection bins are whole steps of the 1/eta
lattice.  Each chunk reduces its outcomes where they are drawn, to its count,
mean, sum of squared deviations and bin counts, with out-of-range outcomes
clipped into the end bins; the rows are merged in chunk order with the update
of Chan, Golub & LeVeque (1979).  Memory per run is a few chunks of
outcomes, whatever n_samples.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import NumericalError, ValidationError
from .estimators import intensity_estimator
from .noise import (
    NoiseReport,
    direct_variance,
    heterodyne_variance,
    noise_report,
    roulette_variance,
)
from .numerics import DensityTable, GuideTable, build_inverse_cdf
from .pom import (
    SCHEMES,
    DetectorConfig,
    _poisson_mixture,
    direct_detection_pmf,
    roulette_density_x,
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
MAX_HISTOGRAM_BINS = 512
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
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1 (got {self.n_samples})")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1 (got {self.workers})")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in 64 bits")


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
        """JSON-ready payload.

        Deliberately omits `workers`: results are independent of the worker
        count, so the serialised summary must be too (the manifest records
        the execution parameters).
        """
        return {
            "scheme": self.scheme,
            "eta": self.eta,
            "state": self.state,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mean": self.mean,
            "sample_variance": self.sample_variance,
            "standard_error": self.standard_error,
            "histogram": [[center, count] for center, count in self.histogram],
        }


@lru_cache(maxsize=64)
def _roulette_table(spec: StateSpec, eta: float) -> DensityTable:
    """Inverse-CDF table of the roulette quadrature density at efficiency eta."""
    stats = photon_distribution(spec)
    limit = (math.sqrt((2.0 * stats.n_max + 1.0) / 2.0) + 8.0) / math.sqrt(eta)
    return build_inverse_cdf(lambda x: roulette_density_x(stats, x, eta), (-limit, limit), 1e-6)


def _choice_cdf(pmf) -> np.ndarray:
    """The cumulative table Generator.choice(len(pmf), p=pmf) draws from, after its
    checks on p; a draw is the count of its entries <= a uniform variate."""
    p = np.asarray(pmf, dtype=float)
    if not (np.isfinite(p).all() and (p >= 0.0).all() and abs(p.sum() - 1.0) <= _PMF_ATOL):
        raise NumericalError("the photon-number law is not a nonnegative pmf summing to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _chunk_outcomes(
    law, scheme: str, eta: float, seed: int, chunk_index: int, size: int
) -> np.ndarray:
    """Outcomes for one chunk; a pure function of its arguments.

    law is the run's roulette table, or its thinned photon-number pmf.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(_SCHEME_INDEX[scheme], chunk_index))
    )
    if scheme == "roulette":
        return intensity_estimator(law.sample(rng.random(size)), eta)

    m = GuideTable(_choice_cdf(law)).rank(rng.random(size))
    if scheme == "heterodyne":
        # |alpha|^2 for a number state m is Gamma(m + 1, 1) (Husimi radial law)
        return (rng.gamma(m + 1.0) - 1.0) / eta
    return m / eta


@lru_cache(maxsize=64)
def _quantile_table(spec: StateSpec, scheme: str, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, nodes): the outcome CDF of the law a run samples, at increasing nodes.

    The nodes are |x| for the roulette (y = 2 x^2 - 1/(2 eta) grows with |x|),
    v = eta I + 1 for heterodyne and the count m for direct detection.
    """
    if scheme == "roulette":
        table = _roulette_table(spec, eta)
        nodes = np.unique(np.abs(table.grid))
        cdf = table.cdf_at(nodes) - table.cdf_at(-nodes)
    else:
        weights = direct_detection_pmf(photon_distribution(spec), eta)
        if scheme == "heterodyne":
            # DLMF 8.4.10: P(Gamma(m + 1) <= v) = 1 - sum_{k <= m} e^{-v} v^k / k!
            top = len(weights) + 10.0 * math.sqrt(len(weights)) + 40.0
            nodes = np.linspace(0.0, top, 2049)
            cdf = 1.0 - _poisson_mixture(np.cumsum(weights[::-1])[::-1], nodes)
        else:
            nodes = np.arange(len(weights))
            cdf = np.cumsum(weights)
    cdf = np.maximum.accumulate(cdf)
    for shared in (cdf, nodes):
        shared.setflags(write=False)
    return cdf, nodes


def _histogram_bins(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(edges, centres) of the run's equal-width bins, a pure function of
    (state, scheme, eta, n_samples): Freedman-Diaconis width from the exact
    interquartile range, spanning the quantiles eps .. 1 - eps."""
    scheme, eta, n = config.detector.scheme, config.detector.eta, config.n_samples
    cdf, nodes = _quantile_table(config.state, scheme, eta)
    probs = np.array([0.1 / n, 0.25, 0.75, 1.0 - 0.1 / n])
    if scheme == "direct":
        # whole steps of the 1/eta lattice, edges at half-lattice points
        m_lo, m_25, m_75, m_hi = nodes[np.minimum(np.searchsorted(cdf, probs), len(nodes) - 1)]
        span = int(m_hi - m_lo) + 1
        step = max(
            1, round(2.0 * (m_75 - m_25) / n ** (1.0 / 3.0)), math.ceil(span / MAX_HISTOGRAM_BINS)
        )
        lo, width, bins = (m_lo - 0.5) / eta, step / eta, math.ceil(span / step)
    else:
        q = np.interp(probs, cdf, nodes)
        lo, q_25, q_75, hi = (
            intensity_estimator(q, eta) if scheme == "roulette" else (q - 1.0) / eta
        )
        width = max(2.0 * (q_75 - q_25) / n ** (1.0 / 3.0), (hi - lo) / MAX_HISTOGRAM_BINS)
        bins = min(MAX_HISTOGRAM_BINS, max(1, math.ceil((hi - lo) / width)))
    edges = np.linspace(lo, lo + bins * width, bins + 1)
    return edges, lo + width * (np.arange(bins) + 0.5)


def _chunk_reduction(
    law, scheme: str, eta: float, seed: int, chunk_index: int, size: int, edges: np.ndarray
) -> np.ndarray:
    """One chunk reduced where it is drawn: (count, mean, M2, bin counts...).

    Bin i of the equally spaced edges holds edges[i] <= x < edges[i + 1], up
    to the rounding of (x - edges[0]) / width; outcomes beyond the edges count
    in the end bins.
    """
    x = _chunk_outcomes(law, scheme, eta, seed, chunk_index, size)
    mean = x.mean()
    deviation = x - mean
    bins = len(edges) - 1
    x -= edges[0]
    x *= bins / (edges[-1] - edges[0])
    row = np.empty(3 + bins)
    row[:3] = size, mean, np.sum(np.square(deviation, out=deviation))
    row[3:] = np.bincount(np.clip(x, 0, bins - 1, out=x).astype(np.intp), minlength=bins)
    return row


def _batch_reduction(
    law, scheme: str, eta: float, seed: int, edges: np.ndarray, batch
) -> list[np.ndarray]:
    """The rows of a batch of (chunk index, size) pairs, one chunk at a time."""
    return [_chunk_reduction(law, scheme, eta, seed, index, size, edges) for index, size in batch]


def _summarize(rows: np.ndarray, config: ExperimentConfig) -> SampleSummary:
    """Merge the chunk rows in chunk order (Chan, Golub & LeVeque, 1979)."""
    n, mean, m2 = (float(v) for v in rows[0, :3])
    for count, chunk_mean, chunk_m2 in rows[1:, :3].tolist():
        total = n + count
        delta = chunk_mean - mean
        mean += delta * count / total
        m2 += chunk_m2 + delta * delta * n * count / total
        n = total
    variance = m2 / (n - 1.0) if n > 1 else 0.0
    _, centres = _histogram_bins(config)
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
        bin_counts=tuple(int(c) for c in rows[:, 3:].sum(axis=0)),
    )


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: no more than requested, cores, or chunks."""
    return min(workers, os.cpu_count() or 1, n_chunks)


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


def draw_outcomes(config: ExperimentConfig) -> np.ndarray:
    """The reduced chunks of a run, one row (count, mean, M2, bin counts...)
    per chunk in the fixed chunk order."""
    _check_spread(config)
    scheme, eta = config.detector.scheme, config.detector.eta
    if scheme == "roulette":
        law = _roulette_table(config.state, eta)
    else:
        law = direct_detection_pmf(photon_distribution(config.state), eta)
    edges, _ = _histogram_bins(config)
    sizes = [CHUNK_SIZE] * (config.n_samples // CHUNK_SIZE)
    if config.n_samples % CHUNK_SIZE:
        sizes.append(config.n_samples % CHUNK_SIZE)
    chunks = list(enumerate(sizes))
    processes = _pool_size(config.workers, len(chunks))
    reduce_batch = partial(_batch_reduction, law, scheme, eta, config.seed, edges)
    if processes == 1:
        parts = [reduce_batch(chunks)]
    else:
        # one task per process, a run of consecutive chunks: each worker
        # receives the law once, and the rows come back in chunk order
        bounds = [len(chunks) * i // processes for i in range(processes + 1)]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(reduce_batch, [chunks[a:b] for a, b in zip(bounds, bounds[1:])]))
    return np.vstack([row for part in parts for row in part])


def run_sampling(config: ExperimentConfig) -> SampleSummary:
    """Simulate the scheme named in config.detector and summarise the outcomes."""
    return _summarize(draw_outcomes(config), config)


def _check_scheme(config: ExperimentConfig, scheme: str) -> ExperimentConfig:
    if config.detector.scheme != scheme:
        raise ValidationError(
            f"config.detector.scheme is '{config.detector.scheme}', expected '{scheme}'"
        )
    return config


def sample_roulette(config: ExperimentConfig) -> SampleSummary:
    """Random-phase homodyne intensity sampling: x from one cached inverse-CDF
    table of the quadrature density at efficiency eta, then the unbiased
    estimator 2 x^2 - 1/(2 eta)."""
    return run_sampling(_check_scheme(config, "roulette"))


def sample_heterodyne(config: ExperimentConfig) -> SampleSummary:
    """Heterodyne intensity sampling: m from the thinned photon-number law,
    |alpha|^2 ~ Gamma(m + 1) (Husimi radial law), outcome (|alpha|^2 - 1)/eta."""
    return run_sampling(_check_scheme(config, "heterodyne"))


def sample_direct(config: ExperimentConfig) -> SampleSummary:
    """Direct photodetection: m from the thinned photon-number law, outcome m/eta."""
    return run_sampling(_check_scheme(config, "direct"))


def run_comparison(
    state: StateSpec, eta: float, n_samples: int, seed: int, workers: int = 1
) -> tuple[SampleSummary, SampleSummary, SampleSummary, NoiseReport]:
    """Run all three schemes on identical state/eta and attach the analytic report."""
    summaries = tuple(
        run_sampling(
            ExperimentConfig(
                state=state,
                detector=DetectorConfig(scheme=scheme, eta=eta),
                n_samples=n_samples,
                seed=seed,
                workers=workers,
            )
        )
        for scheme in SCHEMES
    )
    mean_n, mean_nsq = exact_moments(state)
    return summaries[0], summaries[1], summaries[2], noise_report(mean_n, mean_nsq, eta)
