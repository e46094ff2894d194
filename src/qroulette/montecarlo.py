"""Seeded Monte Carlo simulation of the three detection schemes.

Draws are produced in fixed-size chunks, each with its own random stream
derived deterministically from (seed, scheme, chunk index).  Workers only
decide which process evaluates which chunk, so a given configuration is
bit-reproducible for any worker count.

Efficiency eta enters only through the exact laws of `pom`.  Each run resolves
its sampling law once, before any worker starts: the roulette table of the
state at eta, or the thinned photon-number law that `pom` caches per
(state, eta).  Every chunk draws from that one law, so no worker builds one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .estimators import intensity_estimator
from .noise import NoiseReport, noise_report
from .numerics import DensityTable, build_inverse_cdf
from .pom import SCHEMES, DetectorConfig, direct_detection_pmf, roulette_density_x
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
_SCHEME_INDEX = {scheme: i for i, scheme in enumerate(SCHEMES)}


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

    m = rng.choice(len(law), size=size, p=law)
    if scheme == "heterodyne":
        # |alpha|^2 for a number state m is Gamma(m + 1, 1) (Husimi radial law)
        return (rng.gamma(m + 1.0) - 1.0) / eta
    return m / eta


def _histogram(outcomes: np.ndarray) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Freedman-Diaconis binning clipped to MAX_HISTOGRAM_BINS bins."""
    lo = float(outcomes.min())
    hi = float(outcomes.max())
    n = len(outcomes)
    if hi == lo:
        return (lo,), (n,)
    q25, q75 = np.percentile(outcomes, [25.0, 75.0])
    iqr = q75 - q25
    if iqr > 0.0:
        width = 2.0 * iqr / n ** (1.0 / 3.0)
        bins = int(np.clip(math.ceil((hi - lo) / width), 1, MAX_HISTOGRAM_BINS))
    else:
        bins = min(MAX_HISTOGRAM_BINS, 64)
    counts, edges = np.histogram(outcomes, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return tuple(float(c) for c in centers), tuple(int(c) for c in counts)


def _summarize(outcomes: np.ndarray, config: ExperimentConfig) -> SampleSummary:
    n = len(outcomes)
    mean = float(np.mean(outcomes))
    variance = float(np.var(outcomes, ddof=1)) if n > 1 else 0.0
    centers, counts = _histogram(outcomes)
    return SampleSummary(
        scheme=config.detector.scheme,
        eta=config.detector.eta,
        state=config.state.describe(),
        n_samples=n,
        seed=config.seed,
        workers=config.workers,
        mean=mean,
        sample_variance=variance,
        standard_error=math.sqrt(variance / n),
        bin_centers=centers,
        bin_counts=counts,
    )


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: no more than requested, cores, or chunks."""
    return min(workers, os.cpu_count() or 1, n_chunks)


def draw_outcomes(config: ExperimentConfig) -> np.ndarray:
    """All outcomes of a run, in the fixed chunk order."""
    scheme, eta = config.detector.scheme, config.detector.eta
    if scheme == "roulette":
        law = _roulette_table(config.state, eta)
    else:
        law = direct_detection_pmf(photon_distribution(config.state), eta)
    sizes = [CHUNK_SIZE] * (config.n_samples // CHUNK_SIZE)
    if config.n_samples % CHUNK_SIZE:
        sizes.append(config.n_samples % CHUNK_SIZE)
    args = [(law, scheme, eta, config.seed, index, size) for index, size in enumerate(sizes)]
    processes = _pool_size(config.workers, len(args))
    if processes == 1:
        chunks = [_chunk_outcomes(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_chunk_outcomes, *zip(*args)))
    return np.concatenate(chunks)


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
