import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qroulette import montecarlo
from qroulette.errors import NumericalError, ValidationError
from qroulette.estimators import intensity_estimator
from qroulette.montecarlo import (
    ExperimentConfig,
    run_comparison,
    run_sampling,
    sample_direct,
    sample_heterodyne,
    sample_roulette,
)
from qroulette.noise import direct_variance, heterodyne_variance, roulette_variance
from qroulette.numerics import build_inverse_cdf, gauss_legendre_grid
from qroulette.pom import (
    DetectorConfig,
    direct_detection_pmf,
    heterodyne_density_I,
    roulette_density_x,
)
from qroulette.states import StateSpec, exact_moments, photon_distribution

from conftest import MATRIX_STATES, MC_ETAS

SEED = 424242


def config(spec, scheme, eta, n=10**6, seed=SEED, workers=1):
    return ExperimentConfig(
        state=spec,
        detector=DetectorConfig(scheme, eta),
        n_samples=n,
        seed=seed,
        workers=workers,
    )


def assert_run(summary, mean, variance, var_rel=0.02):
    assert abs(summary.mean - mean) <= 5 * max(summary.standard_error, 1e-12)
    if variance == 0.0:
        assert summary.sample_variance == 0.0
    else:
        assert summary.sample_variance == pytest.approx(variance, rel=var_rel)


class TestRoulette:
    def test_vacuum(self):
        summary = sample_roulette(config(StateSpec.vacuum(), "roulette", 1.0))
        assert_run(summary, 0.0, 0.5)

    def test_coherent_one(self):
        summary = sample_roulette(config(StateSpec.coherent(1.0), "roulette", 1.0))
        assert_run(summary, 1.0, 3.0)

    def test_fock_two_half_efficiency(self):
        summary = sample_roulette(config(StateSpec.fock(2), "roulette", 0.5))
        assert_run(summary, 2.0, 9.0)

    def test_scheme_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sample_roulette(config(StateSpec.vacuum(), "direct", 1.0))

    @pytest.mark.parametrize(
        "n, eta", [(270, 0.5), (606, 0.5), (610, 0.5), (958, 0.5), (300, 0.99)]
    )
    def test_bright_fock_below_unit_efficiency(self, n, eta):
        # tables of these laws alias when refined from 64 panels
        summary = sample_roulette(config(StateSpec.fock(n), "roulette", eta, n=1 << 17))
        assert_run(summary, float(n), roulette_variance(n, float(n) ** 2, eta))

    def test_one_table_per_state_and_efficiency(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_inverse_cdf(*args, **kwargs)

        montecarlo._roulette_table.cache_clear()
        monkeypatch.setattr(montecarlo, "build_inverse_cdf", counting)
        cfg = config(StateSpec.coherent(4.0), "roulette", 0.5, n=3 * montecarlo.CHUNK_SIZE)
        summary = sample_roulette(cfg)
        assert summary.n_samples == 3 * montecarlo.CHUNK_SIZE
        assert len(calls) == 1

    def test_workers_never_build_a_table(self, monkeypatch):
        # an in-process pool whose "workers" start every chunk with an empty
        # table cache, as fresh processes would
        class FreshCachePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    montecarlo._roulette_table.cache_clear()
                    yield fn(*args)

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_inverse_cdf(*args, **kwargs)

        montecarlo._roulette_table.cache_clear()
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FreshCachePool)
        monkeypatch.setattr(montecarlo, "build_inverse_cdf", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = config(
            StateSpec.coherent(4.0), "roulette", 0.5, n=3 * montecarlo.CHUNK_SIZE, workers=3
        )
        summary = sample_roulette(cfg)
        assert summary.n_samples == 3 * montecarlo.CHUNK_SIZE
        assert len(calls) == 1


class TestHeterodyne:
    def test_vacuum(self):
        summary = sample_heterodyne(config(StateSpec.vacuum(), "heterodyne", 1.0))
        assert_run(summary, 0.0, 1.0)

    def test_coherent_two(self):
        summary = sample_heterodyne(config(StateSpec.coherent(2.0), "heterodyne", 1.0))
        assert_run(summary, 2.0, 5.0)

    def test_vacuum_half_efficiency(self):
        summary = sample_heterodyne(config(StateSpec.vacuum(), "heterodyne", 0.5))
        assert_run(summary, 0.0, 4.0)


class TestDirect:
    def test_fock_one_half_efficiency(self):
        summary = sample_direct(config(StateSpec.fock(1), "direct", 0.5))
        assert_run(summary, 1.0, 1.0)

    def test_fock_states_noiseless_at_unit_efficiency(self):
        summary = sample_direct(config(StateSpec.fock(3), "direct", 1.0, n=10**5))
        assert summary.mean == 3.0
        assert summary.sample_variance == 0.0

    def test_thermal(self):
        summary = sample_direct(config(StateSpec.thermal(1.0), "direct", 1.0))
        assert_run(summary, 1.0, 2.0, var_rel=0.03)


class TestDeterminism:
    def test_bit_identical_rerun(self):
        cfg = config(StateSpec.coherent(1.0), "roulette", 0.5, n=3 * 10**5)
        assert run_sampling(cfg).to_dict() == run_sampling(cfg).to_dict()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_results(self, workers):
        base = config(StateSpec.coherent(1.0), "roulette", 0.5, n=3 * 10**5)
        parallel = config(
            StateSpec.coherent(1.0), "roulette", 0.5, n=3 * 10**5, workers=workers
        )
        serial_summary = run_sampling(base)
        parallel_summary = run_sampling(parallel)
        assert serial_summary.to_dict() == parallel_summary.to_dict()
        assert parallel_summary.workers == workers

    def test_one_task_per_process(self, monkeypatch):
        # an in-process pool that counts its tasks: each carries the run's law
        tasks = []

        class CountingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    tasks.append(args)
                    yield fn(*args)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        n = 5 * montecarlo.CHUNK_SIZE + 7
        parallel = run_sampling(config(StateSpec.coherent(1.0), "roulette", 0.5, n=n, workers=3))
        assert len(tasks) == 3
        serial = run_sampling(config(StateSpec.coherent(1.0), "roulette", 0.5, n=n))
        assert serial.to_dict() == parallel.to_dict()

    def test_seed_changes_results(self):
        one = run_sampling(config(StateSpec.vacuum(), "roulette", 1.0, n=10**4, seed=1))
        two = run_sampling(config(StateSpec.vacuum(), "roulette", 1.0, n=10**4, seed=2))
        assert one.mean != two.mean


class TestSummary:
    def test_invariants(self):
        summary = run_sampling(config(StateSpec.thermal(1.0), "heterodyne", 0.5, n=2 * 10**5))
        assert sum(summary.bin_counts) == summary.n_samples
        assert summary.standard_error == pytest.approx(
            math.sqrt(summary.sample_variance / summary.n_samples)
        )
        assert len(summary.bin_counts) <= 512
        assert summary.seed == SEED

    def test_histogram_chi_squared_against_density(self):
        # roulette outcomes at unit efficiency versus the analytic y density,
        # with per-bin expectations from an independent quadrature in x
        cfg = config(StateSpec.coherent(1.0), "roulette", 1.0, n=2 * 10**5)
        summary = run_sampling(cfg)
        stats_obj = photon_distribution(StateSpec.coherent(1.0))
        centers = np.asarray(summary.bin_centers)
        counts = np.asarray(summary.bin_counts, dtype=float)
        width = centers[1] - centers[0]
        edges = np.concatenate([centers - width / 2, [centers[-1] + width / 2]])

        # P(y in [a, b]) = 2 * integral of the x density over [x_a, x_b]
        x_edges = np.sqrt(np.maximum(edges + 0.5, 0.0) / 2.0)
        probs = np.empty(len(counts))
        for i in range(len(counts)):
            nodes, gl_weights = gauss_legendre_grid(x_edges[i], x_edges[i + 1], 4, 20)
            probs[i] = 2.0 * float(
                np.sum(gl_weights * roulette_density_x(stats_obj, nodes))
            )
        expected = summary.n_samples * np.append(probs, max(1.0 - probs.sum(), 0.0))
        observed = np.append(counts, summary.n_samples - counts.sum())

        # pool cells until every expected count is at least 5
        pooled_obs, pooled_exp = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                pooled_obs.append(acc_o)
                pooled_exp.append(acc_e)
                acc_o = acc_e = 0.0
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
        pooled_obs = np.asarray(pooled_obs)
        pooled_exp = np.asarray(pooled_exp) * (sum(pooled_obs) / sum(pooled_exp))
        chi2 = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
        dof = len(pooled_obs) - 1
        assert chi2 < scipy_stats.chi2.ppf(0.999, dof), (chi2, dof)


def pooled_chi2(observed, expected):
    # pool cells until every expected count is at least 5
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    pooled_obs[-1] += acc_o
    pooled_exp[-1] += acc_e
    pooled_obs = np.asarray(pooled_obs)
    pooled_exp = np.asarray(pooled_exp) * (sum(pooled_obs) / sum(pooled_exp))
    return float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp)), len(pooled_obs) - 1


class TestHeterodyneHistogram:
    def test_chi_squared_against_density_half_efficiency(self):
        spec = StateSpec.coherent(1.0)
        summary = run_sampling(config(spec, "heterodyne", 0.5, n=2 * 10**5))
        stats_obj = photon_distribution(spec)
        centers = np.asarray(summary.bin_centers)
        counts = np.asarray(summary.bin_counts, dtype=float)
        width = centers[1] - centers[0]
        edges = np.concatenate([centers - width / 2, [centers[-1] + width / 2]])
        probs = np.empty(len(counts))
        for i in range(len(counts)):
            nodes, gl_weights = gauss_legendre_grid(edges[i], edges[i + 1], 4, 20)
            probs[i] = float(np.sum(gl_weights * heterodyne_density_I(stats_obj, nodes, 0.5)))
        expected = summary.n_samples * np.append(probs, max(1.0 - probs.sum(), 0.0))
        observed = np.append(counts, summary.n_samples - counts.sum())
        chi2, dof = pooled_chi2(observed, expected)
        assert chi2 < scipy_stats.chi2.ppf(0.999, dof), (chi2, dof)


class TestPoolSize:
    def test_never_more_than_requested_cores_or_chunks(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert montecarlo._pool_size(1, 100) == 1
        assert montecarlo._pool_size(4, 100) == 4
        assert montecarlo._pool_size(4, 3) == 3
        assert montecarlo._pool_size(10**6, 7630) == 8

    def test_unknown_core_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._pool_size(16, 100) == 1


class TestRunComparison:
    def test_low_intensity_favours_roulette(self):
        roulette, heterodyne, direct, report = run_comparison(
            StateSpec.coherent(0.5), 1.0, 2 * 10**5, seed=SEED
        )
        assert report.delta_rh < 0.0
        assert roulette.sample_variance < heterodyne.sample_variance
        assert direct.sample_variance < roulette.sample_variance

    def test_bright_fock_favours_heterodyne(self):
        roulette, heterodyne, direct, report = run_comparison(
            StateSpec.fock(5), 1.0, 2 * 10**5, seed=SEED
        )
        assert report.delta_rh == pytest.approx(9.5)
        assert roulette.sample_variance > heterodyne.sample_variance
        assert direct.sample_variance == 0.0

    def test_direct_always_quietest(self):
        for spec in (StateSpec.thermal(1.0), StateSpec.squeezed(2.0, 0.5)):
            roulette, heterodyne, direct, report = run_comparison(
                spec, 0.5, 2 * 10**5, seed=SEED
            )
            assert direct.sample_variance < roulette.sample_variance
            assert direct.sample_variance < heterodyne.sample_variance
            mean_n, mean_nsq = exact_moments(spec)
            assert report.direct_var == direct_variance(mean_n, mean_nsq, 0.5)
            assert report.roulette_var == roulette_variance(mean_n, mean_nsq, 0.5)
            assert report.heterodyne_var == heterodyne_variance(mean_n, mean_nsq, 0.5)


class TestConfigValidation:
    def test_ranges(self):
        detector = DetectorConfig("roulette", 1.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(StateSpec.vacuum(), detector, 0, 1)
        with pytest.raises(ValidationError):
            ExperimentConfig(StateSpec.vacuum(), detector, 10, 1, workers=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(StateSpec.vacuum(), detector, 10, -5)


def run_law(cfg):
    scheme, eta = cfg.detector.scheme, cfg.detector.eta
    if scheme == "roulette":
        return montecarlo._roulette_table(cfg.state, eta)
    return direct_detection_pmf(photon_distribution(cfg.state), eta)


class TestReduction:
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_merged_chunks_match_the_concatenated_outcomes(self, scheme):
        n = 3 * montecarlo.CHUNK_SIZE + 12345
        cfg = config(StateSpec.coherent(4.0), scheme, 0.5, n=n)
        summary = run_sampling(cfg)
        sizes = [montecarlo.CHUNK_SIZE] * 3 + [12345]
        outcomes = np.concatenate(
            [
                montecarlo._chunk_outcomes(run_law(cfg), scheme, 0.5, SEED, index, size)
                for index, size in enumerate(sizes)
            ]
        )
        assert summary.n_samples == n
        assert summary.mean == pytest.approx(np.mean(outcomes), rel=1e-12)
        assert summary.sample_variance == pytest.approx(np.var(outcomes, ddof=1), rel=1e-12)
        edges, _ = montecarlo._histogram_bins(cfg)
        expected, _ = np.histogram(np.clip(outcomes, edges[0], edges[-1]), bins=edges)
        assert summary.bin_counts == tuple(int(c) for c in expected)

    def test_edges_are_fixed_before_any_draw(self):
        one = run_sampling(config(StateSpec.thermal(1.0), "heterodyne", 0.5, n=10**5, seed=1))
        two = run_sampling(config(StateSpec.thermal(1.0), "heterodyne", 0.5, n=10**5, seed=2))
        assert one.mean != two.mean
        assert one.bin_centers == two.bin_centers

    @pytest.mark.parametrize(
        "spec, eta",
        [
            (StateSpec.coherent(4.0), 0.5),
            (StateSpec.thermal(1.0), 0.3),
            (StateSpec.squeezed(2.0, 0.5), 0.25),
            (StateSpec.fock(3), 0.7),
            (StateSpec.coherent(100.0), 0.9),
        ],
    )
    def test_direct_outcomes_lie_strictly_inside_bins(self, spec, eta):
        cfg = config(spec, "direct", eta)
        edges, centres = montecarlo._histogram_bins(cfg)
        width = centres[1] - centres[0]
        assert (width * eta) == pytest.approx(round(width * eta), abs=1e-9)
        m = np.flatnonzero(direct_detection_pmf(photon_distribution(spec), eta))
        outcomes = m / eta
        inside = outcomes[(outcomes > edges[0]) & (outcomes < edges[-1])]
        assert inside.size
        gaps = np.abs(inside[:, None] - edges[None, :]).min(axis=1)
        assert gaps.min() >= 0.5 / eta * (1.0 - 1e-9)

    def test_point_mass_keeps_one_bin(self):
        summary = sample_direct(config(StateSpec.fock(3), "direct", 1.0, n=10**5))
        assert summary.bin_centers == (3.0,)
        assert summary.bin_counts == (10**5,)

    def test_direct_run_memory_is_bounded(self):
        # a fresh interpreter, so that ru_maxrss counts this run alone
        src = str(Path(montecarlo.__file__).parents[1])
        probe = (
            "import resource\n"
            "from qroulette.montecarlo import CHUNK_SIZE, ExperimentConfig, run_sampling\n"
            "from qroulette.pom import DetectorConfig\n"
            "from qroulette.states import StateSpec\n"
            "def run(n):\n"
            "    detector = DetectorConfig('direct', 0.5)\n"
            "    run_sampling(ExperimentConfig(StateSpec.coherent(4.0), detector, n, seed=1))\n"
            "run(2 * CHUNK_SIZE)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run(1 << 24)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        growth_mb = int(result.stdout) / 1024.0  # ru_maxrss is in KiB on Linux
        assert growth_mb < 48.0, growth_mb


def reference_chunk_outcomes(law, scheme, eta, seed, chunk_index, size):
    """One chunk drawn by np.interp and Generator.choice, the binary searches
    the guide-table lookup replaces."""
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(montecarlo._SCHEME_INDEX[scheme], chunk_index)
        )
    )
    if scheme == "roulette":
        return intensity_estimator(np.interp(rng.random(size), law.cdf, law.grid), eta)
    m = rng.choice(len(law), size=size, p=law)
    if scheme == "heterodyne":
        return (rng.gamma(m + 1.0) - 1.0) / eta
    return m / eta


class TestGuideLookupDraws:
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_runs_match_interp_and_choice_bitwise(self, scheme, monkeypatch):
        configs = [
            config(spec, scheme, eta, n=2 * montecarlo.CHUNK_SIZE + 5, seed=11)
            for _, spec in MATRIX_STATES
            for eta in MC_ETAS
        ]
        actual = [json.dumps(run_sampling(cfg).to_dict()) for cfg in configs]
        monkeypatch.setattr(montecarlo, "_chunk_outcomes", reference_chunk_outcomes)
        assert [json.dumps(run_sampling(cfg).to_dict()) for cfg in configs] == actual

    @pytest.mark.parametrize("scheme", ["heterodyne", "direct"])
    @pytest.mark.parametrize(
        "pmf", [[0.5, math.nan, 0.5], [1.5, -0.5], [0.5, 0.4], [math.inf, 0.0]]
    )
    def test_bad_pmf_is_a_numerical_failure(self, pmf, scheme):
        with pytest.raises(NumericalError):
            montecarlo._chunk_outcomes(np.array(pmf), scheme, 0.5, SEED, 0, 100)


class TestTinyEfficiency:
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne"])
    def test_overflowing_variance_fails_before_any_draw(self, scheme, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(montecarlo, "_chunk_reduction", no_draws)
        with pytest.raises(NumericalError, match="sample_variance overflows at eta = 1e-200"):
            run_sampling(config(StateSpec.coherent(1.0), scheme, 1e-200, n=1000))

    def test_finite_product_still_runs(self):
        # n_samples * (1/(2 eta^2) + ...) stays below the float range here
        summary = run_sampling(config(StateSpec.coherent(1.0), "roulette", 1e-152, n=1000))
        assert math.isfinite(summary.sample_variance)
