import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qroulette import montecarlo, pom
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
from qroulette.numerics import DensityTable, GuideTable, build_inverse_cdf, gauss_legendre_grid
from qroulette.pom import (
    DetectorConfig,
    direct_detection_pmf,
    heterodyne_cdf_v,
    heterodyne_density_I,
    roulette_cdf_abs_x,
    roulette_density_x,
)
from qroulette.states import StateSpec, exact_moments, photon_distribution

from conftest import MATRIX_STATES, MC_ETAS, full_order_poisson_mixture

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


@pytest.fixture
def table_builds(monkeypatch):
    """The tables montecarlo builds during a test, by kind, from an empty
    run-law cache that is emptied again when the test ends."""
    built = []

    def counting(*args, **kwargs):
        built.append("inverse_cdf")
        return build_inverse_cdf(*args, **kwargs)

    class CountingGuide(GuideTable):
        def __init__(self, cdf):
            built.append("guide")
            super().__init__(cdf)

    monkeypatch.setattr(montecarlo, "build_inverse_cdf", counting)
    monkeypatch.setattr(montecarlo, "GuideTable", CountingGuide)
    montecarlo._run_law.cache_clear()
    yield built
    montecarlo._run_law.cache_clear()


# the one table a run law of each scheme builds
LAW_TABLE = {"roulette": "inverse_cdf", "heterodyne": "inverse_cdf", "direct": "guide"}


class TestRunLaw:
    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_one_table_per_state_and_efficiency(self, scheme, table_builds):
        # two laws, each run twice: the second run of a law builds nothing
        for eta in (0.5, 0.25, 0.5, 0.25):
            cfg = config(StateSpec.coherent(4.0), scheme, eta, n=3 * montecarlo.CHUNK_SIZE + 1)
            assert run_sampling(cfg).n_samples == cfg.n_samples
        assert table_builds == [LAW_TABLE[scheme]] * 2

    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_workers_never_build_a_table(self, scheme, table_builds, monkeypatch):
        # an in-process pool whose "workers" start every task with an empty
        # run-law cache, as fresh processes would
        class FreshCachePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    montecarlo._run_law.cache_clear()
                    yield fn(*args)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FreshCachePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = config(StateSpec.coherent(4.0), scheme, 0.5, n=3 * montecarlo.CHUNK_SIZE, workers=3)
        assert run_sampling(cfg).n_samples == 3 * montecarlo.CHUNK_SIZE
        # one table, in the calling process
        assert table_builds == [LAW_TABLE[scheme]]

    def test_second_pass_over_the_matrix_builds_nothing(self, table_builds):
        # the 72 laws of the validation matrix fit the cache together
        for _ in range(2):
            for _label, spec in MATRIX_STATES:
                for eta in MC_ETAS:
                    for scheme in pom.SCHEMES:
                        montecarlo.draw_outcomes(config(spec, scheme, eta, n=1))
        laws = len(MATRIX_STATES) * len(MC_ETAS) * len(pom.SCHEMES)
        assert len(table_builds) == laws == 72

    def test_held_tables_stay_within_the_byte_budget(self, table_builds, monkeypatch):
        # stubbed laws of a third of the budget and a byte each: two fit at once
        budget = montecarlo.LAW_CACHE_BYTES

        class LargeGuide(montecarlo.GuideTable):
            nbytes = budget // 3 + 1

        monkeypatch.setattr(montecarlo, "GuideTable", LargeGuide)
        law = partial(montecarlo._run_law, StateSpec.coherent(1.0), "direct")
        held = []
        first = law(0.5)
        held.append(montecarlo._run_law.cache_bytes())
        law(0.25)
        held.append(montecarlo._run_law.cache_bytes())
        # a hit makes 0.5 the most recently used, so 0.125 evicts 0.25
        assert law(0.5) is first
        third = law(0.125)
        held.append(montecarlo._run_law.cache_bytes())
        assert table_builds == ["guide"] * 3
        assert law(0.5) is first and law(0.125) is third
        law(0.25)
        held.append(montecarlo._run_law.cache_bytes())
        assert table_builds == ["guide"] * 4
        assert held == [budget // 3 + 1] + [2 * (budget // 3 + 1)] * 3

    def test_a_law_past_the_budget_is_kept_alone(self, table_builds, monkeypatch):
        class HugeGuide(montecarlo.GuideTable):
            nbytes = montecarlo.LAW_CACHE_BYTES + 1

        monkeypatch.setattr(montecarlo, "GuideTable", HugeGuide)
        law = partial(montecarlo._run_law, StateSpec.coherent(1.0), "direct")
        law(0.5)
        second = law(0.25)
        assert law(0.25) is second
        assert montecarlo._run_law.cache_bytes() == montecarlo.LAW_CACHE_BYTES + 1
        assert table_builds == ["guide"] * 2

    def test_laws_hash_with_their_table(self):
        table = build_inverse_cdf(lambda x: x, (0.0, 1.0))
        law = montecarlo._RunLaw("roulette", 0.5, table)
        assert law == montecarlo._RunLaw("roulette", 0.5, table)
        assert hash(law) == hash(montecarlo._RunLaw("roulette", 0.5, table))
        assert law != montecarlo._RunLaw("roulette", 0.5, build_inverse_cdf(lambda x: x, (0.0, 1.0)))

    @pytest.mark.parametrize(
        "pmf", [[0.5, math.nan, 0.5], [1.5, -0.5], [0.5, 0.4], [math.inf, 0.0]]
    )
    def test_bad_pmf_is_a_numerical_failure(self, pmf, monkeypatch):
        monkeypatch.setattr(montecarlo, "direct_detection_pmf", lambda stats, eta: np.array(pmf))
        with pytest.raises(NumericalError):
            montecarlo._run_law.__wrapped__(StateSpec.vacuum(), "direct", 0.5)


def dense_ks(table, spec, eta, exact_cdf=roulette_cdf_abs_x):
    """Largest gap between a sampling table and the exact CDF it tabulates, over
    10^5 + 1 points spanning the table."""
    s = np.linspace(0.0, table.grid[-1], 100_001)
    exact = exact_cdf(photon_distribution(spec), s, eta)
    return float(np.max(np.abs(table.cdf_at(s) - exact)))


class TestRouletteTable:
    @pytest.mark.parametrize("eta", MC_ETAS)
    @pytest.mark.parametrize("label, spec", MATRIX_STATES)
    def test_matrix_tables_meet_their_tolerance(self, label, spec, eta):
        table = montecarlo._run_law(spec, "roulette", eta).table
        assert dense_ks(table, spec, eta) <= 1e-6

    @pytest.mark.parametrize(
        "n, eta", [(10, 1.0), (340, 1.0), (958, 1.0), (960, 1.0), (1000, 1.0)]
        + [(10, 0.99), (340, 0.99), (1000, 0.99)],
    )
    def test_fock_tables_meet_their_tolerance(self, n, eta):
        # a strided sweep to n = 1000, about one density lobe per order; the
        # tables, up to 35 000 nodes, stay out of the cache the other tests share
        spec = StateSpec.fock(n)
        table = montecarlo._run_law.__wrapped__(spec, "roulette", eta).table
        assert dense_ks(table, spec, eta) <= 1e-6


class TestHeterodyneTable:
    @pytest.mark.parametrize("eta", MC_ETAS)
    @pytest.mark.parametrize("label, spec", MATRIX_STATES)
    def test_matrix_tables_meet_their_tolerance(self, label, spec, eta):
        table = montecarlo._run_law(spec, "heterodyne", eta).table
        assert dense_ks(table, spec, eta, heterodyne_cdf_v) <= 1e-6

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize(
        "spec, law",
        [
            # the Husimi law of a coherent state is a complex Gaussian about its
            # amplitude, so 2 v is noncentral chi-square with 2 degrees of freedom
            (StateSpec.coherent(2000.0), lambda v, eta: scipy_stats.ncx2.cdf(2 * v, 2, 4000 * eta)),
            # and that of a thermal state is centred, so v is exponential, mean N + 1
            (StateSpec.thermal(50.0), lambda v, eta: -np.expm1(-v / (50.0 * eta + 1.0))),
        ],
        ids=["coherent2000", "thermal50"],
    )
    def test_bright_tables_meet_their_tolerance(self, spec, law, eta):
        # against closed forms of the untruncated states, which the exact CDF
        # matches to about 1e-13 but costs seconds to evaluate on 10^5 points;
        # the tables stay out of the cache the other tests share
        table = montecarlo._run_law.__wrapped__(spec, "heterodyne", eta).table
        assert dense_ks(table, spec, eta, lambda stats, v, eta: law(v, eta)) <= 1e-6


class TestWindowedHeterodyneTables:
    """Seeded heterodyne bytes: the windowed Poisson mixture builds the tables
    the sum over every order builds, bit for bit."""

    @pytest.mark.parametrize(
        "spec, eta",
        [(spec, eta) for _, spec in MATRIX_STATES for eta in MC_ETAS]
        + [(StateSpec.coherent(100.0), 0.5), (StateSpec.fock(200), 0.5)],
    )
    def test_tables_match_the_every_order_sum(self, spec, eta, monkeypatch):
        windowed = montecarlo._run_law.__wrapped__(spec, "heterodyne", eta).table
        monkeypatch.setattr(pom, "_poisson_mixture", full_order_poisson_mixture)
        full = montecarlo._run_law.__wrapped__(spec, "heterodyne", eta).table
        np.testing.assert_array_equal(windowed.grid, full.grid)
        np.testing.assert_array_equal(windowed.cdf, full.cdf)


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
        for scheme in ("roulette", "heterodyne"):
            base = config(StateSpec.coherent(1.0), scheme, 0.5, n=3 * 10**5)
            parallel = config(StateSpec.coherent(1.0), scheme, 0.5, n=3 * 10**5, workers=workers)
            serial_summary = run_sampling(base)
            parallel_summary = run_sampling(parallel)
            assert serial_summary.to_dict() == parallel_summary.to_dict(), scheme
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


class InProcessPool:
    """A pool whose tasks run in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPipeline:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_each_stage_runs_once(self, scheme, workers, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(montecarlo, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("_check_spread", "exact_moments", "_histogram_bins", "_batch_reduction"):
            monkeypatch.setattr(montecarlo, name, counted(name))
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        n = 3 * montecarlo.CHUNK_SIZE
        cfg = config(StateSpec.coherent(4.0), scheme, 0.5, n=n, workers=workers)
        assert run_sampling(cfg).n_samples == cfg.n_samples
        stages = ["_histogram_bins", "_check_spread", "exact_moments"]
        assert calls == stages + ["_batch_reduction"] * workers

    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_stacked_rows_fold_to_the_run(self, scheme):
        # three whole chunks and a partial one
        n = 3 * montecarlo.CHUNK_SIZE + 12345
        cfg = config(StateSpec.squeezed(2.0, 0.5), scheme, 0.5, n=n)
        _, centres = montecarlo._histogram_bins(cfg)
        rows = montecarlo.draw_outcomes(cfg)
        stacked = rows.tobytes()
        folded = montecarlo._summarize(rows, centres, cfg)
        assert json.dumps(folded.to_dict()) == json.dumps(run_sampling(cfg).to_dict())
        # the fold leaves the rows it reads as they were
        assert rows.tobytes() == stacked


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
    return montecarlo._run_law(cfg.state, cfg.detector.scheme, cfg.detector.eta)


class TestReduction:
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_merged_chunks_match_the_concatenated_outcomes(self, scheme):
        n = 3 * montecarlo.CHUNK_SIZE + 12345
        cfg = config(StateSpec.coherent(4.0), scheme, 0.5, n=n)
        summary = run_sampling(cfg)
        sizes = [montecarlo.CHUNK_SIZE] * 3 + [12345]
        outcomes = np.concatenate(
            [
                montecarlo._chunk_outcomes(run_law(cfg), SEED, index, size)
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

    def test_direct_bins_end_where_the_run_law_does(self):
        # at 10^12 draws 1 - 0.1/n passes the truncated pmf's mass; the bins
        # follow the normalised law the draws come from, which ends near m = 78
        eta, n = 0.01, 10**12
        cfg = config(StateSpec.coherent(3000.0), "direct", eta, n=n)
        edges, _ = montecarlo._histogram_bins(cfg)
        m_hi = run_law(cfg).table.rank(1.0 - 0.1 / n)
        assert edges[-1] <= (m_hi + 0.5) / eta * (1.0 + 1e-12)

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_zero_mean_coherent_state_samples_as_the_vacuum(self, scheme):
        coherent = run_sampling(config(StateSpec.coherent(0), scheme, 0.5, n=10**5))
        vacuum = run_sampling(config(StateSpec.vacuum(), scheme, 0.5, n=10**5))
        assert coherent.state == "kind=coherent N=0.0"
        assert dataclasses.replace(coherent, state=vacuum.state) == vacuum

    def test_point_mass_keeps_one_bin(self):
        summary = sample_direct(config(StateSpec.fock(3), "direct", 1.0, n=10**5))
        assert summary.bin_centers == (3.0,)
        assert summary.bin_counts == (10**5,)

    def test_run_memory_is_flat_in_its_chunk_count(self, monkeypatch):
        # a fixed 515-float row stands for each chunk, so nothing is drawn: held
        # until the fold, the rows of 10^4 chunks would take 41 MB
        def fixed_row(law, seed, chunk_index, size, edges):
            row = np.zeros(515)
            row[0] = row[3] = size
            return row

        monkeypatch.setattr(montecarlo, "_chunk_reduction", fixed_row)
        peaks = []
        for chunks in (10, 10_000):
            n = chunks * montecarlo.CHUNK_SIZE - 5
            cfg = config(StateSpec.squeezed(2.0, 0.5), "heterodyne", 0.5, n=n)
            run_law(cfg)  # the law is built before the trace
            tracemalloc.start()
            try:
                summary = run_sampling(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.n_samples == cfg.n_samples
        assert peaks[1] < peaks[0] + 64 * 1024, peaks

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


def reference_chunk_outcomes(pmf, law, seed, chunk_index, size):
    """One chunk drawn by np.interp on law's table, or by Generator.choice on
    the thinned pmf for direct detection: the binary searches the guide-table
    lookup replaces."""
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(montecarlo._SCHEME_INDEX[law.scheme], chunk_index)
        )
    )
    if law.scheme == "direct":
        return rng.choice(len(pmf), size=size, p=pmf) / law.eta
    q = np.interp(rng.random(size), law.table.cdf, law.table.grid)
    return intensity_estimator(q, law.eta) if law.scheme == "roulette" else (q - 1.0) / law.eta


def draw_by_reference(cfg, monkeypatch):
    """Draw every chunk by reference_chunk_outcomes from here on, from cfg's law."""
    pmf = direct_detection_pmf(photon_distribution(cfg.state), cfg.detector.eta)
    monkeypatch.setattr(montecarlo, "_chunk_outcomes", partial(reference_chunk_outcomes, pmf))


class TestGuideLookupDraws:
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_runs_match_interp_and_choice_bitwise(self, scheme, monkeypatch):
        configs = [
            config(spec, scheme, eta, n=2 * montecarlo.CHUNK_SIZE + 5, seed=11)
            for _, spec in MATRIX_STATES
            for eta in MC_ETAS
        ]
        actual = [json.dumps(run_sampling(cfg).to_dict()) for cfg in configs]
        for cfg, summary in zip(configs, actual):
            draw_by_reference(cfg, monkeypatch)
            assert json.dumps(run_sampling(cfg).to_dict()) == summary, cfg


def public_outcomes(law, u):
    """law.outcomes(u) through its table's public rank and sample, which clamp
    their points to the table's range."""
    if law.scheme == "direct":
        return law.table.rank(u) / law.eta
    q = law.table.sample(u)
    return intensity_estimator(q, law.eta) if law.scheme == "roulette" else (q - 1.0) / law.eta


# the CI byte loop's bright laws, thousands of nodes each, beside the matrix
BRIGHT_LAWS = [
    (StateSpec.coherent(3000.0), "heterodyne", 0.5),
    (StateSpec.coherent(2000.0), "roulette", 0.5),
]


class TestUnclampedMapping:
    """A run law maps generator uniforms, which lie in [0, 1), through its
    table without clamping them: every run law's table must span them."""

    @staticmethod
    def laws(scheme):
        matrix = [(spec, scheme, eta) for _, spec in MATRIX_STATES for eta in MC_ETAS]
        return matrix + [law for law in BRIGHT_LAWS if law[1] == scheme]

    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_every_run_law_table_spans_the_unit_interval(self, scheme):
        for key in self.laws(scheme):
            table = montecarlo._run_law(*key).table
            assert table.cdf[-1] == 1.0 and table._lo <= 0.0, key

    @pytest.mark.parametrize("scheme", pom.SCHEMES)
    def test_run_law_outcomes_are_the_public_lookups_bitwise(self, scheme):
        for key in self.laws(scheme):
            law = montecarlo._run_law(*key)
            u = np.concatenate(([0.0, 2.0**-53, np.nextafter(1.0, 0.0)], law.table.cdf))
            expected = public_outcomes(law, u)
            assert law.outcomes(u.copy()).tobytes() == expected.tobytes(), key


def full_array_reduction(law, seed, chunk_index, size, edges):
    """One chunk mapped and reduced as whole arrays: the arithmetic that the
    block loops of _chunk_outcomes and _chunk_reduction split up."""
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(montecarlo._SCHEME_INDEX[law.scheme], chunk_index)
        )
    )
    x = law.outcomes(rng.random(size))
    mean = x.mean()
    bins = len(edges) - 1
    index = (x - edges[0]) * (bins / (edges[-1] - edges[0]))
    counts = np.bincount(np.clip(index, 0, bins - 1).astype(np.intp), minlength=bins)
    row = np.concatenate(([size, mean, np.sum(np.square(x - mean))], counts))
    return x, row


# a segment whose np.interp slope overflows (1.5e308 / 0.001): draws inside it are inf
STEEP_TABLE = DensityTable(
    grid=np.array([0.0, 1.0, 2.0, 1.5e308]),
    cdf=np.array([0.0, 0.5, 0.999, 1.0]),
    domain=(0.0, 1.5e308),
)
BLOCK = montecarlo.BLOCK_SIZE
CHUNK_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, montecarlo.CHUNK_SIZE - 1, montecarlo.CHUNK_SIZE]


class TestBlockKernel:
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_rows_match_the_full_array_arithmetic_bitwise(self, scheme, size):
        for spec, eta in [(StateSpec.coherent(4.0), 0.5), (StateSpec.squeezed(2.0, 0.5), 1.0)]:
            cfg = config(spec, scheme, eta)
            law, (edges, _) = run_law(cfg), montecarlo._histogram_bins(cfg)
            expected, row = full_array_reduction(law, SEED, 3, size, edges)
            actual = montecarlo._chunk_outcomes(law, SEED, 3, size)
            assert actual.tobytes() == expected.tobytes()
            reduced = montecarlo._chunk_reduction(law, SEED, 3, size, edges)
            assert reduced.tobytes() == row.tobytes()

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne"])
    def test_steep_segment_matches_bitwise(self, scheme, size):
        law, edges = montecarlo._RunLaw(scheme, 0.5, STEEP_TABLE), np.linspace(-1.0, 3.0, 65)
        # the inf draws make the mean inf and the deviations nan, alike on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            expected, row = full_array_reduction(law, SEED, 0, size, edges)
            actual = montecarlo._chunk_outcomes(law, SEED, 0, size)
            reduced = montecarlo._chunk_reduction(law, SEED, 0, size, edges)
        if size >= BLOCK:
            assert np.isinf(expected).any() and np.isfinite(expected).any()
        assert actual.tobytes() == expected.tobytes()
        assert reduced.tobytes() == row.tobytes()

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_run_matches_interp_and_choice_bitwise(self, scheme, monkeypatch):
        n = montecarlo.CHUNK_SIZE + BLOCK + 17
        configs = [
            config(spec, scheme, eta, n=n, seed=5)
            for spec in (StateSpec.fock(3), StateSpec.thermal(1.0), StateSpec.coherent(100.0))
            for eta in (1.0, 0.5)
        ]
        actual = [montecarlo.draw_outcomes(cfg).tobytes() for cfg in configs]
        for cfg, rows in zip(configs, actual):
            draw_by_reference(cfg, monkeypatch)
            assert montecarlo.draw_outcomes(cfg).tobytes() == rows, cfg

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    def test_chunk_holds_one_chunk_size_array(self, scheme):
        cfg = config(StateSpec.squeezed(2.0, 0.5), scheme, 0.5)
        law, (edges, _) = run_law(cfg), montecarlo._histogram_bins(cfg)
        reduce_chunk = partial(montecarlo._chunk_reduction, law, SEED)
        reduce_chunk(0, montecarlo.CHUNK_SIZE, edges)
        tracemalloc.start()
        try:
            reduce_chunk(1, montecarlo.CHUNK_SIZE, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * montecarlo.CHUNK_SIZE, peak / (8 * montecarlo.CHUNK_SIZE)


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
