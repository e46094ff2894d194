import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import eval_laguerre, i0e

from conftest import DENSITY_ETAS, MATRIX_STATES
from qroulette import pom
from qroulette.errors import ValidationError
from qroulette.numerics import gauss_legendre_grid, integrate
from qroulette.pom import (
    DetectorConfig,
    direct_detection_pmf,
    heterodyne_density_I,
    heterodyne_outcome_moment,
    roulette_density_x,
    roulette_density_y,
    roulette_outcome_moment,
    thinned_distribution,
)
from qroulette.noise import heterodyne_variance, roulette_variance
from qroulette.states import StateSpec, moments, photon_distribution

VACUUM = photon_distribution(StateSpec.vacuum())
FOCK1 = photon_distribution(StateSpec.fock(1))
FOCK2 = photon_distribution(StateSpec.fock(2))


class TestDetectorConfig:
    def test_smearing_variance_is_derived(self):
        config = DetectorConfig("roulette", 0.5)
        assert config.smearing_variance == pytest.approx(0.25)
        assert DetectorConfig("direct", 1.0).smearing_variance == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DetectorConfig("homodyne", 1.0)
        with pytest.raises(ValidationError):
            DetectorConfig("roulette", 0.0)
        with pytest.raises(ValidationError):
            DetectorConfig("roulette", 1.2)

    def test_eta_not_a_number(self):
        with pytest.raises(ValidationError, match="'eta'"):
            DetectorConfig("direct", "abc")


class TestRouletteDensityX:
    def test_vacuum_closed_form(self):
        xs = np.linspace(-2.0, 2.0, 9)
        expected = math.sqrt(2 / math.pi) * np.exp(-2 * xs**2)
        assert roulette_density_x(VACUUM, xs) == pytest.approx(expected, rel=1e-12)

    def test_fock_one_closed_form(self):
        xs = np.linspace(-2.0, 2.0, 9)
        expected = 4 * xs**2 * math.sqrt(2 / math.pi) * np.exp(-2 * xs**2)
        assert roulette_density_x(FOCK1, xs) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_half_efficiency_is_wider_gaussian(self):
        # N(0, 1/4) smeared by N(0, 1/4) has density exp(-x^2)/sqrt(pi)
        xs = np.linspace(-3.0, 3.0, 11)
        expected = np.exp(-(xs**2)) / math.sqrt(math.pi)
        assert roulette_density_x(VACUUM, xs, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_smearing_matches_direct_convolution(self):
        # independent route: numerically convolve the ideal density with the
        # smearing Gaussian instead of using the thinned-state closed form
        eta = 0.5
        sigma = math.sqrt((1 - eta) / (4 * eta))
        for x in (0.0, 0.4, 1.1):
            direct_route = integrate(
                lambda t: roulette_density_x(FOCK2, x - t)
                * math.exp(-t * t / (2 * sigma * sigma))
                / math.sqrt(2 * math.pi * sigma * sigma),
                -np.inf,
                np.inf,
                1e-11,
            )
            assert roulette_density_x(FOCK2, x, eta) == pytest.approx(direct_route, abs=1e-9)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, 1e200, -1e200, 1e155, 1e11, 1e10])
    def test_far_points_are_zero_without_warnings(self, x, eta):
        stats = photon_distribution(StateSpec.coherent(4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert roulette_density_x(stats, x, eta) == 0.0
            assert roulette_density_x(stats, np.array([x, -x]), eta).tolist() == [0.0, 0.0]


class TestRouletteDensityY:
    def test_vacuum_closed_form(self):
        ys = np.linspace(-0.45, 4.0, 12)
        expected = np.exp(-(ys + 0.5)) / np.sqrt(math.pi * (ys + 0.5))
        assert roulette_density_y(VACUUM, ys) == pytest.approx(expected, rel=1e-12)

    def test_outside_support_is_zero(self):
        assert roulette_density_y(VACUUM, -0.6) == 0.0
        assert roulette_density_y(FOCK2, -1.1, 0.5) == 0.0

    def test_boundary_one_sided_limits(self):
        assert roulette_density_y(VACUUM, -0.5) == math.inf
        assert roulette_density_y(FOCK1, -0.5) == 0.0
        assert roulette_density_y(VACUUM, -1.0, 0.5) == math.inf

    def test_fock_mean_is_unbiased(self):
        for n in (0, 1, 2, 5):
            stats = photon_distribution(StateSpec.fock(n))
            assert roulette_outcome_moment(stats, 1.0, 1) == pytest.approx(n, abs=1e-8)


class TestHeterodyneDensity:
    def test_vacuum_closed_form(self):
        intensities = np.linspace(-1.0, 4.0, 11)
        expected = np.exp(-(intensities + 1.0))
        assert heterodyne_density_I(VACUUM, intensities) == pytest.approx(expected, rel=1e-12)

    def test_fock_one_closed_form(self):
        intensities = np.linspace(-0.9, 4.0, 11)
        expected = np.exp(-(intensities + 1.0)) * (intensities + 1.0)
        assert heterodyne_density_I(FOCK1, intensities) == pytest.approx(expected, rel=1e-12)

    def test_boundary_and_support(self):
        assert heterodyne_density_I(VACUUM, -1.0) == pytest.approx(1.0)
        assert heterodyne_density_I(VACUUM, -1.2) == 0.0
        assert heterodyne_density_I(VACUUM, -2.2, 0.5) == 0.0

    def test_mean_equals_mean_photon_number(self):
        for label, spec in MATRIX_STATES:
            stats = photon_distribution(spec)
            mean, _, _ = moments(stats)
            for eta in (1.0, 0.5):
                assert heterodyne_outcome_moment(stats, eta, 1) == pytest.approx(
                    mean, abs=1e-6
                ), label

    def test_smearing_matches_noncentral_convolution(self):
        # independent route: the smeared |alpha|^2 law is the Husimi radial
        # law pushed through a noncentral chi-square kernel with two degrees
        # of freedom
        eta = 0.5
        sigma_sq = (1 / eta - 1) / 2
        for intensity in (-1.5, 0.0, 1.0):
            u = intensity + 1 / eta

            def kernel(v, u=u):
                radial = math.exp(-v) * v  # |alpha|^2 law of fock(1) at eta = 1
                bessel = i0e(math.sqrt(u * v) / sigma_sq)
                gauss = math.exp(-((math.sqrt(u) - math.sqrt(v)) ** 2) / (2 * sigma_sq))
                return radial * bessel * gauss / (2 * sigma_sq)

            expected = integrate(kernel, 0.0, np.inf, 1e-11)
            assert heterodyne_density_I(FOCK1, intensity, eta) == pytest.approx(
                expected, abs=1e-9
            )


class TestPoissonMixture:
    @pytest.mark.parametrize("length", [1, 512, 513, 1100])
    @pytest.mark.parametrize("label, spec", MATRIX_STATES)
    def test_blocks_match_direct_sum(self, length, label, spec):
        # 513 and 1100 end in a shorter block written into the reused buffer
        rho = photon_distribution(spec).rho
        n = np.arange(len(rho))
        for u in (np.linspace(0.0, 40.0, length), np.full(length, 7.3)):
            expected = np.array([rho @ scipy_stats.poisson.pmf(n, v) for v in u])
            np.testing.assert_allclose(
                pom._poisson_mixture(rho, u), expected, rtol=1e-14, atol=0.0, err_msg=label
            )


class TestHeterodyneFockClosedForm:
    @pytest.mark.parametrize("eta", [0.75, 0.25, 0.1])
    def test_laguerre_law(self, eta):
        # p(I) = eta (1-eta)^n L_n(-u eta^2/(1-eta)) e^{-eta u}, u = I + 1/eta:
        # the Fock law of the added complex Gaussian, independent of thinning
        intensities = np.linspace(-1.0 / eta, 30.0, 41)
        u = intensities + 1.0 / eta
        for n in range(11):
            stats = photon_distribution(StateSpec.fock(n))
            expected = (
                eta
                * (1.0 - eta) ** n
                * eval_laguerre(n, -u * eta * eta / (1.0 - eta))
                * np.exp(-eta * u)
            )
            assert heterodyne_density_I(stats, intensities, eta) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            ), n


class TestThinning:
    @staticmethod
    def loop_reference(rho, eta):
        out = np.zeros_like(rho)
        for n in range(len(rho)):
            if rho[n] != 0.0:
                out[: n + 1] += rho[n] * scipy_stats.binom.pmf(np.arange(n + 1), n, eta)
        return out

    @pytest.mark.parametrize(
        "spec",
        [StateSpec.coherent(4.0), StateSpec.squeezed(2.0, 0.5), StateSpec.fock(270),
         StateSpec.coherent(100.0), StateSpec.thermal(10.0)],
        ids=lambda spec: spec.describe(),
    )
    @pytest.mark.parametrize("eta", [0.75, 0.5, 0.1, 1e-6])
    def test_matches_loop_reference(self, spec, eta):
        # the log-binomial sum loses about eps * ln(n_max!) relative to the
        # loop over the binomial pmf, 2.5e-13 at n_max = 270; thermal N=10
        # (n_max 338) spans two row blocks
        rho = photon_distribution(spec).rho
        assert thinned_distribution(rho, eta) == pytest.approx(
            self.loop_reference(rho, eta), rel=1e-12, abs=1e-14
        )

    def test_roulette_normalisation_thins_once(self, monkeypatch):
        calls = []

        def counting(rho, eta):
            calls.append(eta)
            return thinned_distribution(rho, eta)

        pom._thinned_law.cache_clear()
        monkeypatch.setattr(pom, "thinned_distribution", counting)
        stats = photon_distribution(StateSpec.squeezed(2.0, 0.5))
        for eta in (0.5, 0.1):
            total = integrate(lambda x: roulette_density_x(stats, x, eta), -np.inf, np.inf, 1e-9)
            assert total == pytest.approx(1.0, abs=1e-7)
        assert calls == [0.5, 0.1]

    def test_shared_law_is_read_only_and_pmf_is_fresh(self):
        stats = photon_distribution(StateSpec.coherent(4.0))
        assert not pom._thinned(stats, 0.5).flags.writeable
        pmf = direct_detection_pmf(stats, 0.5)
        pmf[:] = 0.0
        assert direct_detection_pmf(stats, 0.5).sum() == pytest.approx(1.0, abs=1e-12)


class TestDirectDetection:
    def test_fock_one_half_efficiency(self):
        assert direct_detection_pmf(FOCK1, 0.5) == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_identity_at_unit_efficiency(self):
        for n in (0, 1, 4):
            stats = photon_distribution(StateSpec.fock(n))
            pmf = direct_detection_pmf(stats, 1.0)
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            assert pmf == pytest.approx(expected)

    def test_thinned_coherent_is_poisson(self):
        stats = photon_distribution(StateSpec.coherent(3.0), 1e-12)
        for eta in (0.75, 0.4):
            pmf = direct_detection_pmf(stats, eta)
            expected = scipy_stats.poisson.pmf(np.arange(len(pmf)), eta * 3.0)
            assert pmf == pytest.approx(expected, abs=1e-10)

    def test_pmf_sums_to_one(self):
        for label, spec in MATRIX_STATES:
            stats = photon_distribution(spec)
            for eta in DENSITY_ETAS:
                total = direct_detection_pmf(stats, eta).sum()
                assert abs(total - 1.0) <= 1e-12 + stats.tail_bound, label

    def test_exact_variance_identity(self):
        # Var(m / eta) = <dn^2> + <n>(1/eta - 1), an exact finite-sum identity
        from qroulette.noise import direct_variance

        for label, spec in MATRIX_STATES:
            rho = photon_distribution(spec).rho
            rho = rho / rho.sum()
            stats = photon_distribution(spec)
            mean, mean_sq, _ = moments(stats)
            for eta in DENSITY_ETAS:
                pmf = direct_detection_pmf(stats, eta)
                pmf = pmf / pmf.sum()
                outcomes = np.arange(len(pmf)) / eta
                var = float(np.dot(outcomes**2, pmf) - np.dot(outcomes, pmf) ** 2)
                assert var == pytest.approx(
                    direct_variance(mean, mean_sq, eta), abs=1e-9
                ), (label, eta)


class TestMomentIdentities:
    @pytest.mark.parametrize("eta", DENSITY_ETAS)
    def test_normalization_across_matrix(self, matrix_stats, eta):
        for label, stats in matrix_stats.items():
            assert roulette_outcome_moment(stats, eta, 0) == pytest.approx(
                1.0, abs=1e-7
            ), label
            assert heterodyne_outcome_moment(stats, eta, 0) == pytest.approx(
                1.0, abs=1e-7
            ), label

    @pytest.mark.parametrize("eta", DENSITY_ETAS)
    def test_unbiasedness_across_matrix(self, matrix_stats, eta):
        for label, stats in matrix_stats.items():
            mean, _, _ = moments(stats)
            assert roulette_outcome_moment(stats, eta, 1) == pytest.approx(
                mean, abs=1e-6
            ), label

    @pytest.mark.parametrize("eta", DENSITY_ETAS)
    def test_roulette_second_moment_identity(self, matrix_stats, eta):
        for label, stats in matrix_stats.items():
            mean, mean_sq, _ = moments(stats)
            variance = (
                roulette_outcome_moment(stats, eta, 2)
                - roulette_outcome_moment(stats, eta, 1) ** 2
            )
            assert variance == pytest.approx(
                roulette_variance(mean, mean_sq, eta), abs=1e-6
            ), label

    @pytest.mark.parametrize("eta", DENSITY_ETAS)
    def test_heterodyne_second_moment_identity(self, matrix_stats, eta):
        # <I^2> = <n^2> + (2/eta - 1)<n> + 1/eta^2, equivalently the variance
        # formula after subtracting <I>^2 = <n>^2
        for label, stats in matrix_stats.items():
            mean, mean_sq, _ = moments(stats)
            second = heterodyne_outcome_moment(stats, eta, 2)
            expected = mean_sq + (2.0 / eta - 1.0) * mean + 1.0 / eta**2
            assert second == pytest.approx(expected, abs=1e-6), label
            variance = second - heterodyne_outcome_moment(stats, eta, 1) ** 2
            assert variance == pytest.approx(
                heterodyne_variance(mean, mean_sq, eta), abs=1e-6
            ), label

    def test_heterodyne_grid_does_not_grow_as_eta_falls(self, monkeypatch):
        sizes = []

        def recording(lower, upper, panels, *args):
            sizes.append(panels)
            return gauss_legendre_grid(lower, upper, panels, *args)

        monkeypatch.setattr(pom, "gauss_legendre_grid", recording)
        stats = photon_distribution(StateSpec.coherent(4.0))
        mean, mean_sq, _ = moments(stats)
        for eta in (1.0, 0.01):
            second = heterodyne_outcome_moment(stats, eta, 2)
            expected = mean_sq + (2.0 / eta - 1.0) * mean + 1.0 / eta**2
            assert second == pytest.approx(expected, rel=1e-10)
        assert sizes[0] == sizes[1]
