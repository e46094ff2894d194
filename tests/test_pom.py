import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import eval_laguerre, i0e

from conftest import DENSITY_ETAS, MATRIX_STATES, MC_ETAS, full_order_poisson_mixture
from qroulette import numerics, pom
from qroulette.errors import NumericalError, ValidationError
from qroulette.numerics import integrate
from qroulette.pom import (
    DetectorConfig,
    direct_detection_cdf,
    direct_detection_pmf,
    heterodyne_cdf_v,
    heterodyne_density_I,
    heterodyne_outcome_moment,
    roulette_cdf_abs_x,
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
FOCK3 = photon_distribution(StateSpec.fock(3))


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

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_nan_points_give_nan_without_warnings(self, eta):
        stats = photon_distribution(StateSpec.coherent(4.0))
        finite = roulette_density_x(stats, np.array([1.0]), eta)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(roulette_density_x(stats, math.nan, eta))
            density = roulette_density_x(stats, np.array([math.nan, 1.0]), eta)
            assert math.isnan(density[0]) and density[1] == finite
            assert math.isnan(roulette_cdf_abs_x(stats, math.nan, eta))
            assert np.isnan(roulette_cdf_abs_x(stats, np.array([math.nan, 1.0]), eta)[0])


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

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_nan_and_zero_d_points_match_the_other_densities(self, eta):
        stats, floor = photon_distribution(StateSpec.coherent(4.0)), -0.5 / eta
        points = [math.nan, floor - 1.0, floor, 0.3, math.inf]
        ones = roulette_density_y(stats, np.array(points), eta)
        assert ones.shape == (5,) and math.isnan(ones[0])
        assert ones[1:].tolist() == [0.0, math.inf, ones[3], 0.0] and ones[3] > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y, expected in zip(points, ones):
                scalar = roulette_density_y(stats, y, eta)
                zero_d = roulette_density_y(stats, np.array(y), eta)
                assert type(scalar) is float and np.shape(zero_d) == ()
                assert np.array([scalar, zero_d]).tobytes() == np.array([expected] * 2).tobytes(), y
        assert math.isnan(roulette_density_x(stats, math.nan, eta))
        assert np.shape(heterodyne_density_I(stats, np.array(0.3), eta)) == ()

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


BRIGHT_STATES = [
    ("coherent2000", StateSpec.coherent(2000.0)),
    ("thermal50", StateSpec.thermal(50.0)),
    ("fock4000", StateSpec.fock(4000)),
]


class TestPoissonWindow:
    """Each point summed over the orders of its Fox-Glynn window, against the
    sum over every order, in the order the mixture sums the points."""

    @staticmethod
    def every_order(monkeypatch, law, stats, points, eta):
        with monkeypatch.context() as patched:
            patched.setattr(pom, "_poisson_mixture", full_order_poisson_mixture)
            return law(stats, points, eta)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("label, spec", MATRIX_STATES + BRIGHT_STATES)
    def test_error_is_below_1e_20(self, label, spec, eta, monkeypatch):
        # increasing v from 0 to far beyond n_max, as quadrature nodes come, and
        # single points, as adaptive quadrature asks for them
        stats = photon_distribution(spec)
        v = np.linspace(0.0, 3.0 * stats.n_max + 300.0, 4001)
        for law, points in ((heterodyne_density_I, (v - 1.0) / eta), (heterodyne_cdf_v, v)):
            full = self.every_order(monkeypatch, law, stats, points, eta)
            assert np.abs(law(stats, points, eta) - full).max() <= 1e-20, law.__name__
            for point in points[::80]:
                single = self.every_order(monkeypatch, law, stats, float(point), eta)
                assert abs(law(stats, float(point), eta) - single) <= 1e-20, (law.__name__, point)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("label, spec", BRIGHT_STATES)
    def test_shuffled_points_are_summed_in_increasing_order(self, label, spec, eta, monkeypatch):
        # points about the mean in no order, as a table's refinement rounds ask
        # for them: their window leaves out orders, so the mixture sorts them
        stats = photon_distribution(spec)
        mean = eta * moments(stats)[0] + 1.0
        v = np.linspace(0.9 * mean, 1.1 * mean + 20.0, 1500)
        shuffle = np.random.default_rng(7).permutation(len(v))
        for law, points in ((heterodyne_density_I, (v - 1.0) / eta), (heterodyne_cdf_v, v)):
            full = self.every_order(monkeypatch, law, stats, points, eta)[shuffle]
            assert np.abs(law(stats, points[shuffle], eta) - full).max() <= 1e-20, law.__name__

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("label, spec", MATRIX_STATES + BRIGHT_STATES)
    def test_infinite_and_nan_points(self, label, spec, eta):
        stats = photon_distribution(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert heterodyne_density_I(stats, math.inf, eta) == 0.0
            assert math.isnan(heterodyne_density_I(stats, math.nan, eta))
            assert heterodyne_cdf_v(stats, math.inf, eta) == 1.0
            assert math.isnan(heterodyne_cdf_v(stats, math.nan, eta))
            # increasing, so windowed, with inf at the end
            assert heterodyne_density_I(stats, np.array([1.0, math.inf]), eta)[1] == 0.0
            assert heterodyne_cdf_v(stats, np.array([1.0, math.inf]), eta)[1] == 1.0
            assert np.isnan(heterodyne_density_I(stats, np.array([1.0, math.nan]), eta)[1])
            assert np.isnan(heterodyne_cdf_v(stats, np.array([math.nan, 1.0]), eta)[0])


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

    @pytest.mark.parametrize(
        "spec", [StateSpec.coherent(4.0), StateSpec.fock(3)], ids=lambda spec: spec.describe()
    )
    def test_unit_efficiency_is_a_fresh_copy(self, spec):
        # the general sum would take 0 log 0 = nan at k = 0
        rho = photon_distribution(spec).rho
        out = thinned_distribution(rho, 1.0)
        assert out.tobytes() == rho.tobytes() and not np.shares_memory(out, rho)
        assert out.flags.writeable

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

    def test_a_cached_law_copies_no_rho(self):
        import tracemalloc

        stats = photon_distribution(StateSpec.fock(4000))
        first = pom._thinned(stats, 0.5)
        tracemalloc.start()
        try:
            for _ in range(20):
                assert pom._thinned(stats, 0.5) is first
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stats.rho.nbytes // 4, peak

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


MOMENTS = [roulette_outcome_moment, heterodyne_outcome_moment]
MOMENT_STATES = MATRIX_STATES + [
    ("fock200", StateSpec.fock(200)),
    ("coherent100", StateSpec.coherent(100.0)),
    ("thermal50", StateSpec.thermal(50.0)),
]
MOMENT_ORDERS = range(5)


def roulette_diagonals(length):
    """<m|Y^k|m> for m < length and k = 0..4, with Y = n + (a^2 + a+^2)/2 = 2 x^2 - 1/2
    in the vacuum-variance-1/4 convention.  Y is banded, so its powers are applied to
    the identity, truncated 4 orders past the last m, where Y^2 |m> ends."""
    dim = length + 4
    n = np.arange(dim, dtype=float)
    hop = 0.5 * np.sqrt(n[1:-1] * n[2:])[:, None]  # <i|Y|i+2>

    def apply(cols):
        out = n[:, None] * cols
        out[:-2] += hop * cols[2:]
        out[2:] += hop * cols[:-2]
        return out

    first = apply(np.eye(dim))
    second = apply(first)
    diagonals = [
        np.ones(dim),
        np.diag(first),
        np.diag(second),
        np.sum(first * second, axis=0),
        np.sum(second * second, axis=0),
    ]
    return [d[:length] for d in diagonals]


def exact_heterodyne_moments(pmf, eta):
    """eta^-k sum_m p_m E[(V - 1)^k] for k = 0..4, V ~ Gamma(m + 1), whose raw
    moments are the rising factorials (m + 1)_j."""
    m = np.arange(len(pmf), dtype=float)
    rising = [np.ones_like(m)]
    for j in range(4):
        rising.append(rising[-1] * (m + 1.0 + j))
    return [
        float(pmf @ sum(math.comb(k, j) * (-1.0) ** (k - j) * rising[j] for j in range(k + 1)))
        / eta**k
        for k in MOMENT_ORDERS
    ]


class TestMomentOracle:
    """Orders 0-4 of both moments against finite sums over the thinned pmf p:
    roulette eta^-k sum_m p_m <m|Y^k|m>, heterodyne eta^-k sum_m p_m E[(V - 1)^k]."""

    @pytest.mark.parametrize("label, spec", MOMENT_STATES)
    def test_orders_match_exact_sums(self, label, spec):
        stats = photon_distribution(spec)
        diagonals = roulette_diagonals(len(stats.rho))
        for eta in (1.0, 0.5, 0.1, 0.01):
            pmf = direct_detection_pmf(stats, eta)
            for moment, exact in (
                (roulette_outcome_moment, [pmf @ d / eta**k for k, d in enumerate(diagonals)]),
                (heterodyne_outcome_moment, exact_heterodyne_moments(pmf, eta)),
            ):
                for order in MOMENT_ORDERS:
                    value = moment(stats, eta, order)
                    assert abs(value - exact[order]) <= 1e-12 * max(1.0, abs(exact[order])), (
                        moment.__name__, eta, order, value, exact[order]
                    )


class TestMomentOrder:
    COHERENT4 = photon_distribution(StateSpec.coherent(4.0))

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("order", [-1, 0.5, 400, 5, "2", None, True, False])
    def test_bad_order_is_rejected(self, moment, order):
        with pytest.raises(ValidationError, match="'order'"):
            moment(self.COHERENT4, 0.5, order)

    @pytest.mark.parametrize("moment", MOMENTS)
    def test_numpy_integer_order_is_accepted(self, moment):
        assert moment(self.COHERENT4, 0.5, np.int64(2)) == moment(self.COHERENT4, 0.5, 2)


class TestMomentSums:
    """The moments are finite sums over the thinned pmf: no density, no grid."""

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("label, spec", MOMENT_STATES + [("fock4000", StateSpec.fock(4000))])
    def test_no_density_or_grid(self, moment, label, spec, monkeypatch):
        calls = []

        def recording(name):
            return lambda *args, **kwargs: calls.append(name)

        for module, name in (
            (pom, "roulette_density_x"),
            (pom, "_poisson_mixture"),
            (numerics, "gauss_legendre_grid"),
        ):
            monkeypatch.setattr(module, name, recording(name))
        stats = photon_distribution(spec)
        for eta in (1.0, 0.5, 0.1):
            for order in MOMENT_ORDERS:
                assert math.isfinite(moment(stats, eta, order)), (eta, order)
        assert calls == []

    def test_heterodyne_second_moment_at_small_eta(self):
        stats = photon_distribution(StateSpec.coherent(4.0))
        mean, mean_sq, _ = moments(stats)
        for eta in (1.0, 0.01):
            second = heterodyne_outcome_moment(stats, eta, 2)
            expected = mean_sq + (2.0 / eta - 1.0) * mean + 1.0 / eta**2
            assert second == pytest.approx(expected, rel=1e-10)

    def test_exact_values(self):
        assert roulette_outcome_moment(FOCK3, 1.0, 2) == 15.5
        assert roulette_outcome_moment(FOCK3, 1.0, 4) == 636.75
        assert heterodyne_outcome_moment(FOCK3, 1.0, 2) == 13.0
        assert heterodyne_outcome_moment(FOCK3, 1.0, 4) == 465.0
        assert roulette_outcome_moment(VACUUM, 0.5, 2) == 2.0
        assert heterodyne_outcome_moment(VACUUM, 0.5, 2) == 4.0

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("eta", [1e-30, 1e-80, 1e-200])
    def test_first_moment_at_tiny_eta(self, moment, eta):
        stats = photon_distribution(StateSpec.coherent(4.0))
        mean = moments(stats)[0]
        assert moment(stats, eta, 1) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("eta", [1e-320, 5e-324])
    def test_moments_at_subnormal_eta(self, moment, eta):
        # the thinned weights are subnormal here; the factorial moments of the state are not
        for mean in (4.0, 4.3):
            stats = photon_distribution(StateSpec.coherent(mean))
            assert moment(stats, eta, 0) == pytest.approx(1.0, rel=1e-12)
            assert moment(stats, eta, 1) == pytest.approx(moments(stats)[0], rel=1e-12)
            with pytest.raises(NumericalError, match=f"{moment.__name__} of order 2 overflows"):
                moment(stats, eta, 2)

    @pytest.mark.parametrize("moment", MOMENTS)
    def test_overflow_is_a_numerical_error(self, moment):
        stats = photon_distribution(StateSpec.coherent(4.0))
        with pytest.raises(NumericalError, match=f"{moment.__name__} .*eta = 1e-80"):
            moment(stats, 1e-80, 4)


class TestExactCdfs:
    """The closed-form CDFs against quadrature of their densities."""

    @pytest.mark.parametrize("eta", MC_ETAS)
    @pytest.mark.parametrize("label, spec", MATRIX_STATES)
    def test_roulette_abs_x(self, label, spec, eta):
        stats = photon_distribution(spec)
        for s in (0.0, 0.4, 1.7, 6.0):
            area = 0.0
            if s:
                area = integrate(lambda x: roulette_density_x(stats, x, eta), -s, s, 1e-14)
            assert roulette_cdf_abs_x(stats, s, eta) == pytest.approx(area, abs=1e-12), s

    @pytest.mark.parametrize("eta", MC_ETAS)
    @pytest.mark.parametrize("label, spec", MATRIX_STATES)
    def test_heterodyne_v(self, label, spec, eta):
        stats = photon_distribution(spec)
        for intensity in (-0.5 / eta, 0.7, 4.0, 12.0):
            area = integrate(
                lambda i: heterodyne_density_I(stats, i, eta), -1.0 / eta, intensity, 1e-14
            )
            v = eta * intensity + 1.0
            assert heterodyne_cdf_v(stats, v, eta) == pytest.approx(area, abs=1e-12), intensity

    @pytest.mark.parametrize("eta", MC_ETAS)
    def test_zero_below_the_support(self, matrix_stats, eta):
        below = np.array([-math.inf, -3.0, -1.0, -1e-300])
        for label, stats in matrix_stats.items():
            for cdf in (roulette_cdf_abs_x, heterodyne_cdf_v):
                assert cdf(stats, -1.0, eta) == 0.0, (label, cdf.__name__)
                np.testing.assert_array_equal(cdf(stats, below, eta), 0.0)

    @pytest.mark.parametrize("eta", MC_ETAS)
    def test_heterodyne_at_infinity(self, matrix_stats, eta):
        # the Poisson mixture must give exactly 0 there, without 0 * inf on the way
        for stats in matrix_stats.values():
            assert heterodyne_density_I(stats, math.inf, eta) == 0.0
            far = np.array([math.inf])
            np.testing.assert_array_equal(heterodyne_density_I(stats, far, eta), 0.0)
            np.testing.assert_array_equal(heterodyne_cdf_v(stats, far, eta), 1.0)

    @pytest.mark.parametrize("eta", MC_ETAS)
    def test_direct_is_the_cumulative_pmf(self, matrix_stats, eta):
        for stats in matrix_stats.values():
            pmf = direct_detection_pmf(stats, eta)
            np.testing.assert_array_equal(direct_detection_cdf(stats, eta), np.cumsum(pmf))
