import cmath
import math

import mpmath
import numpy as np
import pytest

from qroulette.errors import NumericalError, ValidationError
from qroulette.estimators import heterodyne_estimator, intensity_estimator, richter_kernel
from qroulette.pom import roulette_outcome_moment
from qroulette.states import StateSpec, photon_distribution


class TestRichterKernel:
    def test_zero_order_is_one(self):
        for x, phi in ((0.0, 0.0), (1.7, 2.1), (-3.0, 5.5)):
            assert richter_kernel(0, 0, x, phi) == 1.0 + 0.0j

    def test_number_kernel_matches_intensity_estimator(self):
        xs = np.linspace(-4.0, 4.0, 33)
        for x in xs:
            value = richter_kernel(1, 1, float(x), 0.9)
            assert value.imag == 0.0
            assert value.real == pytest.approx(intensity_estimator(float(x)), rel=1e-12)

    def test_mixed_first_order(self):
        for x in (-1.5, 0.25, 2.0):
            for phi in (0.0, 1.0, 4.0):
                expected = 2.0 * x * cmath.exp(1j * phi)
                assert richter_kernel(0, 1, x, phi) == pytest.approx(expected, rel=1e-12)

    def test_phase_independent_iff_diagonal(self):
        phis = np.linspace(0.0, 2 * math.pi, 7, endpoint=False)
        for n in (0, 1, 3):
            reference = richter_kernel(n, n, 0.8, 0.0)
            for phi in phis:
                value = richter_kernel(n, n, 0.8, float(phi))
                assert value.imag == 0.0
                assert value == reference
        offdiag = [richter_kernel(0, 2, 0.8, float(phi)) for phi in phis]
        assert max(abs(a - offdiag[0]) for a in offdiag) > 1e-3

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 50
        for n, m, x in ((10, 7, 0.6), (40, 40, 1.3), (3, 60, -0.4)):
            order = n + m
            exact = mpmath.hermite(order, math.sqrt(2) * mpmath.mpf(x)) / (
                mpmath.mpf(2) ** (order / 2.0) * mpmath.binomial(order, m)
            )
            value = richter_kernel(n, m, x, 0.0)
            assert value.real == pytest.approx(float(exact), rel=1e-9)

    def test_order_cap(self):
        at_cap = richter_kernel(150, 150, 0.3, 0.0)
        assert math.isfinite(at_cap.real) and at_cap.imag == 0.0
        with pytest.raises(NumericalError):
            richter_kernel(200, 101, 0.0, 0.0)

    def test_negative_orders_rejected(self):
        with pytest.raises(ValidationError):
            richter_kernel(-1, 0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "x, phi, name",
        [
            (math.inf, 0.0, "x"),
            (-math.inf, 0.0, "x"),
            (math.nan, 0.0, "x"),
            (0.5, math.nan, "phi"),
            (0.5, math.inf, "phi"),
        ],
    )
    def test_non_finite_arguments_are_rejected(self, x, phi, name):
        # n == m too, where the phase is unused
        for n, m in ((2, 2), (0, 2)):
            with pytest.raises(ValidationError, match=f"'{name}'"):
                richter_kernel(n, m, x, phi)

    @pytest.mark.parametrize(
        "n, m, x",
        [
            (2, 2, 1e100),
            (2, 2, 1e160),
            (2, 2, -1e300),
            (2, 2, 1.5e308),
            (1, 1, np.float64(1e160)),
            (0, 300, -3.5),
        ],
    )
    def test_magnitude_beyond_float_range_is_a_numerical_error(self, n, m, x):
        # e.g. about 2.7e400 at (2, 2, 1e100); neither NaN nor a value clipped at e^709
        with pytest.raises(NumericalError, match="richter_kernel"):
            richter_kernel(n, m, x, 0.0)

    @pytest.mark.parametrize(
        "n, m, x", [(0, 1, -8e307), (1, 1, 1e150), (2, 2, 3e76), (150, 150, 2.0), (0, 300, -0.7)]
    )
    def test_far_points_within_float_range(self, n, m, x):
        mpmath.mp.dps = 50
        order = n + m
        exact = mpmath.hermite(order, math.sqrt(2) * mpmath.mpf(x)) / (
            mpmath.mpf(2) ** (order / 2.0) * mpmath.binomial(order, m)
        )
        assert richter_kernel(n, m, x, 0.0).real == pytest.approx(float(exact), rel=1e-9)

    def test_large_phase_is_reduced_before_it_multiplies(self):
        value = richter_kernel(0, 2, 0.5, 1e308)
        assert abs(value) == pytest.approx(abs(richter_kernel(0, 2, 0.5, 0.0)), rel=1e-15)


class TestIntensityEstimator:
    def test_values(self):
        assert intensity_estimator(0.0, 1.0) == -0.5
        assert intensity_estimator(1.0, 1.0) == 1.5
        assert intensity_estimator(0.5, 0.5) == -0.5

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, -1.0])
        assert intensity_estimator(xs).tolist() == [-0.5, 1.5, 1.5]

    def test_eta_range(self):
        with pytest.raises(ValidationError):
            intensity_estimator(0.0, 0.0)

    def test_eta_not_a_number(self):
        with pytest.raises(ValidationError, match="'eta'"):
            intensity_estimator(0.1, None)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_unbiasedness_closure_on_fock_states(self, eta):
        # quadrature average of the estimator over the smeared density
        # must return the photon number for every Fock state k <= 30
        for k in range(31):
            stats = photon_distribution(StateSpec.fock(k))
            assert roulette_outcome_moment(stats, eta, 1) == pytest.approx(
                float(k), abs=1e-6
            ), (k, eta)


class TestHeterodyneEstimator:
    def test_values(self):
        assert heterodyne_estimator(0.0, 0.0, 1.0) == -1.0
        assert heterodyne_estimator(1.0, 0.0, 1.0) == 0.0
        assert heterodyne_estimator(0.0, 0.0, 0.5) == -2.0

    def test_vectorized_and_negative_excursions_kept(self):
        res = heterodyne_estimator(np.array([0.0, 0.1]), np.array([0.0, 0.0]), 0.5)
        assert res[0] == -2.0  # below the eta = 1 support floor, not clipped
        assert res[1] == pytest.approx(-1.99)

    def test_eta_range(self):
        with pytest.raises(ValidationError):
            heterodyne_estimator(0.0, 0.0, 1.5)
