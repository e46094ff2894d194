import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroulette.errors import IntegrationError, ValidationError
from qroulette.numerics import (
    DensityTable,
    build_inverse_cdf,
    gauss_legendre_grid,
    hermite_h,
    integrate,
    oscillator_density,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestHermite:
    def test_trivial_orders(self):
        assert hermite_h(0, 3.7) == 1.0
        assert hermite_h(1, 2.0) == 4.0

    def test_closed_form_order_three(self):
        # H_3(x) = 8x^3 - 12x
        assert hermite_h(3, 1.0) == pytest.approx(-4.0, abs=1e-14)
        for x in (-2.3, 0.4, 1.9):
            assert hermite_h(3, x) == pytest.approx(8 * x**3 - 12 * x, rel=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            hermite_h(-1, 0.0)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        xs = [-9.97, -7.63, -5.11, -2.41, -0.37, 0.73, 1.23, 3.79, 6.47, 9.31]
        for n in range(0, 51, 5):
            for x in xs:
                exact = float(mpmath.hermite(n, x))
                assert hermite_h(n, x) == pytest.approx(exact, rel=1e-10)


class TestOscillatorDensity:
    def test_vacuum_at_origin(self):
        assert oscillator_density(0, 0.0) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)

    def test_first_excited(self):
        assert oscillator_density(1, 0.0) == 0.0
        expected = SQRT_2_OVER_PI * math.exp(-0.5)  # 4 x^2 weight at x = 1/2
        assert oscillator_density(1, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_normalization_sweep_to_200(self):
        for n in range(201):
            limit = math.sqrt((2 * n + 1) / 2) + 8.0
            nodes, weights = gauss_legendre_grid(-limit, limit, max(32, 2 * (n + 16)), 10)
            total = float(np.sum(weights * oscillator_density(n, nodes)))
            assert abs(total - 1.0) <= 1e-8, f"normalization broke at n={n}: {total}"

    @given(n=st.integers(0, 150), x=st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_even(self, n, x):
        left = oscillator_density(n, -x)
        right = oscillator_density(n, x)
        assert right >= 0.0
        assert left == right

    def test_huge_order_stays_finite(self):
        # near the classical turning point the weighted recurrence must
        # climb back from an underflowed Gaussian prefactor
        n = 10_000
        turning = math.sqrt((2 * n + 1) / 2)
        for x in (0.0, 0.5 * turning, turning, turning + 1.0):
            value = oscillator_density(n, x)
            assert np.isfinite(value) and value >= 0.0
        assert oscillator_density(n, turning) > 1e-3

    def test_normalization_large_order(self):
        n = 2000
        limit = math.sqrt((2 * n + 1) / 2) + 8.0
        nodes, weights = gauss_legendre_grid(-limit, limit, 2 * (n + 16), 10)
        total = float(np.sum(weights * oscillator_density(n, nodes)))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestIntegrate:
    def test_pom_element_normalization(self):
        for n in (0, 7):
            total = integrate(lambda x, n=n: oscillator_density(n, x), -np.inf, np.inf, 1e-10)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_pom_normalization_high_orders(self):
        # spot-check the adaptive integrator against increasingly oscillatory
        # elements; the full n <= 200 sweep runs on the composite rule above
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
            limit = math.sqrt((2 * n + 1) / 2) + 9.0
            total = integrate(lambda x, n=n: oscillator_density(n, x), -limit, limit, 1e-10)
            assert total == pytest.approx(1.0, abs=1e-8), n

    def test_unbiasedness_on_fock_three(self):
        value = integrate(
            lambda x: (2 * x * x - 0.5) * oscillator_density(3, x), -np.inf, np.inf, 1e-9
        )
        assert value == pytest.approx(3.0, abs=1e-8)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            integrate(math.sin, 0.0, 1.0, 0.0)

    def test_nonconvergence_reports_best_estimate(self):
        with pytest.raises(IntegrationError) as info:
            integrate(lambda x: math.sin(1e5 * x), 0.0, 1.0, 1e-13)
        assert info.value.best_estimate is not None


class TestInverseCdf:
    def table(self, n, tol=1e-6):
        limit = math.sqrt((2 * n + 1) / 2) + 8.0
        return build_inverse_cdf(
            lambda x, n=n: oscillator_density(n, x), (-limit, limit), tol
        )

    def test_even_density_has_zero_median(self):
        table = self.table(0)
        assert abs(float(table.sample(0.5))) <= 1e-9

    def test_symmetric_density_cdf_at_origin(self):
        table = self.table(1)
        assert float(table.cdf_at(0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_second_moment_of_draws(self):
        # <x^2> = (2 n + 1)/4 in this quadrature convention
        table = self.table(2)
        rng = np.random.default_rng(1234)
        draws = table.sample(rng.random(100_000))
        second = float(np.mean(draws**2))
        stderr = math.sqrt(0.875 / 100_000)  # Var(x^2) = 7/8 for n = 2
        assert abs(second - 1.25) <= 5 * stderr

    @pytest.mark.parametrize("n", [270, 607, 617])
    def test_aliasing_orders_keep_exact_second_moment(self, n):
        # refined from 64 panels these orders alias and lose the mass check
        table = self.table(n)
        grid, cdf = table.grid, table.cdf
        second = np.sum(np.diff(cdf) * (grid[1:] ** 2 + grid[1:] * grid[:-1] + grid[:-1] ** 2) / 3)
        assert second == pytest.approx((2 * n + 1) / 4, rel=1e-5)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValidationError):
            build_inverse_cdf(lambda x: 2.0 * oscillator_density(0, x), (-9.0, 9.0), 1e-6)

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            build_inverse_cdf(lambda x: np.full_like(x, -0.1), (0.0, 1.0), 1e-6)

    @pytest.mark.parametrize("n", range(21))
    def test_kolmogorov_smirnov_draws(self, n):
        from scipy import stats

        table = self.table(n)
        rng = np.random.default_rng(42 + n)
        draws = table.sample(rng.random(100_000))
        result = stats.kstest(draws, table.cdf_at)
        assert result.pvalue > 0.001, f"KS failed at n={n}: {result}"


class TestDensityTable:
    def test_invariants_enforced(self):
        grid = np.linspace(0.0, 1.0, 11)
        good = np.linspace(0.0, 1.0, 11)
        DensityTable(grid=grid, cdf=good, domain=(0.0, 1.0))
        with pytest.raises(ValidationError):
            DensityTable(grid=grid[::-1].copy(), cdf=good, domain=(0.0, 1.0))
        with pytest.raises(ValidationError):
            DensityTable(grid=grid, cdf=good[::-1].copy(), domain=(0.0, 1.0))
        with pytest.raises(ValidationError):
            DensityTable(grid=grid, cdf=good * 0.5, domain=(0.0, 1.0))
