import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qroulette.errors import IntegrationError, ValidationError
from qroulette.numerics import (
    DensityTable,
    GuideTable,
    _weighted_hermite_sq,
    build_inverse_cdf,
    gauss_legendre_grid,
    hermite_h,
    integrate,
    oscillator_density,
    oscillator_mixture,
)
from qroulette.states import HARD_CAP

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


# |x| where the rescale count of the Hermite recurrence steps from 0 to 1, 2 and 3
# (24.49, 30.75 and 35.93): the count is ceil((x^2 - 600) / ln 1e150)
RESCALE_STEPS = [math.sqrt(600.0 + c * math.log(1e150)) for c in range(3)]


def _one_hot(n):
    weights = np.zeros(n + 1)
    weights[n] = 1.0
    return weights


mixture_weights = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=300).map(np.array),
    st.integers(0, HARD_CAP).map(_one_hot),
)
# points where every order's density is exactly 0.0: squares overflow from 1e155 on,
# and from 1e11 on the rescale count of the recurrence overflows int64
FAR_POINTS = [math.inf, -math.inf, 1e200, -1e200, 1e155, 1e11, 1e10]
mixture_points = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from(FAR_POINTS),
    st.floats(-80.0, 80.0),
    st.builds(
        lambda step, shift, sign: sign * (step + shift),
        st.sampled_from(RESCALE_STEPS),
        st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-0.5, 0.5)),
        st.sampled_from([1.0, -1.0]),
    ),
)


class TestScalarMixturePath:
    @given(weights=mixture_weights, points=st.lists(mixture_points, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_scalar_point_is_bitwise_the_array_path(self, weights, points):
        for x in points:
            scalar = oscillator_mixture(weights, float(x))
            assert type(scalar) is float
            array = oscillator_mixture(weights, np.array([x]))[0]
            assert np.float64(scalar).tobytes() == array.tobytes(), x
            zero_d = oscillator_mixture(weights, np.array(x))
            assert isinstance(zero_d, np.float64) and zero_d.tobytes() == array.tobytes()

    def test_zero_d_kernel_returns_float64(self):
        value = _weighted_hermite_sq(np.array(0.3), np.array([0.5, 0.0, 0.5]))
        assert type(value) is np.float64

    def test_points_within_an_ulp_of_each_rescale_step(self):
        for step in RESCALE_STEPS:
            points = np.array([np.nextafter(step, 0.0), step, np.nextafter(step, 100.0)])
            points = np.concatenate((points, -points))
            for n in (0, 1, 40, 900, HARD_CAP):
                array = oscillator_density(n, points)
                scalar = [oscillator_density(n, float(x)) for x in points]
                assert np.array(scalar).tobytes() == array.tobytes(), n

    @pytest.mark.parametrize("x", FAR_POINTS)
    def test_far_points_are_exactly_zero_without_warnings(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 3, 40, HARD_CAP):
                assert oscillator_density(n, x) == 0.0
                assert oscillator_density(n, np.array([x, -x])).tolist() == [0.0, 0.0]


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

    def test_non_finite_values_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        cdf = np.linspace(0.0, 1.0, 11)
        for bad_grid, bad_cdf in (
            (grid, np.where(cdf == 0.5, np.nan, cdf)),
            (np.where(grid == 1.0, np.inf, grid), cdf),
        ):
            with pytest.raises(ValidationError):
                DensityTable(grid=bad_grid, cdf=bad_cdf, domain=(0.0, 1.0))


# cdf steps near 0, where a step can be subnormal and its slope overflow
TINY_STEPS = [0.0, 5e-324, 1e-320, 2.0**-1022, 1e-300, 1e-30]
# grid steps that put d_grid / d_cdf on either side of the overflow threshold
SMALL_GAPS = [2.0**-52, 2.0**-51, 2.0**-50, 2.0**-49, 1.7e-15]


@st.composite
def density_tables(draw):
    """Nondecreasing cdfs from 0 to 1 with tied nodes, zero-mass steps,
    subnormal steps and, optionally, many nodes in the last guide cell."""
    head = np.cumsum(draw(st.lists(st.sampled_from(TINY_STEPS), max_size=5)))
    body = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40
            )
        )
    )
    assume(body.sum() > 0.0)
    cdf = np.concatenate(([0.0], head, 0.5 * np.cumsum(body) / body.sum()))
    crowd = draw(st.integers(0, 80))
    n = len(cdf) + crowd + 1
    # the crowd lies within the last of the 2 n guide cells
    cdf = np.concatenate((cdf, 1.0 - np.linspace(0.2, 0.1, crowd) / n, [1.0]))
    cdf = np.maximum.accumulate(cdf)
    # small grid steps only by the head, where the grid is still below 2 in size
    near = len(head) + 1
    small = st.lists(
        st.one_of(st.floats(1e-3, 1.0), st.sampled_from(SMALL_GAPS)), min_size=near, max_size=near
    )
    rest = len(cdf) - 1 - near
    wide = st.lists(st.floats(1e-3, 10.0), min_size=rest, max_size=rest)
    start = draw(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1.0, 1.0)))
    grid = np.concatenate(([start], start + np.cumsum(draw(small) + draw(wide))))
    assume(np.all(np.diff(grid) > 0.0))
    return DensityTable(grid=grid, cdf=cdf, domain=(grid[0], grid[-1]))


class TestGuideLookup:
    @staticmethod
    def points(table, seed):
        nodes = table.cdf
        return np.concatenate(
            (
                [0.0, 1.0],
                nodes,
                np.nextafter(nodes, -np.inf),
                np.nextafter(nodes, np.inf),
                np.random.default_rng(seed).random(200),
            )
        )

    @given(table=density_tables(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_and_interp_bitwise(self, table, seed):
        u = self.points(table, seed)
        expected = np.searchsorted(table.cdf, u, "right") - 1
        np.testing.assert_array_equal(table.locate(u), expected)
        assert table.sample(u).tobytes() == np.interp(u, table.cdf, table.grid).tobytes()
        for scalar in (float(u[-1]), 0.0, 1.0, float(table.cdf[len(table.cdf) // 2])):
            value = table.sample(scalar)
            assert isinstance(value, np.float64)
            assert value.tobytes() == np.interp(scalar, table.cdf, table.grid).tobytes()

    def test_overflowing_slope_gives_interp_values(self):
        # a subnormal cdf step under a unit grid step: np.interp's slope is inf
        table = DensityTable(
            grid=np.array([-1.0, 0.0, 1.0]), cdf=np.array([0.0, 5e-324, 1.0]), domain=(-1.0, 1.0)
        )
        u = np.array([0.0, 5e-324, 0.5, 1.0])
        np.testing.assert_array_equal(table.sample(u), [-1.0, 0.0, 0.5, 1.0])
        assert table.sample(np.nextafter(0.0, 1.0) / 2) == -1.0

    @given(
        pmf=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_is_the_draw_of_generator_choice(self, pmf, seed):
        p = np.array(pmf)
        assume(p.sum() > 0.0)
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        expected = np.random.default_rng(seed).choice(len(p), size=500, p=p)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(GuideTable(cdf).rank(rng.random(500)), expected)
