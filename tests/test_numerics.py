import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qroulette import numerics
from qroulette.errors import IntegrationError, ValidationError
from qroulette.numerics import (
    DensityTable,
    GuideTable,
    _weighted_hermite_sq,
    build_inverse_cdf,
    gauss_legendre_grid,
    hermite_h,
    integrate,
    log_factorials,
    ndtr,
    oscillator_density,
    oscillator_mixture,
    oscillator_mixture_cdf,
    poisson_window,
)
from qroulette.pom import heterodyne_density_I, roulette_density_x, roulette_density_y
from qroulette.states import HARD_CAP, WINDOW_CAP, StateSpec, photon_distribution

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestLogFactorials:
    def test_bitwise_gammaln_over_every_window(self):
        n = np.arange(WINDOW_CAP + 2)
        assert same_bits(log_factorials(WINDOW_CAP + 2), scipy.special.gammaln(n + 1.0))

    def test_a_longer_request_extends_the_table(self):
        n = np.arange(3 * WINDOW_CAP)
        assert same_bits(log_factorials(3 * WINDOW_CAP), scipy.special.gammaln(n + 1.0))

    def test_windows_share_one_read_only_table(self):
        short, full = log_factorials(5), log_factorials(WINDOW_CAP + 2)
        assert short.base is full.base is not None
        assert not full.flags.writeable
        assert log_factorials(0).shape == (0,)

    def test_every_poisson_tail_fits_the_table(self):
        # the widest window poisson_tail sums ends at the top of that of WINDOW_CAP + 1
        top = int(poisson_window(WINDOW_CAP + 1)[1]) + 1
        assert log_factorials(top).base is log_factorials(5).base


def ndtr_grid():
    """A grid on [-45, 45], both sides of every edge where cephes' ndtr switches
    branch (|a| / sqrt(2) at sqrt(1/2), 1 and 8, and the exp(-a^2 / 2) underflow
    near |a| = 37.68), and the special values."""
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)]
    near = [e * (1.0 + k * 2.0**-52) for e in edges for k in range(-16, 17)]
    near += [e * (1.0 + k * 1e-7) for e in edges for k in range(-50, 51)]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, 1e-300]
    points = np.concatenate([np.linspace(-45.0, 45.0, 2001), near, special])
    return np.concatenate([points, -points])


class TestNdtr:
    def test_libm_error_bounds_against_mpmath(self):
        # absolute: half of erfc's error, an ulp of its value in [0, 2], plus the
        # rounding of a / sqrt(2) carried through phi(a) |a| <= 0.25, at most
        # 1.5 * 2**-53 (1.08 * 2**-53 seen near a = 0.71); relative: that
        # rounding carried through the tail's exp(-a^2 / 2), against the value
        # or, in the subnormal range, against the smallest normal float
        a = ndtr_grid()
        a = a[np.abs(a) <= 45.0]  # the special values far out are checked below
        tiny = np.finfo(float).tiny
        with mpmath.workdps(40):
            for point, value in zip(a.tolist(), ndtr(a).tolist()):
                exact = mpmath.ncdf(point)
                error = float(abs(mpmath.mpf(value) - exact))
                assert error <= 2.0**-52, point
                assert error <= (point * point + 2.0) * 2.0**-52 * max(float(exact), tiny), point

    def test_special_values_raise_no_warning(self):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = ndtr(np.array(special))
        expected = [0.5, 0.5, 1.0, 0.0, math.nan, 1.0, 0.0, 0.5]
        np.testing.assert_array_equal(values, expected)

    def test_scalars_and_shapes(self):
        assert ndtr(0.0) == 0.5 and np.ndim(ndtr(0.0)) == 0
        grid = np.linspace(-9.0, 9.0, 12).reshape(3, 4)
        points = [ndtr(float(a)) for a in grid.ravel()]
        assert same_bits(ndtr(grid), np.reshape(points, (3, 4)))


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

    def test_infinite_points_give_the_limit(self):
        # the sign of x^n, and H_0 = 1; the recurrence alone takes inf - inf from n = 2
        for n in (0, 1, 2, 3, 50, 51):
            at_inf, at_minus_inf = (1.0, 1.0) if n == 0 else (math.inf, (-1) ** n * math.inf)
            assert hermite_h(n, math.inf) == at_inf and hermite_h(n, -math.inf) == at_minus_inf
            assert hermite_h(n, np.float64(-math.inf)) == at_minus_inf
        assert all(math.isnan(hermite_h(n, math.nan)) for n in (1, 2, 3))

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        xs = [-9.97, -7.63, -5.11, -2.41, -0.37, 0.73, 1.23, 3.79, 6.47, 9.31]
        for n in range(0, 51, 5):
            for x in xs:
                exact = float(mpmath.hermite(n, x))
                assert hermite_h(n, x) == pytest.approx(exact, rel=1e-10)


class TestHermitePastTheFloatRange:
    # points where the plain recurrence overflows twice running and took inf - inf,
    # and finite values whose recurrence runs past 1e300 before it ends
    @pytest.mark.parametrize(
        "n, x", [(4, 1e300), (400, 3.0), (401, -3.0), (3, -1e103), (200, 40.0), (160, 42.0),
                 (200, 20.0), (240, 13.0)]
    )
    def test_against_high_precision_oracle(self, n, x):
        mpmath.mp.dps = 40
        exact = mpmath.hermite(n, x)
        got = hermite_h(n, x)
        if abs(exact) > mpmath.mpf(np.finfo(float).max):
            assert got == math.copysign(math.inf, exact)
        else:
            assert got == pytest.approx(float(exact), rel=1e-13)


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


def reference_mixture(weights, x, ladder=None):
    """The mixture density by one array pass of the rescaled recurrence over every
    order: the bits the array and scalar paths must keep.  Given ``ladder``, also
    the pair sum sum_k ladder[k] g_k g_{k-1}, a term counted once its point has no
    rescale left before step k, and returns (density, pairs)."""
    t = np.clip(math.sqrt(2.0) * np.asarray(x, dtype=float), -1e9, 1e9)
    ln_rescale, factors = math.log(1e150), np.array([1.0, 1e-150, 1e-300, 0.0])
    ln0 = -0.5 * t * t
    count = np.ceil(np.maximum(0.0, (-ln0 - 600.0) / ln_rescale)).astype(np.int64)
    factor = factors[np.minimum(count, 3)]
    mant_prev, mant_cur = 0.0, np.exp(ln0 + count * ln_rescale)
    acc = weights[0] * np.square(mant_cur * factor)
    pairs = np.zeros_like(t)
    for k, weight in enumerate(weights[1:].tolist()):
        step, damp = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        mant_prev, mant_cur = mant_cur, t * step * mant_cur - damp * mant_prev
        if ladder is not None:
            pairs = pairs + np.where(count == 0, mant_cur * mant_prev * ladder[k + 1], 0.0)
        big = (np.abs(mant_cur) > 1e140) & (count > 0)
        mant_cur = np.where(big, mant_cur * 1e-150, mant_cur)
        mant_prev = np.where(big, mant_prev * 1e-150, mant_prev)
        count = count - big
        factor = factors[np.minimum(count, 3)]
        if weight != 0.0:
            acc = acc + weight * np.square(mant_cur * factor)
    return SQRT_2_OVER_PI * acc if ladder is None else (SQRT_2_OVER_PI * acc, pairs)


def cdf_ladder(weights):
    """The ladder oscillator_mixture_cdf gives the pass: T_k / sqrt(2 pi k)."""
    tails = np.cumsum(weights[::-1])[::-1]
    return tails / np.sqrt(2.0 * math.pi * np.maximum(np.arange(len(tails)), 1))


class TestMixtureBits:
    """The closed-form CDF shares the density's recurrence; the density keeps its bits."""

    POINTS = np.concatenate(
        [np.linspace(-60.0, 60.0, 6001), RESCALE_STEPS, np.negative(RESCALE_STEPS), FAR_POINTS]
    ) / math.sqrt(2.0)

    @pytest.mark.parametrize("order", [0, 1, 7, 64, 301, 1000])
    def test_one_hot_orders(self, order):
        weights = _one_hot(order)
        expected = reference_mixture(weights, self.POINTS)
        assert oscillator_mixture(weights, self.POINTS).tobytes() == expected.tobytes()
        scalars = [oscillator_mixture(weights, float(x)) for x in self.POINTS[::197]]
        assert np.array(scalars).tobytes() == expected[::197].tobytes()

    @pytest.mark.parametrize("length", [2, 40, 513])
    def test_dense_and_sparse_weights(self, length):
        rng = np.random.default_rng(length)
        dense = rng.random(length)
        sparse = np.where(rng.random(length) < 0.7, 0.0, dense)
        for weights in (dense / dense.sum(), sparse):
            expected = reference_mixture(weights, self.POINTS)
            assert oscillator_mixture(weights, self.POINTS).tobytes() == expected.tobytes()

    def assert_pass_is_the_reference(self, weights):
        t = math.sqrt(2.0) * self.POINTS
        ladder = cdf_ladder(weights)
        for weights_in in (np.zeros_like(weights), weights):
            density, expected = reference_mixture(weights_in, self.POINTS, ladder)
            _, pairs = _weighted_hermite_sq(t, weights_in, ladder)
            assert pairs.tobytes() == expected.tobytes()
            assert oscillator_mixture(weights_in, self.POINTS).tobytes() == density.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 7, 64, 301, 1000])
    def test_cdf_pairs_of_one_hot_orders(self, order):
        self.assert_pass_is_the_reference(_one_hot(order))

    @pytest.mark.parametrize("length", [2, 40, 513])
    def test_cdf_pairs_of_dense_sparse_and_padded_weights(self, length):
        rng = np.random.default_rng(length)
        dense = rng.random(length)
        sparse = np.where(rng.random(length) < 0.7, 0.0, dense)
        for weights in (dense / dense.sum(), sparse, np.concatenate([sparse, np.zeros(500)])):
            self.assert_pass_is_the_reference(weights)

    def test_the_pass_stops_at_the_last_weight(self, monkeypatch):
        asked, coefficients = [], numerics._recurrence_coefficients
        monkeypatch.setattr(
            numerics, "_recurrence_coefficients", lambda n: asked.append(n) or coefficients(n)
        )
        rng = np.random.default_rng(11)
        for last in (0, 1, 36, 300):
            weights = np.zeros(last + 1 + 250)
            weights[: last + 1] = np.where(rng.random(last + 1) < 0.5, 0.0, 1.0)
            weights[last] = 0.25
            asked.clear()
            oscillator_mixture(weights, self.POINTS)
            oscillator_mixture_cdf(weights, self.POINTS)
            assert asked == [last + 1, last + 1], last
        # all-zero weights take no step
        asked.clear()
        oscillator_mixture(np.zeros(400), self.POINTS)
        oscillator_mixture_cdf(np.zeros(400), self.POINTS)
        assert all(len(coefficients(n)) == 0 for n in asked)

    def test_ladder_pass_leaves_the_density_sum(self):
        weights = np.random.default_rng(3).random(120)
        t = math.sqrt(2.0) * self.POINTS
        ladder = np.linspace(0.0, 1.0, len(weights))
        density, _ = _weighted_hermite_sq(t, weights, ladder)
        assert density.tobytes() == _weighted_hermite_sq(t, weights).tobytes()

    @pytest.mark.parametrize("order", [0, 5, 40])
    def test_cdf_is_the_integral_of_the_density(self, order):
        weights = np.random.default_rng(order).random(order + 1)
        weights /= weights.sum()
        lower = -math.sqrt(order + 0.5) - 9.0
        for x in (-2.5, -0.4, 0.0, 1.3, 4.0):
            area = integrate(lambda z: oscillator_mixture(weights, z), lower, x, 1e-14)
            assert oscillator_mixture_cdf(weights, x) == pytest.approx(area, abs=1e-12)

    def test_cdf_of_a_point_is_the_cdf_of_an_array(self):
        # 30 and 40 start deep in the tail, where g_0 underflows and the pass rescales
        weights = np.random.default_rng(7).random(300)
        weights /= weights.sum()
        points = np.array([-40.0, -30.0, -1.5, 0.0, 2.5, 30.0, 40.0])
        row = oscillator_mixture_cdf(weights, points)
        for x, value in zip(points, row):
            assert oscillator_mixture_cdf(weights, float(x)).tobytes() == value.tobytes()
        assert row[0] == 0.0 and row[-1] == pytest.approx(1.0, abs=1e-15)


class TestGaussLegendreGrid:
    def test_one_rule_per_order_and_the_same_grids(self, monkeypatch):
        from numpy.polynomial import legendre

        leggauss, built = legendre.leggauss, []
        monkeypatch.setattr(
            legendre, "leggauss", lambda order: built.append(order) or leggauss(order)
        )
        numerics._gauss_legendre_rule.cache_clear()
        try:
            grids = [gauss_legendre_grid(-1.0, 2.5, 7, order) for order in (12, 10, 12, 10, 12)]
        finally:
            numerics._gauss_legendre_rule.cache_clear()
        assert built == [12, 10]
        edges = np.linspace(-1.0, 2.5, 8)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        for order, (nodes, weights) in zip((12, 10, 12, 10, 12), grids):
            glx, glw = leggauss(order)
            assert same_bits(nodes, (mid + half * glx).ravel())
            assert same_bits(weights, (half * glw).ravel())
        rule = numerics._gauss_legendre_rule(12)
        assert not (rule[0].flags.writeable or rule[1].flags.writeable)


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

    def test_the_rule_is_gauss_kronrod_21(self):
        nodes = numerics._KRONROD_NODES
        assert np.all(np.diff(nodes) > 0.0) and np.array_equal(nodes, -nodes[::-1])
        assert np.count_nonzero(numerics._GAUSS_WEIGHTS) == 10
        # exact on polynomials up to degree 31 (Kronrod) and 19 (Gauss), to a few ulp
        for k in range(0, 32, 2):
            exact = 2.0 / (k + 1)
            assert abs(numerics._KRONROD_WEIGHTS @ nodes**k - exact) <= 2e-16, k
            if k < 20:
                assert abs(numerics._GAUSS_WEIGHTS @ nodes**k - exact) <= 2e-16, k

    # the analytic normalisations: (state, eta) pairs of the paper's check that
    # the outcome densities integrate to 1
    ANALYTIC_STATES = [
        StateSpec.coherent(4.0),
        StateSpec.squeezed(2.0, 0.5),
        StateSpec.thermal(1.0),
        StateSpec.fock(3),
    ]

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("spec", ANALYTIC_STATES, ids=StateSpec.describe)
    def test_a_density_on_arrays_takes_a_few_calls(self, spec, eta):
        stats = photon_distribution(spec)
        for density, lower in ((roulette_density_x, -math.inf), (heterodyne_density_I, -1.0 / eta)):
            shapes = []

            def counted(x):
                shapes.append(np.shape(x))
                return density(stats, x, eta)

            assert integrate(counted, lower, math.inf, 1e-9) == pytest.approx(1.0, abs=1e-9)
            assert 1 <= len(shapes) <= 4 and all(len(shape) == 1 for shape in shapes), shapes

    @pytest.mark.parametrize(
        "lower, upper", [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.7), (-2.0, 3.0)]
    )
    def test_scalar_and_array_integrands_agree(self, lower, upper):
        points = []

        def scalar(x):
            points.append(x)
            return math.exp(-x * x)

        by_point = integrate(scalar, lower, upper, 1e-12)
        by_array = integrate(lambda x: np.exp(-x * x), lower, upper, 1e-12)
        assert by_point == pytest.approx(by_array, abs=1e-13)
        # math.exp refuses the first array; every later call is one float
        assert isinstance(points[0], np.ndarray) and points[0].ndim == 1
        assert len(points) > 1 and all(type(x) is float for x in points[1:])

    def test_a_constant_result_goes_point_by_point(self):
        assert integrate(lambda x: 1.5, -2.0, 3.0) == pytest.approx(7.5, abs=1e-14)
        assert integrate(lambda x: np.float64(1.5), -2.0, 3.0) == pytest.approx(7.5, abs=1e-14)

    def test_inverse_square_root_ends(self):
        total = integrate(lambda x: 1.0 / np.sqrt(x + 0.5), -0.5, 0.5, 1e-10)
        assert total == pytest.approx(2.0, abs=1e-9)
        for spec in self.ANALYTIC_STATES + [StateSpec.vacuum()]:
            stats = photon_distribution(spec)
            for eta in (1.0, 0.5, 0.1):
                density = lambda y: roulette_density_y(stats, y, eta)  # noqa: E731
                total = integrate(density, -0.5 / eta, math.inf, 1e-10)
                assert total == pytest.approx(1.0, abs=1e-9), (spec, eta)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: np.full_like(x, math.nan),
            lambda x: x / (x - x),
            lambda x: np.log(x - 0.5),
            lambda x: math.inf,
            lambda x: math.nan,
            lambda x: np.where(x > 0.9, math.inf, 1.0),
        ],
    )
    def test_nan_or_infinite_values_raise(self, f):
        # warnings fail the suite: none may escape on the way
        for lower, upper in ((0.0, 1.0), (0.0, math.inf)):
            with pytest.raises(IntegrationError, match="not finite"):
                integrate(f, lower, upper)

    def test_reversed_and_empty_ranges(self):
        assert integrate(np.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, abs=1e-14)
        half_line = integrate(lambda x: np.exp(-x * x), math.inf, 0.0)
        assert half_line == pytest.approx(-math.sqrt(math.pi) / 2.0, abs=1e-14)
        for end in (2.0, math.inf, -math.inf):
            assert integrate(np.cos, end, end) == 0.0

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.inf)])
    def test_nan_ends_rejected(self, lower, upper):
        with pytest.raises(ValidationError):
            integrate(np.cos, lower, upper)


class TestIntegrateAgainstQuadpack:
    """A differential panel: scipy's QUADPACK, a test-only dependency, as oracle."""

    CASES = {
        "gaussian": (lambda x: np.exp(-x * x), -math.inf, math.inf),
        "shifted gaussian": (lambda x: np.exp(-((x - 30.0) ** 2)), -math.inf, math.inf),
        "gaussian from 0.3": (lambda x: np.exp(-x * x), 0.3, math.inf),
        "gaussian to -0.7": (lambda x: np.exp(-x * x), -math.inf, -0.7),
        "lorentzian": (lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf),
        "lorentzian tail": (lambda x: 1.0 / (1.0 + x * x), 2.0, math.inf),
        "damped sine": (lambda x: np.exp(-x) * np.sin(x), 0.0, math.inf),
        "inverse square roots": (lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0),
        "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0),
        "logarithm": (np.log, 0.0, 1.0),
        "kink": (lambda x: np.abs(x - 0.3), -1.0, 1.0),
        "step": (lambda x: np.where(np.asarray(x) > 0.3, 1.0, 0.0), 0.0, 1.0),
        "cos 20x": (lambda x: np.cos(20.0 * x), 0.0, 2.0),
        "quintic": (lambda x: x**5 - 3.0 * x**2, -2.0, 3.0),
        "Fock 40": (lambda x: oscillator_density(40, x), -math.inf, math.inf),
        "Fock 200": (lambda x: oscillator_density(200, x), -20.0, 20.0),
    }
    # (value, error) known exactly, where quad's one point at a time takes seconds:
    # a Fock density integrates to 1, and less than 1e-95 of Fock 200 lies beyond +-20
    EXACT = {"Fock 200": (1.0, 0.0)}

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("name", list(CASES))
    def test_within_both_error_bounds(self, name, tol):
        from scipy.integrate import quad

        f, lower, upper = self.CASES[name]
        expected, error = self.EXACT.get(name) or quad(
            f, lower, upper, epsabs=tol, epsrel=max(tol, 1e-12), limit=600
        )
        bound = max(tol, max(tol, 1e-12) * abs(expected))
        assert integrate(f, lower, upper, tol) == pytest.approx(expected, abs=bound + error)


class TestInverseCdf:
    def table(self, n, tol=1e-6):
        limit = math.sqrt((2 * n + 1) / 2) + 8.0
        weights = np.zeros(n + 1)
        weights[n] = 1.0
        return build_inverse_cdf(
            lambda x: oscillator_mixture_cdf(weights, x), (-limit, limit), tol
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
        # a CDF rising by 2 over the domain
        with pytest.raises(ValidationError):
            build_inverse_cdf(lambda x: 2.0 * oscillator_mixture_cdf([1.0], x), (-9.0, 9.0), 1e-6)

    def test_negative_density_rejected(self):
        # a CDF falling over the domain
        with pytest.raises(ValidationError):
            build_inverse_cdf(lambda x: -0.1 * x, (0.0, 1.0), 1e-6)

    def test_refinement_budget_raises(self):
        # every panel misses tol, so each round triples the panels until the budget ends
        def wobbly(x):
            return x + 1e-4 * np.sin(1e7 * x)

        with pytest.raises(IntegrationError, match="panels"):
            build_inverse_cdf(wobbly, (0.0, 1.0), 1e-9, panels=1000)

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

    @pytest.mark.parametrize(
        "grid, cdf",
        [
            (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 10)),
            (np.linspace(0.0, 1.0, 12).reshape(2, 6), np.linspace(0.0, 1.0, 12).reshape(2, 6)),
            (np.array([0.0]), np.array([1.0])),
        ],
    )
    def test_shapes_must_match(self, grid, cdf):
        with pytest.raises(ValidationError) as info:
            DensityTable(grid=grid, cdf=cdf, domain=(0.0, 1.0))
        assert str(info.value) == "DensityTable: grid and cdf must be matching 1-d arrays"

    def test_non_finite_values_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        cdf = np.linspace(0.0, 1.0, 11)
        for bad_grid, bad_cdf in (
            (grid, np.where(cdf == 0.5, np.nan, cdf)),
            (np.where(grid == 1.0, np.inf, grid), cdf),
        ):
            with pytest.raises(ValidationError):
                DensityTable(grid=bad_grid, cdf=bad_cdf, domain=(0.0, 1.0))

    def test_tables_compare_and_hash_by_identity(self):
        # two tables of one CDF: comparing them reads no array
        first, second = (build_inverse_cdf(lambda x: x, (0.0, 1.0)) for _ in range(2))
        np.testing.assert_array_equal(first.cdf, second.cdf)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_cdf_is_the_guide_tables_read_only_nodes(self):
        cdf = np.linspace(0.0, 1.0, 11)
        for table in (GuideTable(cdf), DensityTable(np.linspace(2.0, 3.0, 11), cdf, (2.0, 3.0))):
            np.testing.assert_array_equal(table.cdf, cdf)
            assert not table.cdf.flags.writeable

    def test_the_callers_grid_stays_writable_and_unshared(self):
        grid, cdf = np.linspace(2.0, 3.0, 11), np.linspace(0.0, 1.0, 11)
        table = DensityTable(grid, cdf, (2.0, 3.0))
        np.testing.assert_array_equal(table.grid, grid)
        assert grid.flags.writeable and cdf.flags.writeable and not table.grid.flags.writeable
        held = [value for value in vars(table).values() if isinstance(value, np.ndarray)]
        assert not any(np.shares_memory(caller, own) for caller in (grid, cdf) for own in held)

    @staticmethod
    def held_bytes(table):
        """Bytes of the distinct base arrays a table holds, each counted once."""
        bases = {}
        for value in vars(table).values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                bases[id(value)] = value.nbytes
        return sum(bases.values())

    @pytest.mark.parametrize("n", [2, 11, 5000])
    def test_each_array_is_held_once(self, n):
        # 8 guide cells and the node array per node, and a table's values and slopes;
        # a copy in a worker, unpickled, holds no more
        cdf = np.linspace(0.0, 1.0, n)
        guide, table = GuideTable(cdf), DensityTable(np.linspace(2.0, 3.0, n), cdf, (2.0, 3.0))
        for held in (guide, pickle.loads(pickle.dumps(guide))):
            assert self.held_bytes(held) <= 72 * n + 64
        for held in (table, pickle.loads(pickle.dumps(table))):
            assert self.held_bytes(held) <= 88 * n + 64
            np.testing.assert_array_equal(held.grid, table.grid)

    @pytest.mark.parametrize("cdf", [[0.0, 0.5, 3.0], [-5.0, 0.5, 1.0], [1e-11, 0.5, 1.0]])
    def test_cdf_runs_from_0_to_1(self, cdf):
        with pytest.raises(ValidationError, match="cdf must run from ~0 to ~1"):
            DensityTable([0.0, 1.0, 2.0], cdf, (0.0, 2.0))
        DensityTable([0.0, 1.0, 2.0], [-1e-12, 0.5, 1.0 + 5e-13], (0.0, 2.0))

    def test_every_held_array_is_read_only(self):
        # a cached law's table cannot be written through, in the calling process or a worker
        cdf = np.linspace(0.0, 1.0, 11) ** 2
        for table in (GuideTable(cdf), DensityTable(np.linspace(2.0, 3.0, 11), cdf, (2.0, 3.0))):
            for held in (table, pickle.loads(pickle.dumps(table))):
                arrays = {k: v for k, v in vars(held).items() if isinstance(v, np.ndarray)}
                assert len(arrays) == (4 if isinstance(table, DensityTable) else 2)
                assert not [k for k, v in arrays.items() if v.flags.writeable]

    def test_an_unpickled_table_is_read_only(self):
        cdf = np.linspace(0.0, 1.0, 11) ** 2
        u = np.random.default_rng(5).random(1000)
        for table in (GuideTable(cdf), DensityTable(np.linspace(2.0, 3.0, 11), cdf, (2.0, 3.0))):
            copy = pickle.loads(pickle.dumps(table))
            views = [copy.cdf] + ([copy.grid] if isinstance(copy, DensityTable) else [])
            assert not any(view.flags.writeable for view in views)
            assert copy.rank(u).tobytes() == table.rank(u).tobytes()
            if isinstance(copy, DensityTable):
                assert copy.sample(u).tobytes() == table.sample(u).tobytes()


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


# points at and past the ends of [0, 1], where a lookup must still be total
EXTREME_POINTS = [
    0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, -1.0,
    1e300, -1e300, 1e308, -1e308, math.inf, -math.inf, math.nan,
]  # fmt: skip


@st.composite
def crowded_tables(draw):
    """Tables with nodes spread over [0, 1] and a crowd of nodes in one guide
    cell: runs of equal cdf values one ulp apart, subnormal ones at 0.  Returns
    the table and its crowd."""
    spread = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    at = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-20]), st.floats(0.0, 0.99)))
    ulps = draw(st.lists(st.integers(0, 3), min_size=3, max_size=30))
    crowd = at + np.cumsum(ulps) * np.spacing(at)
    cdf = np.minimum(np.sort(np.concatenate(([0.0, 1.0], spread, crowd))), 1.0)
    gaps = st.lists(st.floats(1e-3, 10.0), min_size=len(cdf) - 1, max_size=len(cdf) - 1)
    grid = np.concatenate(([0.0], np.cumsum(draw(gaps))))
    assume(np.all(np.diff(grid) > 0.0))
    return DensityTable(grid=grid, cdf=cdf, domain=(grid[0], grid[-1])), crowd


def assert_lookups_match(table, u):
    """locate is searchsorted's and sample np.interp's, bit for bit, point by
    point and as an array, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        located, sampled = table.locate(u), table.sample(u)
        scalars = [table.sample(point) for point in u.tolist()]
    kept = ~np.isnan(u)
    np.testing.assert_array_equal(located[kept], np.searchsorted(table.cdf, u[kept], "right") - 1)
    assert sampled.tobytes() == np.interp(u, table.cdf, table.grid).tobytes()
    for point, value in zip(u.tolist(), scalars):
        assert value.tobytes() == np.interp(point, table.cdf, table.grid).tobytes(), point


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

    def test_last_node_below_one_at_negative_zero_matches_interp(self):
        # points at and past a last node short of 1 take its value, -0.0, as np.interp does
        table = DensityTable(
            grid=np.array([-1.0, -0.5, -0.0]),
            cdf=np.array([0.0, 0.5, 1.0 - 5e-13]),
            domain=(-1.0, 0.0),
        )
        u = np.array([1.0 - 5e-13, 1.0 - 1e-13, 1.0, 2.0, math.inf, math.nan])
        assert_lookups_match(table, u)

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

    @pytest.mark.parametrize(
        "cdf", [[0.0, 0.5, 1.0], [0.0, 5e-324, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    )
    def test_extreme_points_match_searchsorted_and_interp(self, cdf):
        table = DensityTable(
            grid=np.array([-1.0, 0.0, 1.0]), cdf=np.array(cdf), domain=(-1.0, 1.0)
        )
        assert_lookups_match(table, np.array(EXTREME_POINTS))

    def test_extreme_points_rank_as_generator_choice_cdf(self):
        # a choice cdf starts above 0 and ends at 1
        cdf = np.array([0.25, 0.5, 0.5, 1.0])
        u = np.array(EXTREME_POINTS[:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = GuideTable(cdf).rank(u)
        np.testing.assert_array_equal(ranks, np.searchsorted(cdf, u, "right"))

    @given(case=crowded_tables(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_crowded_cells_match_searchsorted_and_interp_bitwise(self, case, seed):
        table, crowd = case
        nodes = table.cdf
        u = np.concatenate(
            (
                EXTREME_POINTS,
                nodes,
                np.nextafter(nodes, -np.inf),
                np.nextafter(nodes, np.inf),
                np.nextafter(crowd, np.inf),
                np.random.default_rng(seed).random(100),
            )
        )
        assert_lookups_match(table, u)

    def test_crowded_cell_takes_every_path(self):
        # 41 nodes spread evenly and a crowd of 12 in runs one ulp apart at 0.5;
        # points take the node-free cell, the one step and the binary search
        crowd = 0.5 + np.arange(12) // 3 * np.spacing(0.5)
        cdf = np.sort(np.concatenate((np.linspace(0.0, 1.0, 41), crowd)))
        table = DensityTable(grid=np.arange(len(cdf), dtype=float), cdf=cdf, domain=(0.0, 52.0))
        u = np.concatenate(
            (np.random.default_rng(3).random(4000), cdf, np.nextafter(cdf, np.inf))
        )
        cells = numerics._GUIDE_CELLS_PER_NODE * len(cdf)
        cell, node_cell = np.floor(u * cells), np.floor(cdf * cells)
        before = np.searchsorted(node_cell, cell)
        held = np.searchsorted(node_cell, cell, "right") > before
        steps = np.searchsorted(cdf, u, "right") - before
        assert (~held).any() and (held & (steps <= 1)).any() and (held & (steps >= 2)).any()
        assert_lookups_match(table, u)
