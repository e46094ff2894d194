import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroulette.errors import NumericalError, ValidationError
from qroulette.noise import (
    added_noise,
    delta_rh,
    direct_variance,
    heterodyne_variance,
    noise_report,
    roulette_variance,
    squeezed_delta_rh,
    threshold_n,
    zero_contour_n,
    zero_line,
)
from qroulette.states import StateSpec, moments, photon_distribution

moment_pairs = st.tuples(
    st.floats(0.0, 100.0), st.floats(0.0, 1000.0)
).map(lambda t: (t[0], t[0] ** 2 + t[1]))  # (mean, mean_sq) with var = t[1]
etas = st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1])


class TestVarianceFormulas:
    def test_roulette_examples(self):
        assert roulette_variance(0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert roulette_variance(1.0, 2.0, 1.0) == pytest.approx(3.0)
        assert roulette_variance(2.0, 4.0, 0.5) == pytest.approx(9.0)

    def test_direct_examples(self):
        assert direct_variance(1.0, 1.0, 0.5) == pytest.approx(1.0)
        assert direct_variance(3.0, 11.0, 1.0) == pytest.approx(2.0)  # <dn^2> at eta = 1
        assert direct_variance(2.0, 6.0, 0.5) == pytest.approx(4.0)

    def test_heterodyne_examples(self):
        assert heterodyne_variance(0.0, 0.0, 1.0) == pytest.approx(1.0)
        assert heterodyne_variance(2.0, 6.0, 1.0) == pytest.approx(5.0)
        assert heterodyne_variance(0.0, 0.0, 0.5) == pytest.approx(4.0)

    def test_moment_validation(self):
        with pytest.raises(ValidationError):
            roulette_variance(2.0, 1.0, 1.0)  # variance would be negative
        with pytest.raises(ValidationError):
            direct_variance(-1.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            heterodyne_variance(1.0, 2.0, 0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "fn, args",
        [
            (roulette_variance, (1.0, 2.0, 0.5)),
            (direct_variance, (1.0, 2.0, 0.5)),
            (heterodyne_variance, (1.0, 2.0, 0.5)),
            (lambda *a: added_noise("roulette", *a), (1.0, 2.0, 0.5)),
            (lambda *a: added_noise("heterodyne", *a), (1.0, 2.0, 0.5)),
            (delta_rh, (1.0, 2.0, 0.5)),
            (noise_report, (1.0, 2.0, 0.5)),
            (threshold_n, (0.5,)),
            (squeezed_delta_rh, (2.0, 0.5, 0.5)),
            (lambda eta, n_max: zero_line(eta, 8, n_max), (0.5, 4.0)),
            (zero_contour_n, (0.5, 0.5, 1e4)),
        ],
        ids=[
            "roulette_variance", "direct_variance", "heterodyne_variance",
            "added_noise_roulette", "added_noise_heterodyne", "delta_rh", "noise_report",
            "threshold_n", "squeezed_delta_rh", "zero_line", "zero_contour_n",
        ],
    )
    def test_rejected_in_every_float_argument(self, fn, args, bad):
        fn(*args)
        for position in range(len(args)):
            poisoned = args[:position] + (bad,) + args[position + 1 :]
            with pytest.raises(ValidationError):
                fn(*poisoned)


class TestTinyEfficiency:
    # eta is accepted down to any positive float; a closed form that overflows
    # there is a numerical failure naming its figure, never inf or a traceback
    @pytest.mark.parametrize("eta", [1e-160, 1e-200, 5e-324])
    @pytest.mark.parametrize(
        "fn, args, figure",
        [
            (roulette_variance, (1.0, 2.0), "roulette_var"),
            (heterodyne_variance, (1.0, 2.0), "heterodyne_var"),
            (lambda *a: added_noise("roulette", *a), (1.0, 2.0), "added_roulette"),
            (lambda *a: added_noise("heterodyne", *a), (1.0, 2.0), "added_heterodyne"),
            (delta_rh, (1.0, 2.0), "delta_rh"),
            (noise_report, (1.0, 2.0), "roulette_var"),
            (threshold_n, (), "threshold_n"),
            (squeezed_delta_rh, (2.0, 0.5), "squeezed_delta_rh"),
        ],
        ids=[
            "roulette_variance", "heterodyne_variance", "added_noise_roulette",
            "added_noise_heterodyne", "delta_rh", "noise_report", "threshold_n",
            "squeezed_delta_rh",
        ],
    )
    def test_overflow_is_a_numerical_error(self, fn, args, figure, eta):
        with pytest.raises(NumericalError, match=figure):
            fn(*args, eta)

    def test_small_but_representable_eta_is_finite(self):
        report = noise_report(1.0, 2.0, 1e-150)
        assert all(math.isfinite(v) for v in report.to_dict().values())
        assert direct_variance(1.0, 2.0, 1e-200) == pytest.approx(1e200)


class TestAddedNoise:
    def test_examples(self):
        assert added_noise("heterodyne", 0.0, 0.0, 1.0) == pytest.approx(1.0)
        assert added_noise("roulette", 0.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            added_noise("direct", 1.0, 2.0, 1.0)

    @given(pair=moment_pairs, eta=etas)
    @settings(max_examples=300, deadline=None)
    def test_positivity_property(self, pair, eta):
        mean, mean_sq = pair
        assert added_noise("roulette", mean, mean_sq, eta) > 0.0
        assert added_noise("heterodyne", mean, mean_sq, eta) > 0.0

    @given(pair=moment_pairs, eta=etas)
    @settings(max_examples=300, deadline=None)
    def test_definitional_consistency(self, pair, eta):
        mean, mean_sq = pair
        gap_r = roulette_variance(mean, mean_sq, eta) - direct_variance(mean, mean_sq, eta)
        gap_h = heterodyne_variance(mean, mean_sq, eta) - direct_variance(mean, mean_sq, eta)
        scale = max(1.0, mean_sq)
        assert added_noise("roulette", mean, mean_sq, eta) == pytest.approx(
            gap_r, abs=1e-12 * scale
        )
        assert added_noise("heterodyne", mean, mean_sq, eta) == pytest.approx(
            gap_h, abs=1e-12 * scale
        )


class TestDeltaRH:
    def test_examples(self):
        for eta in (1.0, 0.5, 0.25):
            mean = 1.0 / eta  # coherent crossover
            assert delta_rh(mean, mean**2 + mean, eta) == pytest.approx(0.0, abs=1e-14)
        assert delta_rh(0.0, 0.0, 1.0) == pytest.approx(-0.5)
        assert delta_rh(3.0, 9.0, 1.0) == pytest.approx(2.5)

    @given(pair=moment_pairs, eta=etas)
    @settings(max_examples=300, deadline=None)
    def test_is_variance_difference(self, pair, eta):
        mean, mean_sq = pair
        gap = roulette_variance(mean, mean_sq, eta) - heterodyne_variance(mean, mean_sq, eta)
        assert delta_rh(mean, mean_sq, eta) == pytest.approx(
            gap, abs=1e-12 * max(1.0, mean_sq)
        )


class TestThreshold:
    def test_values(self):
        assert threshold_n(1.0) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert threshold_n(0.5) == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-12)

    def test_small_eta_asymptote(self):
        for eta in (1e-2, 1e-3, 1e-4):
            assert threshold_n(eta) * eta == pytest.approx(1.0, abs=0.6 * eta)

    def test_strictly_decreasing_in_eta(self):
        grid = np.linspace(0.05, 1.0, 40)
        values = [threshold_n(float(e)) for e in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fock_sign_rule(self):
        for eta in (1.0, 0.75, 0.5, 0.25, 0.1):
            cut = threshold_n(eta)
            for n in range(0, 60):
                sign = np.sign(delta_rh(float(n), float(n * n), eta))
                assert sign == np.sign(n - cut), (n, eta)


class TestSqueezedDeltaRH:
    def test_coherent_limit(self):
        for total_n in (0.5, 1.0, 4.0):
            for eta in (1.0, 0.5):
                assert squeezed_delta_rh(total_n, 0.0, eta) == pytest.approx(
                    total_n**2 - 1.0 / eta**2, abs=1e-12
                )

    def test_squeezed_vacuum_point(self):
        assert squeezed_delta_rh(1.0, 1.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_vacuum_limit(self):
        for eta in (1.0, 0.5, 0.1):
            assert squeezed_delta_rh(0.0, 0.7, eta) == pytest.approx(-1.0 / eta**2)

    @pytest.mark.parametrize("total_n", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_factor_two_relation_to_delta_rh(self, total_n, beta, eta):
        # the closed-form family expression is an un-halved convention: it is
        # exactly twice the general moment formula on the same state
        stats = photon_distribution(StateSpec.squeezed(total_n, beta))
        mean, mean_sq, _ = moments(stats)
        assert squeezed_delta_rh(total_n, beta, eta) == pytest.approx(
            2.0 * delta_rh(mean, mean_sq, eta), abs=1e-6
        )


class TestZeroLine:
    def test_unit_efficiency_intercept(self):
        points = zero_line(1.0, n_points=64, n_max=4.0)
        at_axis = [p for p in points if p.beta == 0.0 and p.converged]
        assert len(at_axis) == 1
        assert at_axis[0].total_n == pytest.approx(1.0, abs=1e-10)

    def test_quarter_efficiency_intercept(self):
        points = zero_line(0.25, n_points=64, n_max=6.0)
        at_axis = [p for p in points if p.beta == 0.0 and p.converged]
        assert at_axis[0].total_n == pytest.approx(4.0, abs=1e-10)

    def test_converged_roots_are_tight(self):
        for eta in (1.0, 0.5):
            for point in zero_line(eta, n_points=48, n_max=5.0):
                if point.converged and point.beta > 0.0:
                    assert abs(squeezed_delta_rh(point.total_n, point.beta, eta)) <= 1e-10

    def test_rootless_points_are_flagged(self):
        points = zero_line(1.0, n_points=40, n_max=12.0)
        flagged = [p for p in points if not p.converged]
        assert flagged, "expected flagged points outside the root region"
        for point in flagged:
            assert math.isnan(point.beta)

    def test_curves_shift_right_as_eta_decreases(self):
        for beta in (0.2, 0.5, 0.8):
            roots = [zero_contour_n(eta, beta) for eta in (1.0, 0.75, 0.5, 0.25, 0.1)]
            assert all(a < b for a, b in zip(roots, roots[1:])), (beta, roots)

    def test_validation(self):
        with pytest.raises(ValidationError):
            zero_line(0.0)
        with pytest.raises(ValidationError):
            zero_line(1.0, n_points=0)
        with pytest.raises(ValidationError):
            zero_line(1.0, n_max=-1.0)


class TestNoiseReport:
    def test_internal_consistency(self):
        report = noise_report(2.0, 6.0, 0.5)
        assert report.roulette_var == pytest.approx(report.direct_var + report.added_roulette)
        assert report.heterodyne_var == pytest.approx(
            report.direct_var + report.added_heterodyne
        )
        assert report.delta_rh == pytest.approx(report.roulette_var - report.heterodyne_var)
        assert report.added_roulette > 0.0 and report.added_heterodyne > 0.0

    def test_round_trips_through_dict(self):
        report = noise_report(1.0, 2.0, 1.0)
        payload = report.to_dict()
        assert payload["delta_rh"] == 0.0
        assert payload["threshold_n"] == threshold_n(1.0)
