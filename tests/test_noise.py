import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qroulette import noise
from qroulette.errors import NumericalError, QRouletteError, ValidationError, check_eta
from qroulette.noise import (
    MAX_POINTS,
    ZeroLinePoint,
    _bisect,
    _root_beta,
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


class TestHugeMoments:
    # past mean_n ~ 1.34e154 the float power mean_n**2 overflows, so the refusal
    # must not be worded with it
    @pytest.mark.parametrize(
        "fn",
        [noise_report, delta_rh, roulette_variance, direct_variance, heterodyne_variance],
        ids=["noise_report", "delta_rh", "roulette_variance", "direct_variance",
             "heterodyne_variance"],
    )
    def test_inconsistent_moments_are_refused(self, fn):
        with pytest.raises(ValidationError, match="inconsistent moments"):
            fn(1.4e154, 1.0, 0.5)


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

    @given(
        total_n=st.floats(0.0, 1e8),
        betas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        eta=st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1, 1e-3]),
    )
    @settings(max_examples=500, deadline=None)
    def test_nondecreasing_in_beta(self, total_n, betas, eta):
        # exactly so in real arithmetic; the slack is a few roundings of the largest term
        lo, hi = betas
        slack = 1e-15 * (4.0 * (1.0 + total_n) ** 2 + 1.0 / eta**2)
        assert squeezed_delta_rh(total_n, lo, eta) <= squeezed_delta_rh(total_n, hi, eta) + slack

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

    @pytest.mark.parametrize("eta", [1.0, 0.1])
    def test_intercept_is_exactly_the_coherent_crossover(self, eta):
        points = zero_line(eta, n_points=160, n_max=12.0)
        assert [p.total_n for p in points if p.beta == 0.0 and p.converged] == [1.0 / eta]
        assert zero_contour_n(eta, 0.0) == 1.0 / eta

    def test_flagged_points_carry_no_root(self):
        # a point whose gap keeps one sign on [0, 1] is flagged, and a flagged
        # point has no beta
        points = zero_line(1e-3, n_points=64, n_max=2000.0)
        assert all(math.isnan(p.beta) for p in points if not p.converged)

    def test_bracketed_points_converge(self):
        # bisection finds these roots to adjacent floats, though the gap's terms near
        # 1/eta^2 = 1e6 leave |gap| above 1e-10 at some of them
        eta = 1e-3
        points = zero_line(eta, n_points=64, n_max=2000.0)
        bracketed = [
            p
            for p in points
            if squeezed_delta_rh(p.total_n, 0.0, eta) <= 0.0
            and squeezed_delta_rh(p.total_n, 1.0, eta) >= 0.0
        ]
        assert len(bracketed) == 14
        assert all(p.converged and 0.0 <= p.beta <= 1.0 for p in bracketed)

    def test_n_points_is_bounded(self):
        with pytest.raises(ValidationError, match=f"n_points must lie in \\[1, {MAX_POINTS}\\]"):
            zero_line(0.5, n_points=MAX_POINTS + 1)

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


class TestZeroLineGrid:
    N_MAX = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 1.0 / 3.0, 12.0, 1e5, 1e300]

    @pytest.mark.parametrize("n_points", [1, 2, 3, 160, MAX_POINTS])
    def test_grid_is_numpy_linspace_bit_for_bit(self, n_points, monkeypatch):
        # stubs: every N gets a flagged point and no intercept is added (a gap past
        # N = 1e154 overflows), so the points are the grid, sorted: with subnormal
        # steps numpy's points can pass n_max before its end
        monkeypatch.setattr(noise, "_root_beta", lambda n, eta: ZeroLinePoint(n, math.nan, False))
        monkeypatch.setattr(noise, "squeezed_delta_rh", lambda *args, **kwargs: -1.0)
        for n_max in self.N_MAX:
            points = zero_line(1.0, n_points=n_points, n_max=n_max)
            grid = np.array([p.total_n for p in points])
            expected = np.sort(np.linspace(n_max / n_points, n_max, n_points))
            assert grid.view(np.int64).tolist() == expected.view(np.int64).tolist(), n_max
            assert all(type(p.total_n) is float for p in points)

    def test_grids_take_both_numpy_branches(self):
        # numpy scales i / (n - 1) when the step underflows to 0 (gh-5437)
        steps = [
            (n_max - n_max / n) / (n - 1) for n in (2, 3, 160, MAX_POINTS) for n_max in self.N_MAX
        ]
        assert 0.0 in steps and any(step > 0.0 for step in steps)


class TestBisection:
    ETAS = [1.0, 0.9, 0.75, 0.5, 0.3, 0.25, 0.1, 0.05, 0.01, 1e-3]
    GRID = [(128, 12.0), (160, 12.0), (96, 14.0), (48, 5.0), (64, 4.0), (7, 30.0), (300, 50.0),
            (1, 1e6)]

    def test_agrees_with_brentq_on_every_bracketed_point(self):
        bracketed = 0
        for eta in self.ETAS:
            for n_points, n_max in self.GRID:
                for point in zero_line(eta, n_points, n_max):
                    if point.total_n == 1.0 / eta and point.beta == 0.0:
                        continue  # the intercept, in closed form
                    gap = lambda beta, n=point.total_n: squeezed_delta_rh(n, beta, eta)
                    inside = gap(0.0) <= 0.0 <= gap(1.0)
                    assert point.converged == inside
                    if inside:
                        root = brentq(gap, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16, maxiter=200)
                        assert abs(point.beta - root) <= 3e-15, (eta, point, root)
                        bracketed += 1
        assert bracketed > 600

    def test_zero_contour_n_agrees_with_brentq(self):
        for eta in (1.0, 0.5, 0.1):
            for beta in (1e-9, 0.05, 0.5, 1.0):
                gap = lambda n: squeezed_delta_rh(n, beta, eta)
                root = brentq(gap, 0.0, 1e4, xtol=1e-14, rtol=8.9e-16)
                assert abs(zero_contour_n(eta, beta) - root) <= 4e-15 * root

    def test_a_gap_of_exactly_zero_at_beta_zero_is_the_root(self):
        # N = 1000 = 1/eta is a grid point of this line, with a gap of exactly 0.0 at beta = 0
        assert squeezed_delta_rh(1000.0, 0.0, 1e-3) == 0.0
        assert _root_beta(1000.0, 1e-3).beta == 0.0
        points = zero_line(1e-3, n_points=64, n_max=2000.0)
        assert [p.total_n for p in points if p.beta == 0.0] == [1000.0]

    def test_runs_to_adjacent_floats(self):
        f = lambda b: b * b - 0.5
        root = _bisect(f, 0.0, 1.0, -0.5, 0.5)
        assert abs(root - math.sqrt(0.5)) <= math.ulp(root)
        assert _bisect(lambda b: b - 0.25, 0.0, 1.0, -0.25, 0.75) == 0.25
        assert _bisect(lambda b: b, 0.0, 1.0, 0.0, 1.0) == 0.0
        assert _bisect(lambda b: b - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0
        # a root below every normal float: bisection walks into the subnormals and stops
        assert _bisect(lambda b: b - 1e-320, 0.0, 1.0, -1e-320, 1.0) == 1e-320


def _outcome(fn, *args):
    """fn(*args) as float.hex strings, or the type and message of what it raised."""
    try:
        value = fn(*args)
    except QRouletteError as exc:
        return type(exc), str(exc)
    if isinstance(value, float):
        return value.hex()
    return [(p.total_n.hex(), p.beta.hex(), p.converged) for p in value]


class TestContourOracle:
    """zero_line and zero_contour_n against bisection over the public, validating
    squeezed_delta_rh, bracket for bracket: equal bits, or the same error."""

    ETAS = [1.0, 0.75, 0.5, 0.25, 0.1, 0.01, 1e-3, 1e-150, 1.3e-154, 1e-160, 5e-324]
    # (64, 2000) holds N = 1000 = 1/eta, a gap of exactly 0 at eta = 1e-3; eta = 1.3e-154
    # brackets roots near N = 7e153, and (3, 1e300) and eta <= 1e-160 overflow
    GRIDS = [(128, 12.0), (2000, 50.0), (64, 2000.0), (7, 1e-320), (50, 7e153), (3, 1e300)]
    BETAS = [0.0, 1e-9, 0.05, 0.5, 1.0]

    @staticmethod
    def reference_root_beta(total_n, eta):
        f = functools.partial(squeezed_delta_rh, total_n, eta=eta)
        at_0, at_1 = f(0.0), f(1.0)
        if at_0 > 0.0 or at_1 < 0.0:
            return ZeroLinePoint(total_n, math.nan, False)
        return ZeroLinePoint(total_n, _bisect(f, 0.0, 1.0, at_0, at_1), True)

    @staticmethod
    def reference_zero_contour_n(eta, beta, n_hi):
        check_eta(eta)
        at_hi = squeezed_delta_rh(n_hi, beta, eta)
        if at_hi <= 0.0:
            raise ValidationError(f"no contour crossing below N = {n_hi}")
        if beta == 0.0:
            return 1.0 / eta
        f = functools.partial(squeezed_delta_rh, beta=beta, eta=eta)
        return _bisect(f, 0.0, n_hi, f(0.0), at_hi)

    @pytest.mark.parametrize("eta", ETAS)
    def test_zero_line_matches_bit_for_bit(self, eta, monkeypatch):
        got = [_outcome(zero_line, eta, n_points, n_max) for n_points, n_max in self.GRIDS]
        monkeypatch.setattr(noise, "_root_beta", self.reference_root_beta)
        expected = [_outcome(zero_line, eta, n_points, n_max) for n_points, n_max in self.GRIDS]
        assert got == expected

    @pytest.mark.parametrize("eta", ETAS)
    def test_zero_contour_n_matches_bit_for_bit(self, eta):
        for n_hi in [1e4] + [n_max for _, n_max in self.GRIDS]:
            for beta in self.BETAS:
                got = _outcome(zero_contour_n, eta, beta, n_hi)
                assert got == _outcome(self.reference_zero_contour_n, eta, beta, n_hi), (beta, n_hi)

    def test_cases_reach_every_outcome(self):
        exact_zero = _outcome(zero_line, 1e-3, 64, 2000.0)
        assert ((1000.0).hex(), (0.0).hex(), True) in exact_zero
        near_overflow = _outcome(zero_line, 1.3e-154, 50, 7e153)
        assert sum(converged for _, _, converged in near_overflow) > 10
        for eta, n_max in ((0.5, 1e300), (1e-160, 12.0), (5e-324, 12.0)):
            assert _outcome(zero_line, eta, 3, n_max) == (
                NumericalError, f"squeezed_delta_rh overflows at eta = {eta!r}"
            )


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
