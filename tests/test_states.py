import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from qroulette.errors import NumericalError, TruncationError, ValidationError
from qroulette.states import (
    HARD_CAP,
    StateSpec,
    exact_moments,
    moments,
    photon_distribution,
)


def squeezed_bracket(total_n, beta):
    """Closed-form <n^2> - <n> for the (N, beta) squeezed family."""
    bn = beta * total_n
    return (
        total_n**2
        + 2 * bn * (1 + bn)
        + (1 - beta) * total_n * (1 + 2 * bn + 2 * math.sqrt(bn * (1 + bn)))
        - total_n
    )


class TestDistributions:
    def test_fock(self):
        stats = photon_distribution(StateSpec.fock(2))
        assert stats.rho.tolist() == [0.0, 0.0, 1.0]

    def test_coherent_is_poisson(self):
        stats = photon_distribution(StateSpec.coherent(1.0))
        expected = [math.exp(-1.0) / math.factorial(n) for n in range(6)]
        assert stats.rho[:6] == pytest.approx(expected, rel=1e-12)

    def test_thermal_is_geometric(self):
        stats = photon_distribution(StateSpec.thermal(1.0))
        expected = [2.0 ** -(n + 1) for n in range(8)]
        assert stats.rho[:8] == pytest.approx(expected, rel=1e-12)

    def test_squeezed_vacuum_even_support(self):
        stats = photon_distribution(StateSpec.squeezed(1.0, 1.0))
        assert np.all(stats.rho[1::2] == 0.0)
        mean, _, _ = moments(stats)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_mass_and_tail(self):
        for spec in (
            StateSpec.coherent(3.0),
            StateSpec.thermal(2.0),
            StateSpec.squeezed(4.0, 0.7),
            StateSpec.fock(5),
        ):
            stats = photon_distribution(spec, 1e-12)
            total = stats.rho.sum()
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-13
            assert np.all(stats.rho >= 0.0)

    @pytest.mark.parametrize("n_bar", [900.0, 1545.0, 2500.0, 3500.0])
    def test_bright_coherent_mass(self, n_bar):
        # the rounded Poisson pmf leaves the accepted mass band (above it at
        # 900, 2500 and 3500; below it at 1545)
        stats = photon_distribution(StateSpec.coherent(n_bar))
        assert 1.0 - 1e-12 <= stats.rho.sum() <= 1.0 + 1e-13
        assert moments(stats)[0] == pytest.approx(n_bar, rel=1e-12)

    def test_coherent_within_slack_is_the_raw_poisson_pmf(self):
        # N = 10 sums to 1 + 1.8e-15: valid as computed, so it is left unscaled
        stats = photon_distribution(StateSpec.coherent(10.0))
        raw = scipy_stats.poisson.pmf(np.arange(len(stats.rho)), 10.0)
        assert raw.sum() > 1.0
        assert np.array_equal(stats.rho, raw)

    def test_hard_cap_failure(self):
        with pytest.raises(TruncationError):
            photon_distribution(StateSpec.thermal(5000.0))

    def test_fock_hard_cap(self):
        assert photon_distribution(StateSpec.fock(HARD_CAP)).n_max == HARD_CAP
        with pytest.raises(TruncationError):
            photon_distribution(StateSpec.fock(HARD_CAP + 1))

    def test_custom_weights(self):
        stats = photon_distribution(StateSpec.custom([0.25, 0.5, 0.25]))
        assert stats.rho.tolist() == [0.25, 0.5, 0.25]

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_custom_simplex_property(self, raw):
        total = sum(raw)
        if total <= 0.0:
            return
        weights = [w / total for w in raw]
        if abs(sum(weights) - 1.0) > 1e-12:
            return
        stats = photon_distribution(StateSpec.custom(weights))
        assert np.all(stats.rho >= 0.0)
        assert stats.rho.sum() == pytest.approx(1.0, abs=1e-12)


BRIGHT_FAMILIES = {
    "coherent": StateSpec.coherent,
    "thermal": StateSpec.thermal,
    "squeezed": lambda n: StateSpec.squeezed(n, 0.5),
    "squeezed vacuum": lambda n: StateSpec.squeezed(n, 1.0),
    "squeezed coherent": lambda n: StateSpec.squeezed(n, 0.0),
}


class TestBrightStates:
    @pytest.mark.parametrize("family", sorted(BRIGHT_FAMILIES))
    def test_decade_sweep_builds_or_names_the_n_max(self, family):
        # N = 10^3, 10^3.5, ..., 10^300: a law inside the mass band, or a
        # TruncationError naming the n_max needed; never another error or a warning
        built = 0
        for exponent in np.arange(3.0, 300.5, 0.5):
            spec = BRIGHT_FAMILIES[family](10.0**exponent)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    stats = photon_distribution(spec)
                except TruncationError as exc:
                    assert "distribution needs n_max" in str(exc) and f"> {HARD_CAP}" in str(exc)
                    continue
            assert 1.0 - 1e-12 - 1e-13 <= stats.rho.sum() <= 1.0 + 1e-13
            built += 1
        assert built <= 2

    @pytest.mark.parametrize(
        "spec, needed",
        [
            (StateSpec.coherent(1e4), 1.07e4),
            (StateSpec.thermal(1e15), 2.763e16),
            (StateSpec.thermal(1e16), 2.763e17),
        ],
    )
    def test_message_names_the_needed_n_max(self, spec, needed):
        with pytest.raises(TruncationError, match=re.escape(f"about {needed:.4g} > {HARD_CAP}")):
            photon_distribution(spec)

    def test_squeezed_tail_beyond_the_window_names_the_needed_n_max(self):
        # 2.1 % of this law lies beyond the widest window, and its tail falls
        # below 1e-12 only after n = 32304 (a recurrence run to n = 80000)
        with pytest.raises(TruncationError) as info:
            photon_distribution(StateSpec.squeezed(1000.0, 0.5))
        needed = float(re.search(r"about (\S+) >", str(info.value)).group(1))
        assert 0.8 * 32304 <= needed <= 1.2 * 32304


class TestMoments:
    def test_fock_three(self):
        assert moments(photon_distribution(StateSpec.fock(3))) == (3.0, 9.0, 0.0)

    def test_coherent_two(self):
        mean, mean_sq, var = moments(photon_distribution(StateSpec.coherent(2.0)))
        assert mean == pytest.approx(2.0, abs=1e-9)
        assert mean_sq == pytest.approx(6.0, abs=1e-9)
        assert var == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("n_bar", [0.5, 1.0, 5.0, 12.0, 20.0])
    def test_coherent_moment_closed_forms(self, n_bar):
        mean, mean_sq, var = moments(photon_distribution(StateSpec.coherent(n_bar)))
        assert mean == pytest.approx(n_bar, abs=1e-9)
        assert mean_sq == pytest.approx(n_bar**2 + n_bar, abs=1e-9)
        assert var == pytest.approx(n_bar, abs=1e-9)

    @pytest.mark.parametrize("n_bar", [0.5, 2.0, 8.0])
    def test_squeezed_vacuum_variance(self, n_bar):
        _, _, var = moments(photon_distribution(StateSpec.squeezed(n_bar, 1.0)))
        assert var == pytest.approx(2 * n_bar * (n_bar + 1), rel=1e-7)

    @pytest.mark.parametrize("total_n", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_squeezed_mean_defines_parameterization(self, total_n, beta):
        mean, _, _ = moments(photon_distribution(StateSpec.squeezed(total_n, beta)))
        assert mean == pytest.approx(total_n, abs=1e-9)

    @pytest.mark.parametrize("total_n", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_squeezed_second_moment_oracle(self, total_n, beta):
        # strongest cross-check: <n^2> - <n> from the Fock expansion must
        # reproduce the closed-form bracket of the (N, beta) family
        mean, mean_sq, _ = moments(photon_distribution(StateSpec.squeezed(total_n, beta)))
        assert mean_sq - mean == pytest.approx(squeezed_bracket(total_n, beta), abs=1e-7)

    def test_exact_moments_match_distributions(self):
        for spec in (
            StateSpec.coherent(3.0),
            StateSpec.thermal(1.5),
            StateSpec.squeezed(2.0, 0.5),
            StateSpec.fock(4),
            StateSpec.custom([0.1, 0.2, 0.3, 0.4]),
        ):
            mean, mean_sq, _ = moments(photon_distribution(spec))
            exact_mean, exact_sq = exact_moments(spec)
            assert mean == pytest.approx(exact_mean, abs=1e-9)
            assert mean_sq == pytest.approx(exact_sq, abs=1e-7)

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.coherent(1e155),
            StateSpec.thermal(1e300),
            StateSpec.squeezed(1e200, 1.0),
            StateSpec.squeezed(1e300, 0.5),
        ],
    )
    def test_overflowing_second_moment_is_a_numerical_error(self, spec):
        with pytest.raises(NumericalError, match="mean_nsq overflows"):
            exact_moments(spec)

    def test_largest_finite_second_moments_pass(self):
        assert exact_moments(StateSpec.coherent(1e154)) == (1e154, 1e154 * 1e154 + 1e154)
        assert math.isfinite(exact_moments(StateSpec.thermal(9e153))[1])


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            StateSpec.coherent(-1.0)
        with pytest.raises(ValidationError):
            StateSpec.squeezed(1.0, 1.5)
        with pytest.raises(ValidationError):
            StateSpec.fock(-2)
        with pytest.raises(ValidationError):
            StateSpec.custom([0.5, 0.6])
        with pytest.raises(ValidationError):
            StateSpec.custom([])

    def test_tail_bound_range(self):
        with pytest.raises(ValidationError):
            photon_distribution(StateSpec.coherent(1.0), 1e-3)
        with pytest.raises(ValidationError):
            photon_distribution(StateSpec.coherent(1.0), 0.0)

    def test_describe_round_trip_fields(self):
        spec = StateSpec.squeezed(2.0, 0.5)
        text = spec.describe()
        assert "kind=squeezed" in text and "N=2.0" in text and "beta=0.5" in text
