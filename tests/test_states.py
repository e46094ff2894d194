import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import pdtrc

from qroulette.errors import NumericalError, TruncationError, ValidationError
from qroulette.states import (
    HARD_CAP,
    WINDOW_CAP,
    PhotonStatistics,
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

    @pytest.mark.parametrize("n_bar", [5e-324, 1e-310, 1e-300])
    def test_subnormal_coherent_is_vacuum(self, n_bar):
        # N / (n + 1 - N) underflows to 0 here; the window test must not take its log
        stats = photon_distribution(StateSpec.coherent(n_bar))
        assert stats.rho.tolist() == [1.0]

    @pytest.mark.parametrize("tail_bound", [1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize(
        "spec",
        [StateSpec.squeezed(0.0, beta) for beta in (0.0, 0.25, 0.5, 1.0)]
        + [StateSpec.thermal(0.0)],
        ids=lambda spec: spec.describe(),
    )
    def test_no_photons_is_the_vacuum_law(self, spec, tail_bound):
        # squeezed N = 0 runs the general recurrence: c_1 = 0, and the trim keeps one entry
        rho = photon_distribution(spec, tail_bound).rho
        assert rho.dtype == float and rho.tobytes() == np.array([1.0]).tobytes()

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

    @pytest.mark.parametrize("n_bar", [100.0, 1000.0])
    @pytest.mark.parametrize("tail_bound", [1e-300, 1e-200, 1e-100])
    def test_coherent_honours_a_small_tail_bound(self, n_bar, tail_bound):
        # the Poisson mass beyond n_max, P(N > n_max), by scipy's pdtrc
        stats = photon_distribution(StateSpec.coherent(n_bar), tail_bound)
        assert pdtrc(stats.n_max, n_bar) <= tail_bound
        assert 1.0 - tail_bound - 1e-13 <= stats.rho.sum() <= 1.0 + 1e-13

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

    def test_custom_hard_cap(self):
        at_cap = np.zeros(HARD_CAP + 1)
        at_cap[-1] = 1.0
        assert photon_distribution(StateSpec.custom(at_cap)).n_max == HARD_CAP
        with pytest.raises(TruncationError, match=f"n_max={HARD_CAP + 1} > {HARD_CAP}"):
            photon_distribution(StateSpec.custom(np.append(at_cap, 0.0)))

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

    def test_too_bright_exactly_where_the_poisson_tail_beyond_the_window_is(self):
        # pdtrc(WINDOW_CAP, N) crosses 1e-12 at N = 4147.4686
        near = 4147.4686 + np.arange(-5, 6) * 1e-4
        means = np.concatenate([np.linspace(2000.0, 5000.0, 6001), near])
        for mean in means.tolist():
            try:
                photon_distribution(StateSpec.coherent(mean))
                too_bright = False
            except TruncationError as error:
                too_bright = "n_max of about" in str(error)
            assert too_bright == (pdtrc(WINDOW_CAP, mean) > 1e-12), mean

    def test_only_a_clipped_window_takes_the_tail(self, monkeypatch):
        from qroulette import numerics

        taken = []
        monkeypatch.setattr(numerics, "poisson_tail", lambda mu, k: taken.append((mu, k)) or 0.0)
        # the window N + 30 sqrt(N + 1) + 30 passes WINDOW_CAP from N = 2949.457 on
        for mean in [1e-300, 0.5, 10.0, 500.0, 2000.0, 2900.0, 2949.45]:
            photon_distribution(StateSpec.coherent(mean))
        assert taken == []
        photon_distribution(StateSpec.coherent(2949.46))
        assert taken == [(2949.46, WINDOW_CAP + 1)]

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

    @pytest.mark.parametrize("n", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_fock_orders_past_the_float_range_overflow_mean_nsq(self, n):
        with pytest.raises(NumericalError, match="mean_nsq overflows"):
            exact_moments(StateSpec.fock(n))


class TestValidation:
    def test_photon_laws_compare_and_hash_by_identity(self):
        # two laws of the same weights: comparing them reads no array
        first, second = PhotonStatistics([0.5, 0.5], 1e-12), PhotonStatistics([0.5, 0.5], 1e-12)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_the_callers_rho_stays_writable_and_unshared(self):
        rho = np.array([0.25, 0.75])
        law = PhotonStatistics(rho, 1e-12)
        assert rho.flags.writeable and not law.rho.flags.writeable
        assert not np.shares_memory(rho, law.rho)

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

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([], "PhotonStatistics: rho must be a nonempty 1-d array"),
            ([[0.5, 0.5]], "PhotonStatistics: rho must be a nonempty 1-d array"),
            ([-0.25, 1.25], "PhotonStatistics: rho entries must be finite and >= 0"),
            ([math.nan, 1.0], "PhotonStatistics: rho entries must be finite and >= 0"),
            ([math.inf], "PhotonStatistics: rho entries must be finite and >= 0"),
            ([0.5], "PhotonStatistics: mass 0.5 outside [1 - 1e-12, 1]"),
            ([0.6, 0.6], "PhotonStatistics: mass 1.2 outside [1 - 1e-12, 1]"),
        ],
    )
    def test_photon_law_refusals(self, rho, message):
        with pytest.raises(ValidationError) as info:
            PhotonStatistics(rho, 1e-12)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["warp", ["coherent"], None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValidationError) as info:
            StateSpec(kind)
        assert str(info.value) == f"unknown state kind '{kind}'"

    def test_zero_mean_coherent_state_is_the_vacuum(self):
        assert photon_distribution(StateSpec.coherent(0)).rho.tolist() == [1.0]

    def test_describe_round_trip_fields(self):
        spec = StateSpec.squeezed(2.0, 0.5)
        text = spec.describe()
        assert "kind=squeezed" in text and "N=2.0" in text and "beta=0.5" in text


# each kind's own fields, set away from their defaults, and the grammar name of every field
OWN_FIELDS = {
    "coherent": {"mean_photons": 1.5},
    "squeezed": {"mean_photons": 2.0, "squeezing_fraction": 0.5},
    "fock": {"fock_n": 3},
    "thermal": {"mean_photons": 0.7},
    "custom": {"weights": (0.25, 0.75)},
}
GRAMMAR_NAMES = {
    "mean_photons": "N", "squeezing_fraction": "beta", "fock_n": "n", "weights": "weights"
}
FOREIGN = [
    (kind, attr) for kind, own in OWN_FIELDS.items() for attr in GRAMMAR_NAMES if attr not in own
]


class TestForeignFields:
    @pytest.mark.parametrize("kind, attr", FOREIGN)
    def test_every_foreign_field_is_refused_by_name(self, kind, attr):
        foreign = {"fock_n": 1, "weights": (1.0,)}.get(attr, 0.5)
        with pytest.raises(ValidationError) as info:
            StateSpec(kind, **OWN_FIELDS[kind], **{attr: foreign})
        assert str(info.value) == f"state kind '{kind}' takes no field '{GRAMMAR_NAMES[attr]}'"

    @pytest.mark.parametrize("kind, attr", FOREIGN)
    @pytest.mark.parametrize(
        "value", [math.nan, "abc", np.array([0.0, 1.0]), np.zeros(1), (), -1, True],
        ids=["nan", "text", "array", "zeros", "empty-tuple", "minus-one", "true"],
    )
    def test_a_foreign_value_of_any_type_is_a_validation_error(self, kind, attr, value):
        with pytest.raises(ValidationError, match=f"state kind '{kind}' takes no field"):
            StateSpec(kind, **OWN_FIELDS[kind], **{attr: value})

    @pytest.mark.parametrize("kind, attr", FOREIGN)
    def test_a_foreign_field_at_its_default_changes_nothing(self, kind, attr):
        spec = StateSpec(kind, **OWN_FIELDS[kind], **{attr: getattr(StateSpec, attr)})
        assert spec == StateSpec(kind, **OWN_FIELDS[kind])

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "fock", "mean_photons": -1},
            {"kind": "thermal", "weights": (1,)},
            {"kind": "coherent", "mean_photons": 4.0, "fock_n": 7},
            {"kind": "squeezed", "mean_photons": 2.0, "squeezing_fraction": 0.5, "fock_n": 2},
            {"kind": "custom", "weights": (1.0,), "squeezing_fraction": 0.5},
        ],
    )
    def test_a_second_spec_of_one_state_is_refused(self, fields):
        with pytest.raises(ValidationError, match="takes no field"):
            StateSpec(**fields)

    def test_the_kinds_own_checks_come_first(self):
        with pytest.raises(ValidationError, match="state field 'n' must"):
            StateSpec("fock", fock_n=-1, mean_photons=-1.0)
        with pytest.raises(ValidationError, match="must sum to 1"):
            StateSpec("custom", weights=(0.5,), mean_photons=1.0)

    def test_a_spec_at_its_defaults_is_its_kinds_spec_with_one_run_law(self):
        from qroulette import montecarlo

        spec = StateSpec("coherent", mean_photons=4.0, squeezing_fraction=-0.0, weights=None)
        assert spec == StateSpec.coherent(4.0) and hash(spec) == hash(StateSpec.coherent(4.0))
        assert spec.describe() == "kind=coherent N=4.0"
        assert montecarlo._run_law(spec, "direct", 0.5) is montecarlo._run_law(
            StateSpec.coherent(4.0), "direct", 0.5
        )
