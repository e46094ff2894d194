"""The one integer check, and every integer argument of the package taken through it."""

import math

import numpy as np
import pytest

from qroulette.errors import TruncationError, ValidationError, check_int
from qroulette.estimators import richter_kernel
from qroulette.montecarlo import ExperimentConfig, run_sampling
from qroulette.naimark import random_roulette_spec, semiclassical_check, two_mode_photocurrent
from qroulette.noise import zero_line
from qroulette.numerics import build_inverse_cdf, hermite_h, oscillator_density
from qroulette.pom import DetectorConfig, heterodyne_outcome_moment, roulette_outcome_moment
from qroulette.states import StateSpec, photon_distribution

COHERENT1 = photon_distribution(StateSpec.coherent(1.0))


def experiment(n_samples=10, seed=1, workers=1):
    return ExperimentConfig(
        StateSpec.fock(1), DetectorConfig("direct", 0.5), n_samples, seed, workers
    )


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0)])
    def test_an_integer_comes_back_as_an_int(self, value):
        out = check_int(value, "x", 0, 4)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize(
        "value", [True, False, np.bool_(True), 2.5, math.nan, math.inf, -math.inf, "3", None, 3j]
    )
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValidationError, match=r"'x' must lie in \[0, 4\] and be an integer"):
            check_int(value, "'x'", 0, 4)

    def test_both_ends_are_inside(self):
        assert [check_int(v, "x", -2, 2) for v in (-2, 2, -2.0, 2.0)] == [-2, 2, -2, 2]
        for value in (-3, 3, -2.5, 2.0000000000000004, np.int64(3)):
            with pytest.raises(ValidationError):
                check_int(value, "x", -2, 2)

    def test_infinite_ends_bound_nothing(self):
        for value in (10**400, -(10**400), 1e308, -1e308):
            assert check_int(value, "x", -math.inf, math.inf) == int(value)

    def test_large_values_compare_exactly(self):
        assert check_int(2**53, "x", 1, 2**53) == 2**53
        with pytest.raises(ValidationError, match=r"x must lie in \[1, 2\*\*53\]"):
            check_int(2**53 + 1, "x", 1, 2**53)
        assert check_int(2**64 - 1, "x", 0, 2**64 - 1) == 2**64 - 1
        refused = r"\[0, 18446744073709551615\] and be an integer \(got 1\.8446744073709552e\+19\)"
        with pytest.raises(ValidationError, match=refused):
            check_int(2.0**64, "x", 0, 2**64 - 1)


# every integer argument, as a call taking it
SITES = {
    "StateSpec.fock": lambda v: StateSpec.fock(v),
    "hermite_h": lambda v: hermite_h(v, 0.3),
    "oscillator_density": lambda v: oscillator_density(v, 0.3),
    "richter_kernel n": lambda v: richter_kernel(v, 1, 0.3, 0.2),
    "richter_kernel m": lambda v: richter_kernel(1, v, 0.3, 0.2),
    "roulette_outcome_moment": lambda v: roulette_outcome_moment(COHERENT1, 0.5, v),
    "heterodyne_outcome_moment": lambda v: heterodyne_outcome_moment(COHERENT1, 0.5, v),
    "zero_line": lambda v: zero_line(0.5, n_points=v),
    "random_roulette_spec max_dim": lambda v: random_roulette_spec(np.random.default_rng(1), v, 2),
    "random_roulette_spec max_m": lambda v: random_roulette_spec(np.random.default_rng(1), 4, v),
    "two_mode_photocurrent system": lambda v: two_mode_photocurrent(v, 2),
    "two_mode_photocurrent probe": lambda v: two_mode_photocurrent(3, v),
    "semiclassical_check system": lambda v: semiclassical_check(1.0, 0.0, [2.0], system_trunc=v),
    "semiclassical_check probe": lambda v: semiclassical_check(1.0, 0.0, [2.0], probe_trunc=v),
    "ExperimentConfig n_samples": lambda v: experiment(n_samples=v),
    "ExperimentConfig seed": lambda v: experiment(seed=v),
    "ExperimentConfig workers": lambda v: experiment(workers=v),
    "build_inverse_cdf": lambda v: build_inverse_cdf(lambda x: x, (0.0, 1.0), panels=v),
}
# a value of each site that its range holds
GOOD = {name: 2 for name in SITES} | {
    "two_mode_photocurrent system": 3,
    "semiclassical_check system": 40,
    "semiclassical_check probe": 60,
    "ExperimentConfig n_samples": 1000,
}


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "site, value",
        [
            ("StateSpec.fock", 2.5),
            ("two_mode_photocurrent system", 2.5),
            ("ExperimentConfig seed", 1.5),
            ("hermite_h", 2.5),
            ("richter_kernel n", 1.5),
            ("zero_line", 2.5),
            ("zero_line", True),
            ("semiclassical_check system", 40.5),
            ("build_inverse_cdf", 2.5),
            ("ExperimentConfig n_samples", 1000.5),
            ("oscillator_density", math.nan),
            ("ExperimentConfig seed", math.nan),
            ("random_roulette_spec max_m", 1.5),
            ("richter_kernel n", True),
        ],
    )
    def test_inputs_that_were_floored_or_crashed(self, site, value):
        with pytest.raises(ValidationError, match="must lie in .* and be an integer"):
            SITES[site](value)

    @pytest.mark.parametrize(
        "site, bad",
        [
            (site, bad)
            for site in sorted(SITES)
            for bad in (0.5, math.nan, math.inf, -math.inf, True, "2", None)
            if not (bad is None and site.startswith("semiclassical"))  # the default truncation
        ],
    )
    def test_every_site_refuses_what_is_no_integer(self, site, bad):
        value = GOOD[site] + bad if isinstance(bad, float) and math.isfinite(bad) else bad
        with pytest.raises(ValidationError, match="must lie in .* and be an integer"):
            SITES[site](value)

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("kind", [float, np.int64, np.float64])
    def test_an_integer_value_of_any_type_gives_what_its_int_gives(self, site, kind):
        expected, got = SITES[site](GOOD[site]), SITES[site](kind(GOOD[site]))
        if isinstance(expected, np.ndarray):
            assert np.array_equal(got, expected)
        elif hasattr(expected, "grid"):
            assert np.array_equal(got.grid, expected.grid) and np.array_equal(got.cdf, expected.cdf)
        elif hasattr(expected, "families"):
            assert all(np.array_equal(a, b) for a, b in zip(got.families, expected.families))
        else:
            assert repr(got) == repr(expected)

    def test_fock_orders_are_stored_as_ints(self):
        for n in (2, 2.0, np.int64(2), np.float64(2.0)):
            spec = StateSpec.fock(n)
            assert type(spec.fock_n) is int and spec == StateSpec.fock(2)
            assert spec.describe() == "kind=fock n=2"

    def test_a_whole_float_seed_is_recorded_as_an_int(self):
        config = experiment(n_samples=1000.0, seed=1.0, workers=1.0)
        assert all(type(v) is int for v in (config.n_samples, config.seed, config.workers))
        summary = run_sampling(config).to_dict()
        assert summary == run_sampling(experiment(n_samples=1000)).to_dict()
        assert type(summary["seed"]) is int and summary["seed"] == 1

    def test_a_truncation_has_no_floor_but_its_tail(self):
        for trunc in (-(10**40), -(10.0**40), 0, 0.0):
            with pytest.raises(TruncationError, match="mass 1.000e[+]00"):
                semiclassical_check(1.0, 0.0, [5.0], system_trunc=trunc)
