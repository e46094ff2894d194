"""The one integer check, the one real-number check and the point check, and every
integer, real and point argument of the package taken through them."""

import functools
import math

import numpy as np
import pytest

from qroulette import cli, noise
from qroulette.errors import TruncationError, ValidationError, check_eta, check_int, check_point
from qroulette.errors import check_real
from qroulette.estimators import richter_kernel
from qroulette.montecarlo import ExperimentConfig, run_sampling
from qroulette.naimark import random_roulette_spec, semiclassical_check, two_mode_photocurrent
from qroulette.noise import zero_line
from qroulette.numerics import build_inverse_cdf, hermite_h, integrate, oscillator_density
from qroulette.pom import DetectorConfig, heterodyne_outcome_moment, roulette_outcome_moment
from qroulette.states import PhotonStatistics, StateSpec, photon_distribution

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

    def test_a_refusal_names_only_a_finite_range(self):
        with pytest.raises(ValidationError, match=r"^x must be an integer \(got True\)$"):
            check_int(True, "x", -math.inf, math.inf)
        for low, high in ((0, math.inf), (-math.inf, 4)):
            with pytest.raises(ValidationError, match=rf"^x must lie in \[{low}, {high}\] and be"):
                check_int(2.5, "x", low, high)

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


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.25, 1, np.float64(0.25), np.float32(0.25), np.int64(1), "0.25", " 0.25 "]
    )
    def test_a_real_comes_back_as_a_float(self, value):
        out = check_real(value, "x", 0, 1)
        assert out == float(value) and type(out) is float

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), None, "abc", "nan", "1e400", 3j, [0.5], 10**400, -(10**400),
         math.nan, math.inf, -math.inf],
    )
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValidationError, match=r"'x' must be a finite real in \[-inf, inf\]"):
            check_real(value, "'x'", -math.inf, math.inf)

    def test_both_ends_are_inside(self):
        assert [check_real(v, "x", -2, 2) for v in (-2, 2, -2.0, 2.0)] == [-2.0, 2.0, -2.0, 2.0]
        for value in (-2.0000000000000004, 2.0000000000000004, 3, "-3"):
            with pytest.raises(ValidationError, match=r"x must be a finite real in \[-2, 2\]"):
                check_real(value, "x", -2, 2)

    def test_the_least_positive_float_opens_the_interval(self):
        assert check_real(5e-324, "x", 5e-324, 1) == 5e-324
        for value in (0.0, -0.0, 0):
            with pytest.raises(ValidationError, match=r"x must be a finite real in \(0, 1\]"):
                check_real(value, "x", 5e-324, 1)

    def test_check_eta_is_the_real_check_on_0_1(self):
        assert check_eta("0.5") == 0.5 and check_eta(5e-324) == 5e-324 and check_eta(1) == 1.0
        with pytest.raises(ValidationError, match=r"'eta' must be a finite real in \(0, 1\]"):
            check_eta(10**400)

    @pytest.mark.parametrize("check", [check_int, check_real])
    def test_an_int_too_long_to_print_is_named_by_its_size(self, check):
        with pytest.raises(ValidationError, match="got an integer of 16610 bits"):
            check(10**5000, "x", 0, 4)


COHERENT_SPEC = StateSpec.coherent(1.0)
# every real scalar argument, as a call taking it, the field its error names, and a
# value its range holds
REAL_SITES = {
    "check_eta": (check_eta, "'eta'", 0.5),
    "StateSpec.coherent N": (StateSpec.coherent, "state field 'N'", 0.5),
    "StateSpec.thermal N": (StateSpec.thermal, "state field 'N'", 0.5),
    "StateSpec.squeezed N": (lambda v: StateSpec.squeezed(v, 0.5), "state field 'N'", 0.5),
    "StateSpec.squeezed beta": (lambda v: StateSpec.squeezed(1.0, v), "state field 'beta'", 0.5),
    "StateSpec N": (lambda v: StateSpec("coherent", mean_photons=v), "state field 'N'", 0.5),
    "StateSpec.custom weights": (
        lambda v: StateSpec.custom([v, 0.5]), "state field 'weights'", 0.5
    ),
    "DetectorConfig eta": (lambda v: DetectorConfig("roulette", v), "'eta'", 0.5),
    "photon_distribution tail_bound": (
        lambda v: photon_distribution(COHERENT_SPEC, v), "tail_bound", 1e-9
    ),
    "threshold_n": (noise.threshold_n, "'eta'", 0.5),
    "squeezed_delta_rh total_n": (lambda v: noise.squeezed_delta_rh(v, 0.5), "'total_n'", 2.0),
    "squeezed_delta_rh beta": (lambda v: noise.squeezed_delta_rh(2.0, v), "'beta'", 0.5),
    "squeezed_delta_rh eta": (lambda v: noise.squeezed_delta_rh(2.0, 0.5, v), "'eta'", 0.5),
    "zero_line eta": (lambda v: zero_line(v, 8), "'eta'", 0.5),
    "zero_line n_max": (lambda v: zero_line(0.5, 8, v), "'n_max'", 4.0),
    "zero_contour_n beta": (lambda v: noise.zero_contour_n(0.5, v), "'beta'", 0.5),
    "zero_contour_n n_hi": (lambda v: noise.zero_contour_n(0.5, 0.5, v), "'n_hi'", 100.0),
    "semiclassical_check amplitude": (
        lambda v: semiclassical_check(1.0, 0.0, [v]), "probe amplitude", 2.0
    ),
    "semiclassical_check phi": (lambda v: semiclassical_check(1.0, v, [2.0]), "'phi'", 0.5),
    "semiclassical_check alpha": (lambda v: semiclassical_check(v, 0.0, [2.0]), "'alpha'", 1.0),
    "richter_kernel x": (lambda v: richter_kernel(1, 2, v, 0.2), "'x'", 0.3),
    "richter_kernel phi": (lambda v: richter_kernel(1, 2, 0.3, v), "'phi'", 0.2),
    "build_inverse_cdf domain start": (
        lambda v: build_inverse_cdf(lambda x: x, (v, 1.0)), "domain start", 0.0
    ),
    "build_inverse_cdf domain end": (
        lambda v: build_inverse_cdf(lambda x: x, (0.0, v)), "domain end", 1.0
    ),
    "build_inverse_cdf tol": (
        lambda v: build_inverse_cdf(lambda x: x, (0.0, 1.0), v), "tol", 1e-6
    ),
    "integrate tol": (lambda v: integrate(math.cos, 0.0, 1.0, v), "tol", 1e-10),
    "PhotonStatistics tail_bound": (lambda v: PhotonStatistics([1.0], v), "tail_bound", 1e-9),
    "cli field": (lambda v: cli._number({"phi": v}, "phi"), "field 'phi'", 0.5),
    "cli comma list": (
        lambda v: cli._float_list(v, "field 'amplitudes'"), "field 'amplitudes'", 0.5
    ),
    "cli state field": (lambda v: cli.parse_state(f"kind=coherent N={v}"), "state field 'N'", 0.5),
}
# the noise figures, in each of their three arguments
for _figure in ("roulette_variance", "direct_variance", "heterodyne_variance", "delta_rh",
                "noise_report", "added_noise"):
    _fn = getattr(noise, _figure)
    if _figure == "added_noise":
        _fn = functools.partial(_fn, "roulette")
    REAL_SITES |= {
        f"{_figure} mean_n": (lambda v, fn=_fn: fn(v, 2.0, 0.5), "'mean_n'", 1.0),
        f"{_figure} mean_nsq": (lambda v, fn=_fn: fn(1.0, v, 0.5), "'mean_nsq'", 2.0),
        f"{_figure} eta": (lambda v, fn=_fn: fn(1.0, 2.0, v), "'eta'", 0.5),
    }
NOT_REAL = {
    "10**400": 10**400,
    "-10**400": -(10**400),
    "None": None,
    "abc": "abc",
    "True": True,
    "nan": math.nan,
    "inf": math.inf,
}


def _comparable(result):
    """A site's result in a form == compares, with the types of stored numbers."""
    if hasattr(result, "grid"):
        return result.grid.tobytes(), result.cdf.tobytes()
    if hasattr(result, "rho"):
        return result.rho.tobytes(), repr(result.tail_bound)
    return repr(result)


class TestRealArguments:
    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    @pytest.mark.parametrize("bad", sorted(NOT_REAL))
    def test_every_site_refuses_what_is_no_finite_real(self, site, bad):
        call, field, _ = REAL_SITES[site]
        with pytest.raises(ValidationError) as refused:
            call(NOT_REAL[bad])
        assert f"{field} must be" in str(refused.value)

    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    @pytest.mark.parametrize("kind", [str, np.float64])
    def test_a_real_given_as_text_or_numpy_gives_what_its_float_gives(self, site, kind):
        call, _, good = REAL_SITES[site]
        assert _comparable(call(kind(good))) == _comparable(call(good))

    def test_the_float_is_what_is_stored(self):
        assert DetectorConfig("roulette", "0.5").eta == 0.5
        spec = StateSpec(kind="coherent", mean_photons=4)
        assert type(spec.mean_photons) is float and spec.mean_photons == 4.0
        assert spec.describe() == StateSpec.coherent(4).describe() == "kind=coherent N=4.0"
        squeezed = StateSpec.squeezed(np.float64(2), np.int64(1))
        assert repr(squeezed) == repr(StateSpec.squeezed(2.0, 1.0))
        report = noise.noise_report(1, "2", np.float64(0.5))
        assert all(type(v) is float for v in report.to_dict().values())

    def test_a_complex_alpha_is_checked_in_each_part(self):
        for alpha in (complex(1.0, math.inf), complex(math.nan, 0.0), np.complex128(1e400j)):
            with pytest.raises(ValidationError, match="'alpha' must be"):
                semiclassical_check(alpha, 0.0, [2.0])
        expected = semiclassical_check(1.0 + 0.5j, 0.3, [2.0])
        assert semiclassical_check(np.complex128(1.0 + 0.5j), 0.3, [2.0]) == expected

    def test_photon_statistics_takes_the_tail_bounds_of_photon_distribution(self):
        refused = r"tail_bound must be a finite real in \(0, 1e-06\] \(got 0.5\)"
        with pytest.raises(ValidationError, match=refused):
            PhotonStatistics([1.0], 0.5)


class TestCheckPoint:
    @pytest.mark.parametrize(
        "value", [0.25, 1, np.float64(0.25), np.float32(0.25), np.int64(1), math.inf, -math.inf]
    )
    def test_a_real_or_infinite_point_comes_back_as_a_float(self, value):
        out = check_point(value, "x")
        assert out == float(value) and type(out) is float

    @pytest.mark.parametrize(
        "value", [True, np.bool_(True), None, "abc", "0.25", 3j, [0.5], 10**400, -(10**400)]
    )
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValidationError, match="'x' must be a real number in the float range"):
            check_point(value, "'x'")

    def test_nan_only_where_it_is_taken(self):
        assert math.isnan(check_point(math.nan, "x", nan=True))
        with pytest.raises(ValidationError, match=r"x must be .* or \+-inf \(got nan\)"):
            check_point(math.nan, "x")
        with pytest.raises(ValidationError, match="got an integer of 16610 bits"):
            check_point(10**5000, "x", nan=True)


# every point argument, as a call taking it, and the field its error names
POINT_SITES = {
    "integrate lower": (lambda v: integrate(np.cos, v, 1.0), "integrate: lower"),
    "integrate upper": (lambda v: integrate(np.cos, 0.0, v), "integrate: upper"),
    "hermite_h x": (lambda v: hermite_h(3, v), "hermite_h: x"),
}
NOT_A_POINT = NOT_REAL | {"text 1": "1"}


class TestPointArguments:
    @pytest.mark.parametrize("site", sorted(POINT_SITES))
    @pytest.mark.parametrize("bad", sorted(set(NOT_A_POINT) - {"inf", "nan"}))
    def test_every_site_refuses_what_is_no_real_number(self, site, bad):
        call, field = POINT_SITES[site]
        with pytest.raises(ValidationError, match=f"{field} must be"):
            call(NOT_A_POINT[bad])

    @pytest.mark.parametrize("site", sorted(POINT_SITES))
    @pytest.mark.parametrize("kind", [int, np.int64, np.float64])
    def test_a_point_of_any_real_type_gives_what_its_float_gives(self, site, kind):
        call, _ = POINT_SITES[site]
        assert call(kind(2)) == call(2.0)
