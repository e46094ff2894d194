import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qroulette import naimark
from qroulette.errors import TruncationError, ValidationError
from qroulette.naimark import (
    MAX_DIM,
    MAX_M,
    MAX_TRUNC,
    RouletteSpec,
    build_extension,
    default_truncation,
    mixed_pom,
    random_roulette_spec,
    semiclassical_check,
    two_mode_photocurrent,
    verify_extension,
)
from qroulette.numerics import poisson_tail
from qroulette.states import WINDOW_CAP


def two_family_spec():
    """Two qubit observables (computational and Hadamard bases), equal weights."""
    z_basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    x_basis = np.stack([np.outer(plus, plus), np.outer(minus, minus)]).astype(complex)
    return RouletteSpec(weights=np.array([0.5, 0.5]), families=(z_basis, x_basis))


class TestRouletteSpec:
    def test_weights_must_be_normalized(self):
        family = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        with pytest.raises(ValidationError):
            RouletteSpec(weights=np.array([0.5, 0.6]), families=(family, family))

    @pytest.mark.parametrize(
        "weights, families, message",
        [
            ([], (), "RouletteSpec: weights must be a nonempty 1-d array"),
            ([[0.5, 0.5]], (None, None), "RouletteSpec: weights must be a nonempty 1-d array"),
            ([0.5, 0.5], (None,), "RouletteSpec: one projector family per weight required"),
            ([1.0], (None, None), "RouletteSpec: one projector family per weight required"),
        ],
    )
    def test_weight_shape_and_family_count_refused(self, weights, families, message):
        family = two_family_spec().families[0]
        families = tuple(family for _ in families)
        with pytest.raises(ValidationError) as info:
            RouletteSpec(weights=np.array(weights), families=families)
        assert str(info.value) == message

    def test_family_axioms_checked(self):
        bad = np.stack([np.diag([1.0, 0.0]), np.diag([0.3, 1.0])]).astype(complex)
        spec = RouletteSpec(weights=np.array([1.0]), families=(bad,))
        with pytest.raises(ValidationError):
            spec.validate()

    @pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan], [np.inf, 0.5]])
    def test_non_finite_weights_rejected(self, weights):
        family = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        with pytest.raises(ValidationError, match="weights must be finite"):
            RouletteSpec(weights=np.array(weights), families=(family,) * len(weights))

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.inf)])
    def test_non_finite_family_entry_rejected(self, entry):
        families = [f.copy() for f in two_family_spec().families]
        families[1][0, 1, 0] = entry
        with pytest.raises(ValidationError, match="family 1 has a non-finite entry"):
            RouletteSpec(weights=np.array([0.5, 0.5]), families=tuple(families))

    def test_nan_written_after_construction_fails_validation(self):
        spec = two_family_spec()
        spec.families[1][1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="family 1: projector Hermiticity residual nan"):
            spec.validate()

    def test_shape_mismatch_rejected(self):
        fam2 = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        fam3 = np.eye(3, dtype=complex).reshape(3, 1, 3)
        with pytest.raises(ValidationError):
            RouletteSpec(weights=np.array([0.5, 0.5]), families=(fam2, fam3))

    def test_specs_compare_and_hash_by_identity(self):
        # two specs of the same arrays: comparing them reads no array
        first, second = two_family_spec(), two_family_spec()
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_the_callers_arrays_stay_writable_and_unshared(self):
        weights = np.array([0.5, 0.5])
        families = [f.copy() for f in two_family_spec().families]
        spec = RouletteSpec(weights=weights, families=tuple(families))
        spec.validate()
        for caller, own in ((weights, spec.weights), *zip(families, spec.families)):
            assert caller.flags.writeable and not np.shares_memory(caller, own)
        # an edit to the caller's arrays after validation leaves the spec as validated
        weights[0], families[0][0, 0, 0] = 0.75, 5.0
        assert spec.weights.tolist() == [0.5, 0.5] and spec.families[0][0, 0, 0] == 1.0
        spec.validate()


class TestBuildExtension:
    def test_single_family_is_trivial(self):
        family = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        spec = RouletteSpec(weights=np.array([1.0]), families=(family,))
        projectors, probe = build_extension(spec)
        assert probe.tolist() == [1.0]
        assert projectors.shape == (2, 2, 2)
        assert np.allclose(projectors, family)
        report = verify_extension(spec, projectors, probe)
        assert report.max_partial_trace_residual == 0.0

    def test_two_family_identities_are_exact(self):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        report = verify_extension(spec, projectors, probe)
        assert report.max_orthogonality_residual <= 1e-14
        assert report.max_completeness_residual <= 1e-14
        assert report.max_partial_trace_residual <= 1e-14

    @staticmethod
    def kron_projectors(spec):
        """sum_k E_m^(k) (x) |k><k| by one np.kron per family and outcome."""
        n_obs = spec.n_observables
        ext = spec.system_dim * n_obs
        projectors = np.zeros((spec.n_outcomes, ext, ext), dtype=complex)
        for k, fam in enumerate(spec.families):
            probe_proj = np.zeros((n_obs, n_obs))
            probe_proj[k, k] = 1.0
            for m in range(spec.n_outcomes):
                projectors[m] += np.kron(fam[m], probe_proj)
        return projectors

    def test_probe_blocks_are_the_kron_construction(self):
        rng = np.random.default_rng(2024)
        specs = [two_family_spec()] + [random_roulette_spec(rng) for _ in range(200)]
        for spec in specs:
            projectors, probe = build_extension(spec)
            expected = self.kron_projectors(spec)
            assert projectors.shape == expected.shape and np.array_equal(projectors, expected)
            assert verify_extension(spec, projectors, probe) == verify_extension(
                spec, expected, probe
            )

    def test_partial_trace_recovers_mixture(self):
        rng = np.random.default_rng(77)
        spec = random_roulette_spec(rng)
        projectors, probe = build_extension(spec)
        weight_op = np.kron(np.eye(spec.system_dim), np.outer(probe, probe.conj()))
        target = mixed_pom(spec)
        for m in range(spec.n_outcomes):
            reduced = np.einsum(
                "ipjp->ij",
                (weight_op @ projectors[m]).reshape(
                    spec.system_dim, spec.n_observables, spec.system_dim, spec.n_observables
                ),
            )
            assert np.max(np.abs(reduced - target[m])) <= 1e-13

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_randomized_specs_satisfy_identities(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_roulette_spec(rng, max_dim=8, max_observables=4)
        projectors, probe = build_extension(spec)
        report = verify_extension(spec, projectors, probe)
        assert report.max_orthogonality_residual <= 1e-12
        assert report.max_completeness_residual <= 1e-12
        assert report.max_partial_trace_residual <= 1e-12

    def test_corrupted_spec_fails_validation(self):
        spec = two_family_spec()
        families = [f.copy() for f in spec.families]
        families[0][0, 0, 0] += 1e-3
        broken = RouletteSpec(weights=spec.weights, families=tuple(families))
        with pytest.raises(ValidationError):
            build_extension(broken)

    def test_perturbed_projectors_leave_visible_residual(self):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        projectors = projectors.copy()
        projectors[0, 0, 0] += 1e-3
        report = verify_extension(spec, projectors, probe)
        assert report.max_orthogonality_residual >= 1e-4

    def test_perturbed_off_block_entry_is_the_orthogonality_residual(self):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        projectors.reshape(2, 2, 2, 2, 2)[0, 0, 0, 1, 1] += 1e-3  # <0 0|P_0|1 1>, k != l
        report = verify_extension(spec, projectors, probe)
        assert report.max_orthogonality_residual >= 1e-3

    @pytest.mark.parametrize("where", ["projector", "probe"])
    def test_nan_inputs_give_nan_residuals(self, where):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        if where == "projector":
            projectors[1, 3, 2] = np.nan
        else:
            probe[1] = np.nan
        report = verify_extension(spec, projectors, probe)
        assert math.isnan(report.max_partial_trace_residual)
        nan_expected = where == "projector"
        assert math.isnan(report.max_orthogonality_residual) == nan_expected
        assert math.isnan(report.max_completeness_residual) == nan_expected

    def test_dimension_mismatch_detected(self):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        with pytest.raises(ValidationError):
            verify_extension(spec, projectors[:, :2, :2], probe)


def dense_report(spec, projectors, probe):
    """The three residuals from whole (dM) x (dM) matrices: one product per ordered
    pair of projectors, and the partial trace through the kron weight operator."""
    dim, n_obs = spec.system_dim, spec.n_observables
    ortho = max(
        float(np.max(np.abs(p_i @ p_j - (p_j if i == j else 0.0))))
        for i, p_i in enumerate(projectors)
        for j, p_j in enumerate(projectors)
    )
    complete = float(np.max(np.abs(projectors.sum(axis=0) - np.eye(dim * n_obs))))
    weight_op = np.kron(np.eye(dim), np.outer(probe, probe.conj()))
    reduced = [
        np.einsum("ipjp->ij", (weight_op @ p).reshape(dim, n_obs, dim, n_obs)) for p in projectors
    ]
    partial_trace = max(float(np.max(np.abs(r - e))) for r, e in zip(reduced, mixed_pom(spec)))
    return ortho, complete, partial_trace


class TestBlockVerification:
    def test_block_residuals_are_the_dense_ones(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            spec = random_roulette_spec(rng, max_dim=16, max_observables=8)
            projectors, probe = build_extension(spec)
            report = verify_extension(spec, projectors, probe)
            block = (
                report.max_orthogonality_residual,
                report.max_completeness_residual,
                report.max_partial_trace_residual,
            )
            dense = dense_report(spec, projectors, probe)
            np.testing.assert_allclose(block, dense, rtol=0.0, atol=1e-15)

    def test_memory_is_a_few_outcomes_not_a_second_copy(self):
        rng = np.random.default_rng(5)
        dim, n_obs, n_out = 32, 16, 8
        families = []
        for _ in range(n_obs):
            basis, _r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            groups = basis.T.reshape(n_out, dim // n_out, dim)  # rows: the outcome's basis vectors
            families.append(np.einsum("mvi,mvj->mij", groups, groups.conj()))
        spec = RouletteSpec(weights=np.full(n_obs, 1.0 / n_obs), families=tuple(families))
        projectors, probe = build_extension(spec)
        tracemalloc.start()
        try:
            report = verify_extension(spec, projectors, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(report.to_dict().values()) <= 1e-12
        # 4.2 MB per outcome, 33.5 MB for all 8; no kron operator, no second copy
        assert peak <= 3 * projectors[0].nbytes, peak


class TestTwoModePhotocurrent:
    def test_vacuum_element_vanishes(self):
        matrix = two_mode_photocurrent(4, 4)
        assert matrix[0, 0] == 0.0

    def test_hermitian_on_truncation(self):
        matrix = two_mode_photocurrent(7, 5)
        interior = matrix[: 6 * 4, : 6 * 4]
        assert np.max(np.abs(interior - interior.conj().T)) <= 1e-14

    def test_selection_rules(self):
        d_probe = 5
        matrix = two_mode_photocurrent(4, d_probe)

        def element(ns_out, np_out, ns_in, np_in):
            return matrix[ns_out * d_probe + np_out, ns_in * d_probe + np_in]

        # raising the system lowers the probe by exactly one
        assert element(1, 1, 0, 2) == pytest.approx(1.0)
        for probe_in in (0, 1, 3, 4):
            assert element(1, 1, 0, probe_in) == 0.0
        # sqrt(n) ladder weight on the system side
        assert element(2, 0, 1, 1) == pytest.approx(np.sqrt(2.0))

    def test_minimum_truncation(self):
        with pytest.raises(ValidationError):
            two_mode_photocurrent(1, 4)

    @pytest.mark.parametrize("sizes", [(513, 2), (2, 513), (33, 32), (50_000, 2)])
    def test_a_side_past_the_bound_allocates_nothing(self, sizes):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="system_trunc and probe_trunc"):
                two_mode_photocurrent(*sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_the_largest_side_is_accepted(self):
        side = MAX_DIM * MAX_M
        assert two_mode_photocurrent(side // 2, 2).shape == (side, side)


class TestSemiclassical:
    def test_vanishing_signal_gives_zero_deviation(self):
        deviations = semiclassical_check(0.0 + 0.0j, 0.7, [2.0, 4.0])
        assert max(deviations) <= 1e-12

    def test_ladder_decreases_towards_homodyne_limit(self):
        deviations = semiclassical_check(1.0 + 0.0j, 0.0, [2.0, 4.0, 8.0])
        assert deviations[0] >= deviations[1] >= deviations[2]
        assert deviations[0] >= 2.0 * deviations[2]

    def test_phase_rotations(self):
        for phi in (0.0, 0.9, 2.4):
            deviations = semiclassical_check(0.8 + 0.3j, phi, [3.0, 6.0])
            assert deviations[0] >= deviations[1]

    def test_insufficient_truncation_raises(self):
        with pytest.raises(TruncationError):
            semiclassical_check(1.0 + 0.0j, 0.0, [8.0], probe_trunc=40)

    def test_default_truncation_covers_tail(self):
        trunc = default_truncation(8.0)
        from scipy.stats import poisson

        assert poisson.sf(trunc - 1, 64.0) < 1e-10

    def test_coherent_tail_is_the_poisson_survival(self):
        """poisson_tail against P(N >= k) = P(k, mu), the regularised lower incomplete
        gamma function, in 40 digits: within 2**-51 (k |ln mu| + mu + ln k! + 1)
        relative wherever the tail is at least 1e-300."""
        points = [
            (z_abs * z_abs, trunc)
            for z_abs in np.linspace(0.0, 30.0, 301).tolist()
            for trunc in (-2, 0, 1, 2, 16, 40, 100, 300, 1000)
        ]
        points += [(mu, WINDOW_CAP + 1) for mu in np.linspace(2000.0, 4700.0, 55).tolist()]
        points += [
            (mu, trunc)
            for mu in (1.0, 500.0, 2000.0, 3000.0, 3900.0, 4096.0, 4200.0, 4700.0)
            for trunc in (1500, 2000, 3000, 3500, 3900, 4000, MAX_TRUNC)
        ]
        for mu, trunc in points:
            tail = poisson_tail(mu, trunc)
            if trunc <= 0 or mu == 0.0:
                assert tail == float(trunc <= 0), (mu, trunc)
                continue
            scale = trunc * abs(math.log(mu)) + mu + math.lgamma(trunc + 1.0) + 1.0
            with mpmath.workdps(40):
                exact = mpmath.gammainc(trunc, 0, mpmath.mpf(mu), regularized=True)
                error = abs(tail - exact) / exact
            if exact < 1e-300:
                assert tail <= 1e-290, (mu, trunc, tail)
            else:
                assert error <= 2.0**-51 * scale, (mu, trunc, tail)
        # the window of mu lies above the cut, or mu is inf: all of the mass
        assert poisson_tail(1e300, MAX_TRUNC) == poisson_tail(math.inf, 1) == 1.0

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            semiclassical_check(1.0, 0.0, [-1.0])

    @pytest.mark.parametrize(
        "alpha, phi, amplitudes",
        [
            (1.0, 0.0, [np.nan]),
            (1.0, 0.0, [2.0, np.inf]),
            (complex(np.nan, 0.0), 0.0, [2.0]),
            (complex(0.0, np.inf), 0.0, [2.0]),
            (1.0, np.nan, [2.0]),
            (1.0, -np.inf, [2.0]),
        ],
    )
    def test_non_finite_inputs_rejected(self, alpha, phi, amplitudes):
        with pytest.raises(ValidationError):
            semiclassical_check(alpha, phi, amplitudes)


def dense_semiclassical(alpha, phi, amplitudes, system_trunc, probe_trunc):
    """The photocurrent deviations from the dense truncated ladder matrices."""
    a = naimark._annihilation(system_trunc)
    e_plus, e_minus = naimark._phase_ladder(probe_trunc)
    sys_vec = naimark._coherent_vector(alpha, system_trunc)
    mean_a = complex(sys_vec.conj() @ (a @ sys_vec))
    target = 2.0 * (alpha * np.exp(-1j * phi)).real
    deviations = []
    for z_abs in amplitudes:
        probe_vec = naimark._coherent_vector(z_abs * np.exp(1j * phi), probe_trunc)
        mean_minus = complex(probe_vec.conj() @ (e_minus @ probe_vec))
        mean_plus = complex(probe_vec.conj() @ (e_plus @ probe_vec))
        deviations.append(abs((mean_a.conjugate() * mean_minus + mean_a * mean_plus).real - target))
    return deviations


class TestSemiclassicalVectors:
    @pytest.mark.parametrize("truncations", [(None, None), (60, 180), (200, 320), (100, 512)])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 0.8 + 0.3j, -1.2 + 1.0j, 1.5j])
    def test_vector_means_equal_the_dense_ladders(self, alpha, truncations):
        amplitudes = [0.0, 0.5, 2.0, 4.0, 8.0]
        for phi in (0.0, 0.9, 2.4, -1.0, 3.1):
            vector = semiclassical_check(complex(alpha), phi, amplitudes, *truncations)
            system_trunc, probe_trunc = (
                trunc if trunc is not None else default_truncation(z_abs)
                for trunc, z_abs in zip(truncations, (abs(alpha), max(amplitudes)))
            )
            dense = dense_semiclassical(complex(alpha), phi, amplitudes, system_trunc, probe_trunc)
            np.testing.assert_allclose(vector, dense, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("z_abs", [40.0, 57.0])
    def test_bright_amplitudes_give_finite_deviations(self, z_abs):
        # z^n / sqrt(n!) overflows past |z| = 37.7; 57 is near the largest |z|
        # whose default truncation fits MAX_TRUNC (about 58.1)
        z = z_abs * np.exp(0.7j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bright_probe = semiclassical_check(1.0 + 0.5j, 0.4, [2.0, z_abs])
            bright_system = semiclassical_check(z, 0.4, [2.0, 8.0])
            vector = naimark._coherent_vector(z, default_truncation(z_abs))
        assert all(math.isfinite(d) for d in bright_probe + bright_system)
        assert bright_probe[1] < bright_probe[0]
        # the amplitudes are the coherent state's: <a> = z
        mean_a = vector[:-1].conj() @ (np.sqrt(np.arange(1.0, len(vector))) * vector[1:])
        assert abs(mean_a - z) <= 1e-12 * z_abs

    def test_memory_at_both_bounds_is_small(self):
        tracemalloc.start()
        try:
            deviations = semiclassical_check(
                1.0, 0.0, [2.0, 4.0, 8.0], system_trunc=MAX_TRUNC, probe_trunc=MAX_TRUNC
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviations[0] >= deviations[1] >= deviations[2]
        assert peak < 5e6


class TestCoherentTail:
    """Truncations and their errors follow the exact Poisson tail."""

    def test_default_truncations_are_the_exact_tails(self):
        """Every default truncation is the loop's over scipy's Poisson survival."""
        for z_abs in np.arange(0.0, 58.0, 0.01):
            mu = z_abs * z_abs
            need = max(16, int(mu + 12.0 * math.sqrt(mu + 1.0) + 20.0))
            exact = need
            while scipy_stats.poisson.sf(exact - 1, mu) >= 1e-11:
                exact += 16
            assert default_truncation(z_abs) == exact, z_abs

    def test_error_messages_keep_the_exact_tail(self):
        with pytest.raises(TruncationError, match="leaves coherent tail mass 6.953e-06 >= 1e-10"):
            semiclassical_check(1.0, 0.0, [5.0], probe_trunc=50)
        with pytest.raises(TruncationError, match="mass 1.000e[+]00"):
            semiclassical_check(1.0, 0.0, [5.0], system_trunc=-(10**40))
