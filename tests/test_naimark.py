import numpy as np
import pytest
from scipy import stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qroulette import naimark
from qroulette.errors import TruncationError, ValidationError
from qroulette.naimark import (
    RouletteSpec,
    build_extension,
    default_truncation,
    mixed_pom,
    random_roulette_spec,
    semiclassical_check,
    two_mode_photocurrent,
    verify_extension,
)


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

    def test_family_axioms_checked(self):
        bad = np.stack([np.diag([1.0, 0.0]), np.diag([0.3, 1.0])]).astype(complex)
        spec = RouletteSpec(weights=np.array([1.0]), families=(bad,))
        with pytest.raises(ValidationError):
            spec.validate()

    def test_shape_mismatch_rejected(self):
        fam2 = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        fam3 = np.eye(3, dtype=complex).reshape(3, 1, 3)
        with pytest.raises(ValidationError):
            RouletteSpec(weights=np.array([0.5, 0.5]), families=(fam2, fam3))


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

    def test_dimension_mismatch_detected(self):
        spec = two_family_spec()
        projectors, probe = build_extension(spec)
        with pytest.raises(ValidationError):
            verify_extension(spec, projectors[:, :2, :2], probe)


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
        for z_abs in np.linspace(0.0, 30.0, 301):
            for trunc in (-2, 0, 1, 2, 16, 40, 100, 300, 1000):
                expected = float(scipy_stats.poisson.sf(trunc - 1, z_abs * z_abs))
                assert naimark._coherent_tail(z_abs, trunc) == expected, (z_abs, trunc)

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
