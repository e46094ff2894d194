"""Finite-dimensional Naimark extensions for projector-mixture measurements.

A roulette measurement mixes M orthogonal projector families with weights
z_k.  The discrete recipe extends it to an orthogonal projective measurement
on system (x) probe with an M-dimensional probe; the two-mode photocurrent
and its semiclassical limit cover the continuous-phase case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import pdtrc

from .errors import TruncationError, ValidationError

__all__ = [
    "ExtensionReport",
    "RouletteSpec",
    "build_extension",
    "mixed_pom",
    "random_roulette_spec",
    "semiclassical_check",
    "two_mode_photocurrent",
    "verify_extension",
]

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True)
class RouletteSpec:
    """Weights z_k plus M projector families over a d-dimensional system.

    families[k] has shape (n_outcomes, d, d); within each family the
    projectors are Hermitian, mutually orthogonal and sum to the identity
    (zero matrices are legal padding so all families share one outcome
    count).
    """

    weights: np.ndarray
    families: tuple[np.ndarray, ...]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError("RouletteSpec: weights must be a nonempty 1-d array")
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > PROJECTOR_TOL:
            raise ValidationError("RouletteSpec: weights must be >= 0 and sum to 1")
        if len(self.families) != weights.size:
            raise ValidationError("RouletteSpec: one projector family per weight required")
        families = tuple(np.asarray(fam, dtype=complex) for fam in self.families)
        dim = families[0].shape[-1]
        n_out = families[0].shape[0]
        for fam in families:
            if fam.ndim != 3 or fam.shape != (n_out, dim, dim):
                raise ValidationError(
                    "RouletteSpec: families must share one (n_outcomes, d, d) shape"
                )
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "families", families)

    @property
    def system_dim(self) -> int:
        return self.families[0].shape[-1]

    @property
    def n_observables(self) -> int:
        return len(self.families)

    @property
    def n_outcomes(self) -> int:
        return self.families[0].shape[0]

    def validate(self, tol: float = PROJECTOR_TOL) -> None:
        """Check the orthogonal-projector axioms family by family."""
        eye = np.eye(self.system_dim)
        for k, fam in enumerate(self.families):
            herm = max(np.max(np.abs(p - p.conj().T)) for p in fam)
            if herm > tol:
                raise ValidationError(
                    f"family {k}: projector Hermiticity residual {herm:.3e} > {tol:g}"
                )
            complete = np.max(np.abs(fam.sum(axis=0) - eye))
            if complete > tol:
                raise ValidationError(
                    f"family {k}: completeness residual {complete:.3e} > {tol:g}"
                )
            ortho = _orthogonality_residual(fam)
            if ortho > tol:
                raise ValidationError(
                    f"family {k}: orthogonality residual {ortho:.3e} > {tol:g}"
                )


@dataclass(frozen=True)
class ExtensionReport:
    """Max-absolute-entry residuals of an extension against its defining identities."""

    max_orthogonality_residual: float
    max_completeness_residual: float
    max_partial_trace_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def _orthogonality_residual(projectors: np.ndarray) -> float:
    """max |P_i P_j - delta_ij P_j| over every ordered pair of projectors."""
    residuals = [
        float(np.max(np.abs(p_i @ p_j - (p_j if i == j else 0.0))))
        for i, p_i in enumerate(projectors)
        for j, p_j in enumerate(projectors)
    ]
    return max(residuals, default=0.0)


def mixed_pom(spec: RouletteSpec) -> np.ndarray:
    """The measurement operators sum_k z_k E_m^(k), shape (n_outcomes, d, d)."""
    return np.einsum("k,kmij->mij", spec.weights, np.stack(spec.families))


def build_extension(spec: RouletteSpec) -> tuple[np.ndarray, np.ndarray]:
    """Extend a projector mixture to orthogonal projectors on system (x) probe.

    Returns (projectors, probe) with projectors[m] = sum_k E_m^(k) (x) |w_k><w_k|
    over an M-dimensional probe and probe = sum_k sqrt(z_k) |w_k>.  Tracing the
    probe against that state recovers the mixed measurement exactly.
    """
    spec.validate()
    dim, n_obs, n_out = spec.system_dim, spec.n_observables, spec.n_outcomes
    projectors = np.zeros((n_out, dim * n_obs, dim * n_obs), dtype=complex)
    for k, fam in enumerate(spec.families):
        probe_proj = np.zeros((n_obs, n_obs))
        probe_proj[k, k] = 1.0
        for m in range(n_out):
            projectors[m] += np.kron(fam[m], probe_proj)
    probe = np.sqrt(spec.weights).astype(complex)
    return projectors, probe


def _partial_trace_probe(matrix: np.ndarray, dim: int, n_obs: int) -> np.ndarray:
    return np.einsum("ipjp->ij", matrix.reshape(dim, n_obs, dim, n_obs))


def verify_extension(
    spec: RouletteSpec, projectors: np.ndarray, probe: np.ndarray
) -> ExtensionReport:
    """Residuals of the extension identities in max-absolute-entry norm:
    orthogonality P_m P_n = delta_mn P_n, completeness sum_m P_m = 1, and the
    probe partial trace recovering the mixed measurement."""
    dim, n_obs = spec.system_dim, spec.n_observables
    ext_dim = dim * n_obs
    projectors = np.asarray(projectors, dtype=complex)
    probe = np.asarray(probe, dtype=complex)
    if projectors.shape != (spec.n_outcomes, ext_dim, ext_dim) or probe.shape != (n_obs,):
        raise ValidationError("verify_extension: dimension mismatch with the spec")

    ortho = _orthogonality_residual(projectors)
    complete = float(np.max(np.abs(projectors.sum(axis=0) - np.eye(ext_dim))))

    weight_op = np.kron(np.eye(dim), np.outer(probe, probe.conj()))
    target_pom = mixed_pom(spec)
    pt = 0.0
    for m in range(len(projectors)):
        reduced = _partial_trace_probe(weight_op @ projectors[m], dim, n_obs)
        pt = max(pt, float(np.max(np.abs(reduced - target_pom[m]))))
    return ExtensionReport(ortho, complete, pt)


def random_roulette_spec(
    rng: np.random.Generator, max_dim: int = 8, max_observables: int = 4
) -> RouletteSpec:
    """Random valid spec: Haar-random eigenbases partitioned into projectors."""
    if max_dim < 2:
        raise ValidationError(f"field 'max_dim' must be >= 2 (got {max_dim})")
    if max_observables < 1:
        raise ValidationError(f"field 'max_observables' must be >= 1 (got {max_observables})")
    dim = int(rng.integers(2, max_dim + 1))
    n_obs = int(rng.integers(1, max_observables + 1))
    weights = rng.dirichlet(np.ones(n_obs))
    groupings = []
    for _ in range(n_obs):
        ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis, _r = np.linalg.qr(ginibre)
        n_groups = int(rng.integers(1, dim + 1))
        assignment = rng.integers(0, n_groups, size=dim)
        groupings.append((basis, n_groups, assignment))
    n_out = max(n_groups for _, n_groups, _ in groupings)
    families = []
    for basis, n_groups, assignment in groupings:
        fam = np.zeros((n_out, dim, dim), dtype=complex)
        for g in range(n_groups):
            members = np.flatnonzero(assignment == g)
            vecs = basis[:, members]
            fam[g] = vecs @ vecs.conj().T
        families.append(fam)
    return RouletteSpec(weights=weights, families=tuple(families))


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _phase_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Number-shift (Susskind-Glogower) raising/lowering from truncated ladders:
    e_plus = b^dag (b^dag b + 1)^(-1/2), e_minus = (b^dag b + 1)^(-1/2) b."""
    b = _annihilation(dim)
    inv_sqrt = np.diag(1.0 / np.sqrt(np.arange(dim) + 1.0))
    return b.conj().T @ inv_sqrt, inv_sqrt @ b


def two_mode_photocurrent(system_trunc: int, probe_trunc: int) -> np.ndarray:
    """Matrix of the photocurrent a^dag e_minus + a e_plus on truncated
    system (x) probe; Hermitian by construction on the truncation."""
    if system_trunc < 2 or probe_trunc < 2:
        raise ValidationError("two_mode_photocurrent: truncations must be >= 2")
    a = _annihilation(system_trunc)
    e_plus, e_minus = _phase_ladder(probe_trunc)
    return np.kron(a.conj().T, e_minus) + np.kron(a, e_plus)


def _coherent_vector(z: complex, trunc: int) -> np.ndarray:
    amps = np.empty(trunc, dtype=complex)
    amps[0] = 1.0
    for n in range(1, trunc):
        amps[n] = amps[n - 1] * z / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(z) ** 2)
    return amps / np.linalg.norm(amps)


def _coherent_tail(z_abs: float, trunc: int) -> float:
    """Poisson mass at n >= trunc of the coherent state |z|, all of it when trunc < 1."""
    return 1.0 if trunc < 1 else float(pdtrc(trunc - 1, z_abs * z_abs))


def default_truncation(z_abs: float, tail: float = 1e-11) -> int:
    """Smallest Fock cutoff keeping the coherent-state tail below `tail`."""
    mu = z_abs * z_abs
    trunc = max(16, int(mu + 12.0 * math.sqrt(mu + 1.0) + 20.0))
    while _coherent_tail(z_abs, trunc) >= tail:
        trunc += 16
    return trunc


def semiclassical_check(
    alpha: complex,
    phi: float,
    probe_amplitudes,
    system_trunc: int | None = None,
    probe_trunc: int | None = None,
) -> list[float]:
    """Deviation of the photocurrent mean from the homodyne value 2 Re(alpha e^{-i phi})
    on coherent system (x) probe states, for each probe amplitude |z|.

    The probe phase is phi; deviations shrink as |z| grows, approaching the
    homodyne photocurrent.  Note the target uses the convention in which the
    photocurrent mean is twice the quadrature mean.  Raises TruncationError
    when a truncation would leave more than 1e-10 coherent tail mass.
    """
    amplitudes = [float(z) for z in probe_amplitudes]
    if not all(0.0 <= z < math.inf for z in amplitudes):
        raise ValidationError("probe amplitudes must be finite and >= 0")
    for name, value in (("alpha", alpha), ("phi", phi)):
        if not cmath.isfinite(value):
            raise ValidationError(f"'{name}' must be finite (got {value})")
    if system_trunc is None:
        system_trunc = default_truncation(abs(alpha))
    if probe_trunc is None:
        probe_trunc = default_truncation(max(amplitudes, default=0.0))
    for label, z_abs, trunc in (
        ("system", abs(alpha), system_trunc),
        ("probe", max(amplitudes, default=0.0), probe_trunc),
    ):
        tail = _coherent_tail(z_abs, trunc)
        if tail >= 1e-10:
            raise TruncationError(
                f"{label} truncation {trunc} leaves coherent tail mass {tail:.3e} >= 1e-10"
            )

    a = _annihilation(system_trunc)
    e_plus, e_minus = _phase_ladder(probe_trunc)
    sys_vec = _coherent_vector(alpha, system_trunc)
    mean_a = complex(sys_vec.conj() @ (a @ sys_vec))
    target = 2.0 * (alpha * np.exp(-1j * phi)).real

    deviations = []
    for z_abs in amplitudes:
        probe_vec = _coherent_vector(z_abs * np.exp(1j * phi), probe_trunc)
        mean_minus = complex(probe_vec.conj() @ (e_minus @ probe_vec))
        mean_plus = complex(probe_vec.conj() @ (e_plus @ probe_vec))
        photocurrent = mean_a.conjugate() * mean_minus + mean_a * mean_plus
        deviations.append(abs(photocurrent.real - target))
    return deviations
