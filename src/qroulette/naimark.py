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

from .errors import MAX_DIM, MAX_M, MAX_TRUNC, TruncationError, ValidationError, check_int
from .errors import check_real
from .numerics import log_factorials, poisson_tail

__all__ = [
    "MAX_DIM",
    "MAX_M",
    "MAX_TRUNC",
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


@dataclass(frozen=True, eq=False)
class RouletteSpec:
    """Weights z_k plus M projector families over a d-dimensional system.

    families[k] has shape (n_outcomes, d, d); within each family the
    projectors are Hermitian, mutually orthogonal and sum to the identity
    (zero matrices are legal padding so all families share one outcome
    count).  Instances compare and hash by identity.
    """

    weights: np.ndarray
    families: tuple[np.ndarray, ...]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError("RouletteSpec: weights must be a nonempty 1-d array")
        if not (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= PROJECTOR_TOL):  # NaN fails
            raise ValidationError("RouletteSpec: weights must be finite, >= 0 and sum to 1")
        if len(self.families) != weights.size:
            raise ValidationError("RouletteSpec: one projector family per weight required")
        families = tuple(np.array(fam, dtype=complex) for fam in self.families)
        dim = families[0].shape[-1]
        n_out = families[0].shape[0]
        for k, fam in enumerate(families):
            if fam.ndim != 3 or fam.shape != (n_out, dim, dim):
                raise ValidationError(
                    "RouletteSpec: families must share one (n_outcomes, d, d) shape"
                )
            if not np.all(np.isfinite(fam)):
                raise ValidationError(f"RouletteSpec: family {k} has a non-finite entry")
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

    def validate(self) -> None:
        """Check the orthogonal-projector axioms family by family, to PROJECTOR_TOL."""
        eye = np.eye(self.system_dim)
        for k, fam in enumerate(self.families):
            residuals = {
                "projector Hermiticity": np.max(np.abs(fam - fam.conj().swapaxes(-1, -2))),
                "completeness": np.max(np.abs(fam.sum(axis=0) - eye)),
                "orthogonality": _orthogonality_residual(fam),
            }
            for name, residual in residuals.items():
                if not residual <= PROJECTOR_TOL:  # NaN fails
                    raise ValidationError(
                        f"family {k}: {name} residual {residual:.3e} > {PROJECTOR_TOL:g}"
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
    """max |P_i P_j - delta_ij P_j| over every ordered pair of projectors, by one
    batched product P_i [P_0, P_1, ...] per projector; NaN propagates."""
    projectors = np.ascontiguousarray(projectors)  # strided probe blocks would miss BLAS
    residual = np.float64(0.0)
    for i, p_i in enumerate(projectors):
        products = p_i @ projectors
        products[i] -= p_i
        residual = np.maximum(residual, np.max(np.abs(products)))
    return float(residual)


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
    blocks = projectors.reshape(n_out, dim, n_obs, dim, n_obs)  # [m, i, k, j, l]: <i k|P_m|j l>
    for k, fam in enumerate(spec.families):
        blocks[:, :, k, :, k] = fam
    probe = np.sqrt(spec.weights).astype(complex)
    return projectors, probe


def verify_extension(
    spec: RouletteSpec, projectors: np.ndarray, probe: np.ndarray
) -> ExtensionReport:
    """Max-absolute-entry residuals of the probe-block form P_m = sum_k E_m^(k) (x) |k><k|
    that build_extension returns: orthogonality P_m P_n = delta_mn P_n, as the largest
    off-block entry <i k|P_m|j l> (k != l, all 0 in that form) or residual within a
    diagonal block; completeness sum_m P_m = 1; and the probe partial trace recovering
    the mixed measurement.  A NaN in the inputs reads as a NaN residual."""
    dim, n_obs, n_out = spec.system_dim, spec.n_observables, spec.n_outcomes
    ext_dim = dim * n_obs
    projectors = np.asarray(projectors, dtype=complex)
    probe = np.asarray(probe, dtype=complex)
    if projectors.shape != (n_out, ext_dim, ext_dim) or probe.shape != (n_obs,):
        raise ValidationError("verify_extension: dimension mismatch with the spec")
    blocks = projectors.reshape(n_out, dim, n_obs, dim, n_obs)  # [m, i, k, j, l]: <i k|P_m|j l>
    off_block = ~np.eye(n_obs, dtype=bool)[:, None, :]  # over [k, j, l], one outcome at a time
    off = [np.max(np.abs(block), where=off_block, initial=0.0) for block in blocks]
    ortho = np.max(off + [_orthogonality_residual(blocks[:, :, k, :, k]) for k in range(n_obs)])
    complete = np.max(np.abs(projectors.sum(axis=0) - np.eye(ext_dim)))
    reduced = np.einsum("mikjl,k,l->mij", blocks, probe.conj(), probe)
    pt = np.max(np.abs(reduced - mixed_pom(spec)))
    return ExtensionReport(float(ortho), float(complete), float(pt))


def random_roulette_spec(
    rng: np.random.Generator, max_dim: int = 8, max_observables: int = 4
) -> RouletteSpec:
    """Random valid spec: Haar-random eigenbases partitioned into projectors."""
    max_dim = check_int(max_dim, "field 'max_dim'", 2, MAX_DIM)
    max_observables = check_int(max_observables, "field 'max_m' ('max_observables')", 1, MAX_M)
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
    system (x) probe; Hermitian by construction on the truncation.  The side
    system_trunc * probe_trunc is at most MAX_DIM * MAX_M, as in build_extension."""
    system_trunc = check_int(system_trunc, "two_mode_photocurrent: 'system_trunc'", 2, math.inf)
    probe_trunc = check_int(probe_trunc, "two_mode_photocurrent: 'probe_trunc'", 2, math.inf)
    if system_trunc * probe_trunc > MAX_DIM * MAX_M:
        raise ValidationError(
            "two_mode_photocurrent: system_trunc and probe_trunc must have a product of at most"
            f" {MAX_DIM * MAX_M} (got {system_trunc} and {probe_trunc})"
        )
    a = _annihilation(system_trunc)
    e_plus, e_minus = _phase_ladder(probe_trunc)
    return np.kron(a.conj().T, e_minus) + np.kron(a, e_plus)


def _coherent_vector(z: complex, trunc: int) -> np.ndarray:
    """Normalised coherent amplitudes on n < trunc from logs, as z^n / sqrt(n!) overflows."""
    n, r = np.arange(trunc), abs(z)
    logs = n * math.log(r) - 0.5 * (log_factorials(trunc) + r * r) if r else np.where(n, -np.inf, 0)
    amps = np.exp(logs + 1j * cmath.phase(z) * n)
    return amps / np.linalg.norm(amps)


def default_truncation(z_abs: float, field: str = "truncation") -> int:
    """Smallest Fock cutoff keeping the coherent-state tail below 1e-11.

    A cutoff past MAX_TRUNC, |z|^2 = inf included, is a TruncationError naming
    `field` and the cutoff needed; it is raised before anything is allocated.
    """
    mu = z_abs * z_abs
    need = mu + 12.0 * math.sqrt(mu + 1.0) + 20.0
    if need <= MAX_TRUNC:
        need = max(16, int(need))
        while need <= MAX_TRUNC and poisson_tail(mu, need) >= 1e-11:
            need += 16
        if need <= MAX_TRUNC:
            return need
    raise TruncationError(
        f"{field} of about {need:.0f} is needed for a coherent amplitude {z_abs:g},"
        f" past the bound {MAX_TRUNC}"
    )


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
    amplitudes = [check_real(z, "probe amplitude", 0, math.inf) for z in probe_amplitudes]
    phi = check_real(phi, "'phi'", -math.inf, math.inf)
    parts = (alpha.real, alpha.imag) if isinstance(alpha, complex) else (alpha, 0.0)
    alpha = complex(*(check_real(v, "each part of 'alpha'", -math.inf, math.inf) for v in parts))
    truncations = []
    for field, z_abs, trunc in (
        ("system_trunc", math.hypot(alpha.real, alpha.imag), system_trunc),  # inf past the range
        ("probe_trunc", max(amplitudes, default=0.0), probe_trunc),
    ):
        if trunc is None:
            trunc = default_truncation(z_abs, field=field)
        else:  # no floor: a short truncation fails on its tail mass
            trunc = check_int(trunc, f"field '{field}'", -math.inf, MAX_TRUNC)
        tail = poisson_tail(z_abs * z_abs, trunc)
        if tail >= 1e-10:
            raise TruncationError(
                f"{field}: truncation {trunc} leaves coherent tail mass {tail:.3e} >= 1e-10"
            )
        truncations.append(trunc)
    system_trunc, probe_trunc = truncations

    # From the amplitudes c_n: <a> = sum_n sqrt(n) c*_{n-1} c_n, <e_minus> =
    # sum_n c*_{n-1} c_n, and <e_plus> = <e_minus>*, so the photocurrent mean
    # <a>* <e_minus> + <a> <e_plus> is 2 Re(<a>* <e_minus>).
    sys_vec = _coherent_vector(alpha, system_trunc)
    mean_a = complex(sys_vec[:-1].conj() @ (np.sqrt(np.arange(1.0, system_trunc)) * sys_vec[1:]))
    target = 2.0 * (alpha * np.exp(-1j * phi)).real

    deviations = []
    for z_abs in amplitudes:
        probe_vec = _coherent_vector(z_abs * np.exp(1j * phi), probe_trunc)
        mean_minus = complex(probe_vec[:-1].conj() @ probe_vec[1:])
        deviations.append(abs(2.0 * (mean_a.conjugate() * mean_minus).real - target))
    return deviations
