"""Photon-number statistics for the state families under comparison.

Only the number-diagonal part of a state is represented: every outcome
density in this package is a function of the number operator alone, so
off-diagonal density-matrix elements never enter.  numpy loads on the first
truncated law, so a spec and its closed-form moments cost no numpy import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, TruncationError, ValidationError, check_int, check_real

__all__ = [
    "PhotonStatistics",
    "StateSpec",
    "exact_moments",
    "moments",
    "photon_distribution",
]

HARD_CAP = 4096
# the widest photon-number window a pmf is built on before it is trimmed
WINDOW_CAP = HARD_CAP + 512
DEFAULT_TAIL = 1e-12
# rounding slack on both edges of the accepted mass band [1 - tail_bound, 1]
MASS_SLACK = 1e-13


# each state kind's fields in grammar order, as (grammar name, StateSpec attribute,
# the check of one value, its upper bound); every field is at least 0
_N = ("N", "mean_photons", check_real, math.inf)
_GRAMMAR = {
    "coherent": (_N,),
    "squeezed": (_N, ("beta", "squeezing_fraction", check_real, 1)),
    "fock": (("n", "fock_n", check_int, math.inf),),
    "thermal": (_N,),
    "custom": (("weights", "weights", check_real, math.inf),),
}
_NAMES = {attr: name for fields in _GRAMMAR.values() for name, attr, _, _ in fields}


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a single-mode state.

    kind is one of coherent / squeezed / fock / thermal / custom.  For the
    squeezed family, mean_photons is the total mean photon number N and
    squeezing_fraction is beta, the fraction of those photons engaged in
    squeezing (beta=0 coherent, beta=1 squeezed vacuum); both the signal
    and the squeezing phases are fixed to zero.  Each kind takes only its own
    fields: any other field away from its default is a ValidationError.
    """

    kind: str
    mean_photons: float = 0.0
    squeezing_fraction: float = 0.0
    fock_n: int = 0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _GRAMMAR):  # no TypeError if unhashable
            raise ValidationError(f"unknown state kind '{self.kind}'")
        for name, attr, check, high in _GRAMMAR[self.kind]:
            value, label = getattr(self, attr), f"state field '{name}'"
            if name != "weights":
                object.__setattr__(self, attr, check(value, label, 0, high))
            elif not value:
                raise ValidationError("state field 'weights' must be a nonempty list")
            else:
                object.__setattr__(self, attr, tuple(check(w, label, 0, high) for w in value))
        if self.kind == "custom":
            import numpy as np

            with np.errstate(over="ignore"):  # a sum past the float range is inf, not a warning
                total = float(np.sum(self.weights))
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(
                    f"state field 'weights' must sum to 1 within 1e-12 (got {total:.15g})"
                )
        read = {attr for _, attr, _, _ in _GRAMMAR[self.kind]}
        for attr, name in _NAMES.items():  # a field the kind does not read keeps its default
            value, default = getattr(self, attr), getattr(StateSpec, attr)
            if attr not in read and not (type(value) is type(default) and value == default):
                raise ValidationError(f"state kind '{self.kind}' takes no field '{name}'")

    @classmethod
    def coherent(cls, mean_photons: float) -> "StateSpec":
        return cls(kind="coherent", mean_photons=mean_photons)

    @classmethod
    def squeezed(cls, mean_photons: float, squeezing_fraction: float) -> "StateSpec":
        return cls("squeezed", mean_photons=mean_photons, squeezing_fraction=squeezing_fraction)

    @classmethod
    def fock(cls, n: int) -> "StateSpec":
        return cls(kind="fock", fock_n=n)

    @classmethod
    def thermal(cls, mean_photons: float) -> "StateSpec":
        return cls(kind="thermal", mean_photons=mean_photons)

    @classmethod
    def custom(cls, weights) -> "StateSpec":
        return cls(kind="custom", weights=tuple(weights))

    @classmethod
    def vacuum(cls) -> "StateSpec":
        return cls(kind="fock", fock_n=0)

    @classmethod
    def parse(cls, text: str) -> "StateSpec":
        """Parse the whitespace key=value grammar that describe writes, its inverse;
        tokens come in any order, weights as a comma list."""
        fields: dict[str, str] = {}
        for token in text.split():
            if "=" not in token:
                raise ValidationError(f"state token '{token}' is not of the form key=value")
            key, value = token.split("=", 1)
            if key in fields:
                raise ValidationError(f"state field '{key}' given twice")
            fields[key] = value
        kind = fields.pop("kind", None)
        if kind is None:
            raise ValidationError("state description is missing the field 'kind'")
        if kind not in _GRAMMAR:
            raise ValidationError(f"state field 'kind' has unknown value '{kind}'")
        values = {}
        for name, attr, _, _ in _GRAMMAR[kind]:
            if name not in fields:
                raise ValidationError(f"state kind '{kind}' requires the field '{name}'")
            raw, label = fields.pop(name), f"state field '{name}'"
            values[attr] = (
                tuple(check_real(z, label, -math.inf, math.inf) for z in raw.split(",") if z != "")
                if name == "weights"
                else check_real(raw, label, -math.inf, math.inf)
            )
        spec = cls(kind, **values)
        if fields:
            raise ValidationError(f"unknown state field '{next(iter(fields))}'")
        return spec

    def describe(self) -> str:
        """Render as the whitespace key=value grammar that parse reads."""
        tokens = [f"kind={self.kind}"]
        for name, attr, _, _ in _GRAMMAR[self.kind]:
            value = getattr(self, attr)
            tokens.append(f"{name}=" + ",".join(map(repr, value if name == "weights" else [value])))
        return " ".join(tokens)


@dataclass(frozen=True, eq=False)
class PhotonStatistics:
    """Truncated number distribution rho[n] = <n|rho|n>, n = 0..n_max.

    All entries are nonnegative, their sum lies in [1 - tail_bound, 1], and
    the discarded mass beyond n_max is at most tail_bound, a float in (0, 1e-6]
    as photon_distribution takes it.  Instances compare and hash by identity.
    """

    rho: np.ndarray
    tail_bound: float

    def __post_init__(self):
        import numpy as np

        rho = np.array(self.rho, dtype=float)
        if rho.ndim != 1 or rho.size == 0:
            raise ValidationError("PhotonStatistics: rho must be a nonempty 1-d array")
        if np.any(rho < 0.0) or not np.all(np.isfinite(rho)):
            raise ValidationError("PhotonStatistics: rho entries must be finite and >= 0")
        tail_bound = check_real(self.tail_bound, "tail_bound", 5e-324, 1e-6)
        total = rho.sum()
        if not (1.0 - tail_bound - MASS_SLACK <= total <= 1.0 + MASS_SLACK):
            raise ValidationError(
                f"PhotonStatistics: mass {total:.15g} outside [1 - {tail_bound:g}, 1]"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tail_bound", tail_bound)
        object.__setattr__(self, "rho_bytes", rho.tobytes())  # the key of cached laws

    @property
    def n_max(self) -> int:
        return len(self.rho) - 1


def _trim(pmf: np.ndarray, tail_bound: float) -> np.ndarray:
    """Cut a (near-)normalised pmf at the smallest n_max honouring tail_bound.

    The cut uses a 1000x margin below tail_bound so first and second moments
    of the truncated law stay well inside the declared tolerance; the tail
    is accumulated back-to-front to dodge cancellation.
    """
    import numpy as np

    tail_after = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
    strict = int(np.argmax(tail_after <= tail_bound))
    if strict > HARD_CAP:
        raise TruncationError(
            f"distribution needs n_max={strict} > {HARD_CAP} for tail {tail_bound:g}"
        )
    margin = int(np.argmax(tail_after <= 1e-3 * tail_bound))
    return pmf[: min(max(strict, margin), HARD_CAP) + 1].copy()


def _too_bright(needed: float, tail_bound: float) -> TruncationError:
    """The error for a state whose tail beyond WINDOW_CAP alone exceeds tail_bound."""
    return TruncationError(
        f"distribution needs n_max of about {needed:.4g} > {HARD_CAP} for tail {tail_bound:g}"
    )


def _bulk_end(mean: float, deviation: float, tail_bound: float) -> float:
    """mean + z deviation with the normal upper tail_bound quantile z: the n_max
    a bright state would need."""
    from statistics import NormalDist  # only a state too bright for the cap gets here

    return mean - NormalDist().inv_cdf(tail_bound) * deviation


def _coherent_pmf(mean_photons: float, tail_bound: float) -> np.ndarray:
    import numpy as np

    from .numerics import log_factorials, poisson_tail

    if mean_photons == 0.0:
        return np.array([1.0])
    log_mean = math.log(mean_photons)
    n_hi = int(mean_photons + 30.0 * math.sqrt(mean_photons + 1.0) + 30.0)
    # grown while p(n_hi) N / (n_hi + 1 - N), over the tail past n_hi, tops _trim's margin
    while n_hi <= WINDOW_CAP and (
        n_hi * log_mean - mean_photons - log_factorials(n_hi + 1)[n_hi]
        + log_mean - math.log(n_hi + 1.0 - mean_photons) > math.log(1e-3 * tail_bound)
    ):
        n_hi += int(math.sqrt(mean_photons)) + 1
    if n_hi > WINDOW_CAP:
        if poisson_tail(mean_photons, WINDOW_CAP + 1) > tail_bound:
            # the Poisson quantile, by its normal approximation
            needed = _bulk_end(mean_photons, math.sqrt(mean_photons), tail_bound)
            raise _too_bright(needed, tail_bound)
        n_hi = WINDOW_CAP
    # the Poisson pmf in the log domain, exactly as scipy.stats.poisson.pmf computes it
    raw = np.exp(np.arange(n_hi + 1) * log_mean - log_factorials(n_hi + 1) - mean_photons)
    pmf = _trim(raw, tail_bound)
    # for bright states the rounded mass can leave the band PhotonStatistics
    # accepts; rescale only those, so every law inside it stays bit-identical
    if not 1.0 - tail_bound - MASS_SLACK <= pmf.sum() <= 1.0 + MASS_SLACK:
        pmf /= raw.sum()
    return pmf


def _thermal_pmf(mean_photons: float, tail_bound: float) -> np.ndarray:
    import numpy as np

    if mean_photons == 0.0:
        return np.array([1.0])
    # geometric tail after n is q^(n+1), with log q = -log1p(1/N) even where q rounds to 1
    needed = math.log(tail_bound) / -math.log1p(1.0 / mean_photons) - 1.0
    if needed > WINDOW_CAP:
        raise _too_bright(needed, tail_bound)
    q = mean_photons / (mean_photons + 1.0)
    # solve for the margin cut directly
    n_hi = int(math.ceil(math.log(0.01 * tail_bound) / math.log(q)))
    n_hi = min(n_hi, WINDOW_CAP)
    pmf = (1.0 - q) * q ** np.arange(n_hi + 1)
    return _trim(pmf, tail_bound)


def _squeezed_pmf(mean_photons: float, beta: float, tail_bound: float) -> np.ndarray:
    import numpy as np

    n_sq = beta * mean_photons          # sinh^2 r
    n_coh = (1.0 - beta) * mean_photons  # alpha^2, alpha real >= 0
    alpha = math.sqrt(n_coh)
    s = math.sqrt(n_sq)
    ch = math.sqrt(1.0 + n_sq)
    if mean_photons > WINDOW_CAP:
        # a mean beyond the widest window; the bulk's end, mean + z sd, without overflow
        deviation = math.hypot(alpha * (ch + s), math.sqrt(2.0 * n_sq) * ch)
        raise _too_bright(_bulk_end(mean_photons, deviation, tail_bound), tail_bound)
    # number variance with both phases zero: amplitude along the
    # anti-squeezed quadrature, cross-checked by the moments tests
    var = n_coh * (ch + s) ** 2 + 2.0 * n_sq * (1.0 + n_sq)
    # asymptotic mass ratio rho_{n+2}/rho_n -> tanh^2 r bounds the tail
    ratio = n_sq / (1.0 + n_sq)
    guard = 2.0 / (1.0 - ratio)
    bulk_end = int(mean_photons + 10.0 * math.sqrt(var + 1.0)) + 8

    # Fock amplitudes c_n of D(alpha) S(r) |0> satisfy the two-term drift
    # recurrence below; run it unnormalised from c_0 = 1 with occasional
    # rescaling until the geometric tail estimate clears the trim margin.
    drift = alpha * (ch - s)  # alpha * exp(-r)
    c = np.zeros(WINDOW_CAP + 1)
    c[0] = 1.0
    total = 1.0
    n = 0
    while n < WINDOW_CAP:
        prev = c[n - 1] if n > 0 else 0.0
        nxt = (drift * c[n] + s * math.sqrt(n) * prev) / (ch * math.sqrt(n + 1))
        if abs(nxt) > 1e140:
            c[: n + 1] *= 1e-140
            total *= 1e-280
            nxt *= 1e-140
        c[n + 1] = nxt
        total += nxt * nxt
        n += 1
        if n >= bulk_end and (c[n] ** 2 + c[n - 1] ** 2) * guard <= total * tail_bound * 1e-4:
            break
    else:
        # the guard never held: the n_max needed, from the tail beyond the
        # window taken as geometric with ratio tanh^2 r per two steps
        beyond = (c[n] ** 2 + c[n - 1] ** 2) * ratio / (1.0 - ratio) / total
        if beyond > tail_bound:
            raise _too_bright(n + 2.0 * math.log(tail_bound / beyond) / math.log(ratio), tail_bound)
    pmf = c[: n + 1] ** 2
    pmf /= pmf.sum()
    return _trim(pmf, tail_bound)


def photon_distribution(spec: StateSpec, tail_bound: float = DEFAULT_TAIL) -> PhotonStatistics:
    """Truncated photon-number distribution of a state, tail mass <= tail_bound."""
    import numpy as np

    tail_bound = check_real(tail_bound, "tail_bound", 5e-324, 1e-6)
    if spec.kind == "fock":
        if spec.fock_n > HARD_CAP:
            raise TruncationError(f"Fock state needs n_max={spec.fock_n} > {HARD_CAP}")
        rho = np.zeros(spec.fock_n + 1)
        rho[spec.fock_n] = 1.0
        return PhotonStatistics(rho=rho, tail_bound=tail_bound)
    if spec.kind == "custom":
        if len(spec.weights) - 1 > HARD_CAP:
            raise TruncationError(f"custom state needs n_max={len(spec.weights) - 1} > {HARD_CAP}")
        w = np.asarray(spec.weights, dtype=float)
        return PhotonStatistics(rho=w / w.sum(), tail_bound=tail_bound)
    if spec.kind == "coherent":
        return PhotonStatistics(_coherent_pmf(spec.mean_photons, tail_bound), tail_bound)
    if spec.kind == "thermal":
        return PhotonStatistics(_thermal_pmf(spec.mean_photons, tail_bound), tail_bound)
    return PhotonStatistics(
        _squeezed_pmf(spec.mean_photons, spec.squeezing_fraction, tail_bound), tail_bound
    )


def moments(stats: PhotonStatistics) -> tuple[float, float, float]:
    """(mean, second moment, variance) of the photon number under stats."""
    import numpy as np

    n = np.arange(len(stats.rho), dtype=float)
    mean = float(np.dot(n, stats.rho))
    mean_sq = float(np.dot(n * n, stats.rho))
    return mean, mean_sq, mean_sq - mean * mean


def exact_moments(spec: StateSpec) -> tuple[float, float]:
    """Closed-form (mean, second moment) of the photon number for a spec.

    Used where truncation error must not blur exact crossovers (CLI verdicts,
    threshold root finding).  A second moment that overflows, as it does for
    N above about 1.3e154, raises NumericalError naming mean_nsq.
    """
    if spec.kind == "fock":
        n = float(min(spec.fock_n, 1e300))  # past it only the overflow of mean_nsq matters
        mean_nsq = n * n
    elif spec.kind == "coherent":
        n = spec.mean_photons
        mean_nsq = n * n + n
    elif spec.kind == "thermal":
        n = spec.mean_photons
        mean_nsq = 2.0 * n * n + n
    elif spec.kind == "squeezed":
        n = spec.mean_photons
        beta = spec.squeezing_fraction
        n_sq = beta * n
        n_coh = (1.0 - beta) * n
        e2r = 1.0 + 2.0 * n_sq + 2.0 * math.sqrt(n_sq * (1.0 + n_sq))
        var = n_coh * e2r + 2.0 * n_sq * (1.0 + n_sq)
        mean_nsq = var + n * n
    else:
        import numpy as np

        w = np.asarray(spec.weights, dtype=float)
        w = w / w.sum()
        k = np.arange(len(w), dtype=float)
        return float(np.dot(k, w)), float(np.dot(k * k, w))
    if not math.isfinite(mean_nsq):
        raise NumericalError(f"mean_nsq overflows for {spec.describe()}")
    return n, mean_nsq
