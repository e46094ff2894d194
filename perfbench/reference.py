"""Reference values computed apart from qroulette, and the checks that use them.

Nothing here imports qroulette (nor numpy): the photon-number moments come
from each state's definition, the variances from the paper's three closed
forms, and the roulette/heterodyne crossover of coherent light from
N = 1/eta.  Every check returns None when the value passes and a one-line
message when it does not.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class State(NamedTuple):
    """A benchmark input state: kind plus its defining parameters."""

    kind: str
    n: float = 0.0
    beta: float = 0.0

    def cli(self) -> str:
        """The state in the CLI's key=value grammar."""
        if self.kind == "fock":
            return f"kind=fock n={int(self.n)}"
        if self.kind == "squeezed":
            return f"kind=squeezed N={self.n!r} beta={self.beta!r}"
        return f"kind={self.kind} N={self.n!r}"


VACUUM = State("fock", 0)
COHERENT_4 = State("coherent", 4.0)
FOCK_3 = State("fock", 3)
THERMAL_1 = State("thermal", 1.0)
SQUEEZED = State("squeezed", 2.0, 0.5)


def photon_moments(state: State) -> tuple[float, float]:
    """(<n>, <n^2>) from the state's photon-number law.

    coherent: Poisson(N); thermal: geometric with mean N; Fock: a point
    mass; squeezed (N, beta): sinh^2 r = beta N photons of squeezing and
    (1 - beta) N coherent photons along the anti-squeezed quadrature, so
    Var n = (1 - beta) N e^{2r} + 2 sinh^2 r cosh^2 r.
    """
    n = float(state.n)
    if state.kind == "fock":
        return n, n * n
    if state.kind == "coherent":
        return n, n * n + n
    if state.kind == "thermal":
        return n, 2.0 * n * n + n
    if state.kind == "squeezed":
        sinh2 = state.beta * n
        cosh2 = 1.0 + sinh2
        e2r = (math.sqrt(cosh2) + math.sqrt(sinh2)) ** 2
        var = (1.0 - state.beta) * n * e2r + 2.0 * sinh2 * cosh2
        return n, var + n * n
    raise ValueError(f"unknown state kind {state.kind!r}")


def outcome_variance(scheme: str, mean_n: float, mean_nsq: float, eta: float) -> float:
    """The paper's variance of each scheme's unbiased intensity estimate."""
    var_n = mean_nsq - mean_n * mean_n
    if scheme == "roulette":
        return var_n + 0.5 * mean_nsq + mean_n * (2.0 / eta - 1.5) + 0.5 / (eta * eta)
    if scheme == "heterodyne":
        return var_n + (2.0 / eta - 1.0) * mean_n + 1.0 / (eta * eta)
    if scheme == "direct":
        return var_n + mean_n * (1.0 / eta - 1.0)
    raise ValueError(f"unknown scheme {scheme!r}")


def roulette_minus_heterodyne(mean_n: float, mean_nsq: float, eta: float) -> float:
    """Roulette variance minus heterodyne variance; zero on the contour."""
    return outcome_variance("roulette", mean_n, mean_nsq, eta) - outcome_variance(
        "heterodyne", mean_n, mean_nsq, eta
    )


def coherent_crossover_n(eta: float) -> float:
    """Mean photon number at which roulette and heterodyne tie on coherent light."""
    return 1.0 / eta


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_mean(label: str, mean: float, stderr: float, expected: float, z: float = 5.0):
    """Sample mean within z standard errors; exact when the spread is zero."""
    if stderr == 0.0:
        if mean != expected:
            return f"{label}: mean {mean!r} != {expected!r} with zero spread"
        return None
    if not abs(mean - expected) <= z * stderr:
        distance = abs(mean - expected) / stderr
        return f"{label}: mean {mean:.8g} is {distance:.2f} SE from {expected:.8g}"
    return None


def check_variance(label: str, variance: float, expected: float, rel: float = 0.02):
    """Sample variance within rel of the formula; exactly 0 when the formula is 0."""
    if expected == 0.0:
        if variance != 0.0:
            return f"{label}: variance {variance!r} where the formula gives exactly 0"
        return None
    if not abs(variance / expected - 1.0) <= rel:
        return f"{label}: variance {variance:.8g} vs formula {expected:.8g} (rel {rel:g})"
    return None


def check_abs(label: str, value: float, expected: float, tol: float):
    if not abs(value - expected) <= tol:
        return f"{label}: {value!r} differs from {expected!r} by more than {tol:g}"
    return None


def check_rel(label: str, value: float, expected: float, rel: float):
    if not abs(value - expected) <= rel * abs(expected):
        return f"{label}: {value!r} differs from {expected!r} by more than rel {rel:g}"
    return None


def check_intercept(label: str, points, eta: float, tol: float = 1e-8):
    """points: (N, beta, converged) rows of one contour.  The beta = 0 point
    must sit at the coherent crossover, and every converged point must have a
    zero roulette/heterodyne gap under the reference moments."""
    target = coherent_crossover_n(eta)
    if not any(conv and beta == 0.0 and abs(n - target) <= tol for n, beta, conv in points):
        return f"{label}: no beta=0 point at N = 1/eta = {target!r} within {tol:g}"
    for n, beta, conv in points:
        if conv:
            mean_n, mean_nsq = photon_moments(State("squeezed", n, beta))
            gap = roulette_minus_heterodyne(mean_n, mean_nsq, eta)
            if not abs(gap) <= tol * max(1.0, mean_nsq):
                return f"{label}: gap {gap:.3g} at converged point N={n!r} beta={beta!r}"
    return None


def check_identical(label: str, first: bytes, second: bytes):
    if first != second:
        return f"{label}: outputs differ"
    return None


def check_at_most(label: str, value: float, limit: float):
    if not value <= limit:
        return f"{label}: {value!r} exceeds {limit:g}"
    return None


def check_decreasing(label: str, values):
    values = list(values)
    if len(values) < 2 or any(b >= a for a, b in zip(values, values[1:])):
        return f"{label}: {values} does not decrease strictly"
    return None
