import numpy as np
import pytest

from qroulette.montecarlo import ExperimentConfig, run_sampling
from qroulette.numerics import log_factorials
from qroulette.pom import SCHEMES, DetectorConfig
from qroulette.states import StateSpec, photon_distribution

# the comparison matrix: every state family under test, across efficiencies
MATRIX_STATES = [
    ("vacuum", StateSpec.vacuum()),
    ("coherent1", StateSpec.coherent(1.0)),
    ("coherent4", StateSpec.coherent(4.0)),
    ("fock1", StateSpec.fock(1)),
    ("fock2", StateSpec.fock(2)),
    ("fock3", StateSpec.fock(3)),
    ("thermal1", StateSpec.thermal(1.0)),
    ("squeezed2_05", StateSpec.squeezed(2.0, 0.5)),
]
MC_ETAS = (1.0, 0.5, 0.25)
DENSITY_ETAS = (1.0, 0.75, 0.5, 0.25, 0.1)
MC_DRAWS = 10**6
MC_SEED = 20240917


def full_order_poisson_mixture(rho, u):
    """sum_n rho_n e^{-u} u^n / n! over every order at every point, in blocks of
    512 points: the reference the windowed pom._poisson_mixture must match."""
    n = np.arange(len(rho), dtype=float)
    lgn = log_factorials(len(rho))
    out = np.empty_like(u)
    buf = np.empty(len(n) * min(len(u), 512))
    for start in range(0, len(u), 512):
        block = u[start : start + 512]
        expo = buf[: len(n) * len(block)].reshape(len(n), len(block))
        # log of 1 at u = 0 and of the largest float at u = inf: no 0 * inf below
        logs = np.log(np.minimum(np.where(block > 0.0, block, 1.0), np.finfo(float).max))
        np.multiply.outer(n, logs, out=expo)
        expo -= block
        expo -= lgn[:, None]
        out[start : start + 512] = rho @ np.exp(expo, out=expo)
    zero = u == 0.0
    if zero.any():
        out[zero] = rho[0]
    return out


@pytest.fixture(scope="session")
def matrix_stats():
    return {label: photon_distribution(spec) for label, spec in MATRIX_STATES}


@pytest.fixture(scope="session")
def matrix_runs():
    """One seeded million-draw run per (state, eta, scheme) matrix entry."""
    runs = {}
    for label, spec in MATRIX_STATES:
        for eta in MC_ETAS:
            for scheme in SCHEMES:
                config = ExperimentConfig(
                    state=spec,
                    detector=DetectorConfig(scheme, eta),
                    n_samples=MC_DRAWS,
                    seed=MC_SEED,
                )
                runs[(label, eta, scheme)] = run_sampling(config)
    return runs
