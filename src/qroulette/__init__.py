"""qroulette: random-phase homodyne measurement of the field intensity.

A numpy toolkit, with no other dependency, for the "quantum roulette" view
of random-phase homodyne detection: outcome densities of roulette, heterodyne
and direct photodetection under nonunit quantum efficiency, unbiased intensity
estimators, closed-form noise comparisons, seeded Monte Carlo validation, and
Naimark extensions of projector-mixture measurements.

Each public name loads its module on first access, so ``import qroulette``
loads no numpy; ``noise`` and a state's closed-form moments need none either.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "DensityTable": "numerics",
    "DetectorConfig": "pom",
    "ExperimentConfig": "montecarlo",
    "ExtensionReport": "naimark",
    "IntegrationError": "errors",
    "NoiseReport": "noise",
    "NumericalError": "errors",
    "PhotonStatistics": "states",
    "QRouletteError": "errors",
    "RouletteSpec": "naimark",
    "SampleSummary": "montecarlo",
    "StateSpec": "states",
    "TruncationError": "errors",
    "ValidationError": "errors",
    "ZeroLinePoint": "noise",
    "added_noise": "noise",
    "build_extension": "naimark",
    "build_inverse_cdf": "numerics",
    "delta_rh": "noise",
    "direct_detection_pmf": "pom",
    "direct_variance": "noise",
    "exact_moments": "states",
    "heterodyne_density_I": "pom",
    "heterodyne_estimator": "estimators",
    "heterodyne_outcome_moment": "pom",
    "heterodyne_variance": "noise",
    "hermite_h": "numerics",
    "integrate": "numerics",
    "intensity_estimator": "estimators",
    "moments": "states",
    "noise_report": "noise",
    "oscillator_density": "numerics",
    "oscillator_mixture": "numerics",
    "photon_distribution": "states",
    "random_roulette_spec": "naimark",
    "richter_kernel": "estimators",
    "roulette_density_x": "pom",
    "roulette_density_y": "pom",
    "roulette_outcome_moment": "pom",
    "roulette_variance": "noise",
    "run_comparison": "montecarlo",
    "run_sampling": "montecarlo",
    "sample_direct": "montecarlo",
    "sample_heterodyne": "montecarlo",
    "sample_roulette": "montecarlo",
    "semiclassical_check": "naimark",
    "squeezed_delta_rh": "noise",
    "thinned_distribution": "pom",
    "threshold_n": "noise",
    "two_mode_photocurrent": "naimark",
    "verify_extension": "naimark",
    "zero_contour_n": "noise",
    "zero_line": "noise",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
