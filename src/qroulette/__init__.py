"""qroulette: random-phase homodyne measurement of the field intensity.

A numpy toolkit (scipy only for adaptive quadrature, the Naimark checks'
coherent tail and the error of a state too bright for the photon-number cap)
for the "quantum roulette" view of random-phase homodyne detection: outcome
densities of roulette, heterodyne and direct photodetection under nonunit
quantum efficiency, unbiased intensity estimators, closed-form noise
comparisons, seeded Monte Carlo validation, and Naimark extensions of
projector-mixture measurements.
"""

from .errors import (
    IntegrationError,
    NumericalError,
    QRouletteError,
    TruncationError,
    ValidationError,
)
from .estimators import heterodyne_estimator, intensity_estimator, richter_kernel
from .montecarlo import (
    ExperimentConfig,
    SampleSummary,
    run_comparison,
    run_sampling,
    sample_direct,
    sample_heterodyne,
    sample_roulette,
)
from .naimark import (
    ExtensionReport,
    RouletteSpec,
    build_extension,
    random_roulette_spec,
    semiclassical_check,
    two_mode_photocurrent,
    verify_extension,
)
from .noise import (
    NoiseReport,
    ZeroLinePoint,
    added_noise,
    delta_rh,
    direct_variance,
    heterodyne_variance,
    noise_report,
    roulette_variance,
    squeezed_delta_rh,
    threshold_n,
    zero_contour_n,
    zero_line,
)
from .numerics import (
    DensityTable,
    build_inverse_cdf,
    hermite_h,
    integrate,
    oscillator_density,
    oscillator_mixture,
)
from .pom import (
    DetectorConfig,
    direct_detection_pmf,
    heterodyne_density_I,
    heterodyne_outcome_moment,
    roulette_density_x,
    roulette_density_y,
    roulette_outcome_moment,
    thinned_distribution,
)
from .states import PhotonStatistics, StateSpec, exact_moments, moments, photon_distribution

__version__ = "0.1.0"

__all__ = [
    "DensityTable",
    "DetectorConfig",
    "ExperimentConfig",
    "ExtensionReport",
    "IntegrationError",
    "NoiseReport",
    "NumericalError",
    "PhotonStatistics",
    "QRouletteError",
    "RouletteSpec",
    "SampleSummary",
    "StateSpec",
    "TruncationError",
    "ValidationError",
    "ZeroLinePoint",
    "added_noise",
    "build_extension",
    "build_inverse_cdf",
    "delta_rh",
    "direct_detection_pmf",
    "direct_variance",
    "exact_moments",
    "heterodyne_density_I",
    "heterodyne_estimator",
    "heterodyne_outcome_moment",
    "heterodyne_variance",
    "hermite_h",
    "integrate",
    "intensity_estimator",
    "moments",
    "noise_report",
    "oscillator_density",
    "oscillator_mixture",
    "photon_distribution",
    "random_roulette_spec",
    "richter_kernel",
    "roulette_density_x",
    "roulette_density_y",
    "roulette_outcome_moment",
    "roulette_variance",
    "run_comparison",
    "run_sampling",
    "sample_direct",
    "sample_heterodyne",
    "sample_roulette",
    "semiclassical_check",
    "squeezed_delta_rh",
    "thinned_distribution",
    "threshold_n",
    "two_mode_photocurrent",
    "verify_extension",
    "zero_contour_n",
    "zero_line",
]
