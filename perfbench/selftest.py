"""Self-test of the benchmark's checks: each accepts a real output of the
program and rejects the same output made deliberately wrong.

    python3 perfbench/selftest.py        (from the checkout root, ~3 s)

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from qroulette import montecarlo, noise, numerics, pom, states  # noqa: E402


def main() -> int:
    cases = []  # (name, verdict on the right value, verdict on the wrong value)

    def case(name, right, wrong):
        cases.append((name, right is None, wrong is not None))

    coherent = ref.COHERENT_4
    spec = states.StateSpec.coherent(coherent.n)
    mean_n, mean_nsq = ref.photon_moments(coherent)
    law = states.photon_distribution(spec)

    summary = montecarlo.run_sampling(
        montecarlo.ExperimentConfig(spec, pom.DetectorConfig("roulette", 0.5), 200_000, seed=7)
    )
    se = summary.standard_error
    case(
        "mean within 5 SE / shifted by 10 SE",
        ref.check_mean("mean", summary.mean, se, mean_n),
        ref.check_mean("mean", summary.mean + 10.0 * se, se, mean_n),
    )
    expected_var = ref.outcome_variance("roulette", mean_n, mean_nsq, 0.5)
    case(
        "variance within 2 % / scaled by 1.03",
        ref.check_variance("var", summary.sample_variance, expected_var),
        ref.check_variance("var", 1.03 * summary.sample_variance, expected_var),
    )
    vacuum = montecarlo.run_sampling(
        montecarlo.ExperimentConfig(
            states.StateSpec.vacuum(), pom.DetectorConfig("direct", 0.5), 1000, seed=7
        )
    )
    case(
        "zero variance exactly 0 / 1e-300",
        ref.check_variance("var0", vacuum.sample_variance, 0.0),
        ref.check_variance("var0", vacuum.sample_variance + 1e-300, 0.0),
    )

    def density(x):
        return pom.roulette_density_x(law, x, 1.0)

    norm = numerics.integrate(density, -math.inf, math.inf, tol=1e-9)
    scaled = numerics.integrate(lambda x: (1.0 + 1e-6) * density(x), -math.inf, math.inf, tol=1e-9)
    case(
        "normalisation within 1e-7 / density scaled by 1 + 1e-6",
        ref.check_abs("norm", norm, 1.0, 1e-7),
        ref.check_abs("norm", scaled, 1.0, 1e-7),
    )
    first = pom.heterodyne_outcome_moment(law, 0.5, 1)
    case(
        "first moment within 1e-6 / shifted by 1e-5",
        ref.check_abs("m1", first, mean_n, 1e-6),
        ref.check_abs("m1", first + 1e-5, mean_n, 1e-6),
    )
    second = pom.roulette_outcome_moment(law, 0.5, 2)
    target = ref.outcome_variance("roulette", mean_n, mean_nsq, 0.5) + mean_n**2
    case(
        "second moment within rel 1e-6 / scaled by 1 + 1e-5",
        ref.check_rel("m2", second, target, 1e-6),
        ref.check_rel("m2", second * (1.0 + 1e-5), target, 1e-6),
    )
    pmf_sum = float(pom.direct_detection_pmf(law, 0.5).sum())
    case(
        "pmf sums to 1 / scaled by 1 + 1e-8",
        ref.check_abs("pmf", pmf_sum, 1.0, 1e-9),
        ref.check_abs("pmf", pmf_sum * (1.0 + 1e-8), 1.0, 1e-9),
    )
    points = [(p.total_n, p.beta, p.converged) for p in noise.zero_line(0.5)]
    moved = [(n + 1e-7 if beta == 0.0 else n, beta, conv) for n, beta, conv in points]
    case(
        "zero_line intercept at 1/eta / moved by 1e-7",
        ref.check_intercept("contour", points, 0.5),
        ref.check_intercept("contour", moved, 0.5),
    )
    bent = [(n, beta * (1.0 + 1e-3) if beta > 0.0 else beta, conv) for n, beta, conv in points]
    case(
        "zero_line points on the contour / beta scaled by 1 + 1e-3",
        ref.check_intercept("contour", points, 0.5),
        ref.check_intercept("contour", bent, 0.5),
    )
    case(
        "identical outputs / one byte changed",
        ref.check_identical("files", b"0.125\n", b"0.125\n"),
        ref.check_identical("files", b"0.125\n", b"0.126\n"),
    )
    case(
        "residual <= 1e-12 / 1e-11",
        ref.check_at_most("residual", 8.9e-16, 1e-12),
        ref.check_at_most("residual", 1e-11, 1e-12),
    )
    case(
        "deviations decrease / one rises",
        ref.check_decreasing("ladder", [7.8e-2, 1.6e-2, 3.9e-3]),
        ref.check_decreasing("ladder", [7.8e-2, 8.0e-2, 3.9e-3]),
    )
    case(
        "coherent crossover at N = 1/eta / at 1.01/eta",
        ref.check_abs("crossover", ref.roulette_minus_heterodyne(2.0, 6.0, 0.5), 0.0, 1e-12),
        ref.check_abs(
            "crossover", ref.roulette_minus_heterodyne(2.02, 2.02**2 + 2.02, 0.5), 0.0, 1e-12
        ),
    )

    ok = True
    for name, accepts, rejects in cases:
        ok &= accepts and rejects
        verdict = "ok  " if accepts and rejects else "FAIL"
        print(f"{verdict} {name}: accepts={accepts} rejects={rejects}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
