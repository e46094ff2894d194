#!/usr/bin/env python3
"""Closed-form noise budget of roulette vs heterodyne vs direct detection.

Prints the full noise report for a grid of states and efficiencies, then
illustrates the two selection rules: for Fock states the roulette wins below
the threshold photon number n_T(eta), and for coherent states the crossover
sits exactly at mean photon number 1/eta.
"""

from qroulette import (
    StateSpec,
    exact_moments,
    noise_report,
    threshold_n,
)

STATES = [
    StateSpec.vacuum(),
    StateSpec.coherent(0.5),
    StateSpec.coherent(4.0),
    StateSpec.fock(1),
    StateSpec.fock(5),
    StateSpec.thermal(1.0),
    StateSpec.squeezed(2.0, 0.5),
]
ETAS = (1.0, 0.75, 0.5, 0.25)


def main():
    header = f"{'state':32s} {'eta':>5s} {'var_R':>9s} {'var_D':>9s} {'var_H':>9s} {'N_R':>8s} {'N_H':>8s} {'delta_RH':>9s}  best"
    print(header)
    print("-" * len(header))
    for spec in STATES:
        mean_n, mean_nsq = exact_moments(spec)
        for eta in ETAS:
            rep = noise_report(mean_n, mean_nsq, eta)
            print(
                f"{spec.describe():32s} {eta:5.2f} {rep.roulette_var:9.3f} {rep.direct_var:9.3f} "
                f"{rep.heterodyne_var:9.3f} {rep.added_roulette:8.3f} {rep.added_heterodyne:8.3f} "
                f"{rep.delta_rh:9.3f}  {rep.verdict}"
            )
        print()

    print("Fock-state threshold: heterodyne takes over for n > n_T(eta)")
    for eta in ETAS:
        print(f"  eta = {eta:4.2f}: n_T = {threshold_n(eta):7.4f}")
    print()
    print("Coherent-state crossover sits at <n> = 1/eta:")
    for eta in ETAS:
        mean = 1.0 / eta
        rep = noise_report(mean, mean * mean + mean, eta)
        print(f"  eta = {eta:4.2f}: delta_RH at <n> = {mean:5.2f} is {rep.delta_rh:+.2e}")


if __name__ == "__main__":
    main()
