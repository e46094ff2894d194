"""In-process workloads: warm Monte Carlo (mc_warm) and analytic outcome laws (analytic).

Started by run.py as

    python3 perfbench/inproc.py WORKLOAD SEED SECONDS TRACE [--setup-only]

It sets up (imports, truncation, cache warm-up), prints ``ready <facts>``,
runs whole rounds of the workload's operations until SECONDS have passed and
prints ``result <json>``; every operation runs between passes of the
calibration loop (calibrate.py), and its time counts divided by the loop
time around it, scaled to the reference speed.  With --setup-only it stops
after ``ready``; for the workload ``cold_cli`` set-up is the import of
``qroulette.cli`` alone.
With TRACE=1 every timed round without tracing is followed by one with
tracing, so the same run yields the tracing overhead.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import reference as ref
from reference import COHERENT_4, FOCK_3, SQUEEZED, THERMAL_1, VACUUM

SCHEMES = ("roulette", "heterodyne", "direct")
MC_STATES = (VACUUM, COHERENT_4, FOCK_3, THERMAL_1, SQUEEZED)
MC_ETAS = (1.0, 0.5, 0.25)
MC_DRAWS = 1_000_000
LONG_RUN = (SQUEEZED, "heterodyne", 0.5, 16_000_000)
AN_STATES = (COHERENT_4, SQUEEZED, THERMAL_1, FOCK_3)
AN_ETAS = (1.0, 0.5, 0.1)
AN_TOL = 1e-9
# Every analytic operation but the roulette normalisations takes 1-250 ms, too
# short to time once or twice a run against a host whose speed drifts, so each
# of them runs this many times a round, back to back, and counts with the
# median of all its timings (their sum is under 1 s a round, against about
# 11 s for the roulette normalisations).
AN_SHORT_REPEATS = 3


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one input, fixed by the run seed and the input's label."""
    return random.Random(f"{seed}:{label}").getrandbits(63)


def _spec(state: ref.State):
    from qroulette.states import StateSpec

    if state.kind == "fock":
        return StateSpec.fock(int(state.n))
    if state.kind == "squeezed":
        return StateSpec.squeezed(state.n, state.beta)
    return getattr(StateSpec, state.kind)(state.n)


class Op:
    """One timed operation: a callable plus the check applied to its result,
    run ``repeats`` times a round."""

    def __init__(self, label, kind, scheme, call, check, repeats=1):
        self.label, self.kind, self.scheme = label, kind, scheme
        self.call, self.check, self.repeats = call, check, repeats


# ----------------------------------------------------------------------
# mc_warm
# ----------------------------------------------------------------------


def _mc_ops(seed: int):
    from qroulette import montecarlo, pom

    ops, warm = [], []
    plan = [(s, scheme, eta, MC_DRAWS) for s in MC_STATES for scheme in SCHEMES for eta in MC_ETAS]
    plan.append(LONG_RUN)
    for state, scheme, eta, draws in plan:
        spec = _spec(state)
        # one seed per state: the three schemes and efficiencies share it
        state_seed = derive_seed(seed, state.cli())
        config = montecarlo.ExperimentConfig(
            state=spec, detector=pom.DetectorConfig(scheme, eta), n_samples=draws, seed=state_seed
        )
        mean_n, mean_nsq = ref.photon_moments(state)
        label = f"{state.cli()} {scheme} eta={eta} draws={draws}"

        def check(summary, label=label, scheme=scheme, eta=eta, draws=draws, m=mean_n, m2=mean_nsq):
            expected_var = ref.outcome_variance(scheme, m, m2, eta)
            problems = [
                ref.check_mean(label, summary.mean, summary.standard_error, m),
                ref.check_variance(label, summary.sample_variance, expected_var),
                None if summary.n_samples == draws else f"{label}: {summary.n_samples} draws",
            ]
            return [p for p in problems if p]

        ops.append(Op(label, "draw", scheme, lambda c=config: montecarlo.run_sampling(c), check))
        # Warm-up: the full roulette run at eta = 1 draws the same photon numbers as
        # the roulette runs below unit efficiency (same seed and chunk streams), so
        # it builds every per-order table they use; one chunk of every other run
        # warms whatever is cached per (state, scheme, eta).
        if draws == MC_DRAWS:
            full = scheme == "roulette" and eta == 1.0
            warm_draws = draws if full else montecarlo.CHUNK_SIZE
            warm.append(
                montecarlo.ExperimentConfig(
                    state=spec,
                    detector=pom.DetectorConfig(scheme, eta),
                    n_samples=warm_draws,
                    seed=state_seed,
                )
            )

    def warm_up():
        for config in warm:
            montecarlo.run_sampling(config)

    return ops, warm_up


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------


def _analytic_ops(seed: int):
    from qroulette import cli, noise, numerics, pom, states

    law = {}

    def warm_up():
        for state in AN_STATES:
            law[state] = states.photon_distribution(_spec(state))

    tasks = [(s, eta) for s in AN_STATES for eta in AN_ETAS]
    random.Random(f"{seed}:analytic-order").shuffle(tasks)
    ops = []
    for state, eta in tasks:
        mean_n, mean_nsq = ref.photon_moments(state)
        tag = f"{state.cli()} eta={eta}"

        def norm_check(label):
            return lambda value: [p for p in [ref.check_abs(label, value, 1.0, 1e-7)] if p]

        ops.append(
            Op(
                f"{tag} roulette normalisation",
                "quadrature",
                "roulette",
                lambda s=state, e=eta: numerics.integrate(
                    lambda x: pom.roulette_density_x(law[s], x, e), -math.inf, math.inf, tol=AN_TOL
                ),
                norm_check(f"{tag} roulette normalisation"),
            )
        )
        ops.append(
            Op(
                f"{tag} heterodyne normalisation",
                "quadrature",
                "heterodyne",
                lambda s=state, e=eta: numerics.integrate(
                    lambda i: pom.heterodyne_density_I(law[s], i, e), -1.0 / e, math.inf, tol=AN_TOL
                ),
                norm_check(f"{tag} heterodyne normalisation"),
            )
        )
        for scheme, moment in (
            ("roulette", "roulette_outcome_moment"),
            ("heterodyne", "heterodyne_outcome_moment"),
        ):
            for order in (1, 2):
                label = f"{tag} {scheme} moment {order}"
                if order == 1:
                    check = lambda v, label=label, m=mean_n: [
                        p for p in [ref.check_abs(label, v, m, 1e-6)] if p
                    ]
                else:
                    second = ref.outcome_variance(scheme, mean_n, mean_nsq, eta) + mean_n * mean_n
                    check = lambda v, label=label, m2=second: [
                        p for p in [ref.check_rel(label, v, m2, 1e-6)] if p
                    ]
                ops.append(
                    Op(
                        label,
                        "moment",
                        scheme,
                        lambda s=state, e=eta, o=order, f=moment: getattr(pom, f)(law[s], e, o),
                        check,
                    )
                )
        ops.append(
            Op(
                f"{tag} direct pmf",
                "pmf",
                "direct",
                lambda s=state, e=eta: pom.direct_detection_pmf(law[s], e),
                lambda pmf, label=f"{tag} direct pmf": [
                    p for p in [ref.check_abs(label, float(pmf.sum()), 1.0, 1e-9)] if p
                ],
            )
        )
    for token in cli.DEFAULT_ETAS.split(","):
        eta = float(token)
        label = f"zero_line eta={eta}"
        ops.append(
            Op(
                label,
                "contour",
                "none",
                lambda e=eta: noise.zero_line(e),
                lambda points, label=label, e=eta: [
                    p
                    for p in [
                        ref.check_intercept(
                            label, [(q.total_n, q.beta, q.converged) for q in points], e
                        )
                    ]
                    if p
                ],
            )
        )
    for op in ops:
        if not (op.kind == "quadrature" and op.scheme == "roulette"):
            op.repeats = AN_SHORT_REPEATS
    return ops, warm_up


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------


def _round(ops, tracer=None, round_index=0):
    """Run every op its ``repeats`` times back to back, with one pass of the
    calibration loop before each op and one after the last; returns [(op
    index, seconds, work)], the check problems and the calibration times.
    The work of a sampling run is its draws, of a contour its points, else 1."""
    records, problems, calibration = [], [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"r{round_index}:{index}"
        calibration.append(calibrate.loop_s())
        for _ in range(op.repeats):
            start = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - start
            problems.extend(op.check(result))
            if op.kind == "draw":
                work = result.n_samples
            elif op.kind == "contour":
                work = len(result)
            else:
                work = 1
            records.append((index, elapsed, work))
    calibration.append(calibrate.loop_s())
    return records, problems, calibration


def summarise(workload: str, ops) -> tuple[dict, dict]:
    """End-to-end metrics and workload figures from [(label, kind, scheme, work,
    times)] rows, one per operation, with the operation's times over every
    untraced round of the run.  Each operation counts with its median time;
    a round is one pass over all of them."""
    rows = [(kind, scheme, work, statistics.median(times)) for _, kind, scheme, work, times in ops]

    def seconds(select):
        return sum(t for kind, scheme, _w, t in rows if select(kind, scheme))

    def rate(select):
        return sum(w for kind, scheme, w, _t in rows if select(kind, scheme)) / seconds(select)

    end_to_end = {
        "round_s": seconds(lambda k, s: True),
        "roulette_s": seconds(lambda k, s: s == "roulette"),
        "heterodyne_s": seconds(lambda k, s: s == "heterodyne"),
    }
    if workload == "mc_warm":
        figures = {"draws_per_s": rate(lambda k, s: True)}
        for scheme in SCHEMES:
            figures[f"{scheme}_draws_per_s"] = rate(lambda k, s, scheme=scheme: s == scheme)
    elif workload == "analytic":
        figures = {
            f"{name}_per_s": rate(lambda k, s, kind=kind: k == kind)
            for name, kind in (
                ("quadratures", "quadrature"),
                ("moments", "moment"),
                ("contour_points", "contour"),
            )
        }
    else:
        figures = {}
    return end_to_end, figures


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    tracer = None
    if workload == "cold_cli":
        import qroulette.cli  # noqa: F401  (set-up of a cold CLI process is this import)
    else:
        import qroulette  # noqa: F401

        if trace and not setup_only:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.op = "warmup"
        if workload == "mc_warm":
            ops, warm_up = _mc_ops(seed)
        elif workload == "analytic":
            ops, warm_up = _analytic_ops(seed)
        else:
            raise SystemExit(f"unknown in-process workload {workload!r}")
        warm_up()
        if tracer is not None:
            tracer.uninstall()
    import numpy
    import scipy

    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print("ready " + json.dumps(facts), flush=True)
    if setup_only:
        return 0

    split = len(tracer.spans) if tracer is not None else 0
    times = [[] for _ in ops]
    walls = [[] for _ in ops]
    calibration = []
    work = [1] * len(ops)
    round_s = {False: [], True: []}
    problems = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True) if tracer is not None else (False,):
            if traced:
                tracer.install()
            records, found, loops = _round(ops, tracer if traced else None, rounds)
            if traced:
                tracer.uninstall()
            rounds += 1
            problems.extend(found)
            calibration.extend(loops)
            factors = calibrate.bracket_scales(loops)
            round_s[traced].append(sum(t * factors[index] for index, t, _ in records))
            if not traced:
                for index, elapsed, amount in records:
                    times[index].append(elapsed * factors[index])
                    walls[index].append(elapsed)
                    work[index] = amount
        if time.perf_counter() - start >= seconds:
            break

    result = {
        "ops": [
            [op.label, op.kind, op.scheme, w, t, wall]
            for op, w, t, wall in zip(ops, work, times, walls)
        ],
        "calibration": calibration,
        "attempted": rounds * sum(op.repeats for op in ops),
        "problems": problems[:20],
        "n_problems": len(problems),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import layer_metrics, write_spans

        layers = layer_metrics(tracer.spans, split, len(round_s[True]))
        untraced_s = statistics.median(round_s[False])
        overhead = statistics.median(round_s[True]) - untraced_s
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / untraced_s
        result["per_layer"] = layers
        write_spans(tracer.spans, Path(argv[argv.index("--spans") + 1]))
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
