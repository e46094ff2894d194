"""Spans around qroulette's public functions, recorded from outside the package.

``Tracer.install`` replaces each function named in LAYERS by a wrapper in
every loaded ``qroulette`` module that holds a reference to it, so calls
between modules (``montecarlo`` calling ``numerics.build_inverse_cdf``, say)
are seen too.  A span is a row [name, start, end, parent, op, work]:
``parent`` is the index of the enclosing span or -1, ``op`` the benchmark
operation that was running, and ``work`` a count measured on the call (points
evaluated, nodes built, bytes returned).  Spans stay in memory until
``write_spans`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

LAYERS = {
    "states": ("photon_distribution",),
    "pom": (
        "thinned_distribution",
        "roulette_density_x",
        "heterodyne_density_I",
        "roulette_outcome_moment",
        "heterodyne_outcome_moment",
        "direct_detection_pmf",
    ),
    "numerics": ("integrate", "oscillator_mixture", "build_inverse_cdf"),
    "estimators": ("intensity_estimator", "heterodyne_estimator"),
    "noise": ("zero_line", "noise_report"),
    "montecarlo": ("run_sampling", "draw_outcomes"),
    "naimark": ("build_extension", "verify_extension", "semiclassical_check"),
    "cli": ("main",),
}


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _chunks(config) -> int:
    chunk = sys.modules["qroulette.montecarlo"].CHUNK_SIZE
    return math.ceil(config.n_samples / chunk)


# work measured on a call: (args, result) -> number or [number, number]
_WORK = {
    "pom.roulette_density_x": lambda args, result: _size(args[1]),
    "pom.heterodyne_density_I": lambda args, result: _size(args[1]),
    "numerics.oscillator_mixture": lambda args, result: _size(args[1]),
    "numerics.build_inverse_cdf": lambda args, result: len(result.grid),
    "montecarlo.draw_outcomes": lambda args, result: [result.nbytes, _chunks(args[0])],
    "noise.zero_line": lambda args, result: len(result),
}


class Tracer:
    """Span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)
        counts_evals = name == "numerics.integrate"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(record)
            if counts_evals:
                integrand = args[0]

                def counted(*a):
                    record[5] += 1
                    return integrand(*a)

                args = (counted,) + args[1:]
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever a qroulette module refers to it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "qroulette"]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"qroulette.{layer}")
            if home is None:
                continue
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def write_spans(spans, path) -> None:
    """One JSON line per span: [index, name, start, end, parent, op, work]."""
    with open(path, "w", encoding="ascii") as out:
        for index, span in enumerate(spans):
            out.write(json.dumps([index] + span) + "\n")


def self_times(spans, first: int = 0) -> dict[str, float]:
    """Seconds each layer (module) spent in its own code, children excluded,
    over the spans from index ``first`` on."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for index in range(first, len(spans)):
        name, start, end = spans[index][:3]
        out[name.split(".")[0]] += (end - start) - child[index]
    return out


def layer_metrics(spans, split: int, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round.

    ``spans[:split]`` come from set-up and feed the warm-up counters, which
    are also added to ``states.photon_distribution`` (the in-process
    workloads truncate their states in set-up); ``spans[split:]`` come from
    ``rounds`` traced rounds.
    """
    spans_all, warmup_spans, spans = spans, spans[:split], spans[split:]

    def total(name, rows=spans):
        return sum(end - start for n, start, end, *_ in rows if n == name)

    def calls(name, rows=spans):
        return sum(1 for row in rows if row[0] == name)

    def work(name, rows=spans, index=None):
        return sum(
            (w[index] if index is not None else w) for n, _s, _e, _p, _o, w in rows if n == name
        )

    per = 1.0 / max(rounds, 1)
    run_s = total("montecarlo.run_sampling")
    draw_s = total("montecarlo.draw_outcomes")
    integrate_calls = calls("numerics.integrate")
    draw_bytes = [w[0] for n, *_rest, w in spans if n == "montecarlo.draw_outcomes"]
    metrics = {
        "states.photon_distribution.calls": calls("states.photon_distribution") * per
        + calls("states.photon_distribution", warmup_spans),
        "states.photon_distribution.s": total("states.photon_distribution") * per
        + total("states.photon_distribution", warmup_spans),
        "pom.thinned_distribution.calls": calls("pom.thinned_distribution") * per,
        "pom.thinned_distribution.s": total("pom.thinned_distribution") * per,
        "pom.roulette_density_x.calls": calls("pom.roulette_density_x") * per,
        "pom.roulette_density_x.points": work("pom.roulette_density_x") * per,
        "pom.roulette_density_x.s": total("pom.roulette_density_x") * per,
        "pom.heterodyne_density_I.calls": calls("pom.heterodyne_density_I") * per,
        "pom.heterodyne_density_I.points": work("pom.heterodyne_density_I") * per,
        "pom.heterodyne_density_I.s": total("pom.heterodyne_density_I") * per,
        "pom.outcome_moment.s": (
            total("pom.roulette_outcome_moment") + total("pom.heterodyne_outcome_moment")
        )
        * per,
        "numerics.integrate.calls": integrate_calls * per,
        "numerics.integrate.s": total("numerics.integrate") * per,
        "numerics.integrate.evals_per_call": (
            work("numerics.integrate") / integrate_calls if integrate_calls else 0.0
        ),
        "numerics.oscillator_mixture.points": work("numerics.oscillator_mixture") * per,
        "numerics.oscillator_mixture.s": total("numerics.oscillator_mixture") * per,
        "numerics.build_inverse_cdf.calls": calls("numerics.build_inverse_cdf") * per,
        "numerics.build_inverse_cdf.nodes": work("numerics.build_inverse_cdf") * per,
        "numerics.build_inverse_cdf.s": total("numerics.build_inverse_cdf") * per,
        "numerics.build_inverse_cdf.warmup_calls": calls(
            "numerics.build_inverse_cdf", warmup_spans
        ),
        "numerics.build_inverse_cdf.warmup_nodes": work("numerics.build_inverse_cdf", warmup_spans),
        "numerics.build_inverse_cdf.warmup_s": total("numerics.build_inverse_cdf", warmup_spans),
        "montecarlo.draw_outcomes.s": draw_s * per,
        "montecarlo.draw_outcomes.chunks": work("montecarlo.draw_outcomes", index=1) * per,
        "montecarlo.summary_s": (run_s - draw_s) * per,
        "montecarlo.outcome_bytes": max(draw_bytes, default=0),
        "estimators.s": (
            total("estimators.intensity_estimator") + total("estimators.heterodyne_estimator")
        )
        * per,
        "noise.zero_line.points": work("noise.zero_line") * per,
        "noise.zero_line.s": total("noise.zero_line") * per,
        "naimark.build_extension.s": total("naimark.build_extension") * per,
        "naimark.verify_extension.s": total("naimark.verify_extension") * per,
        "naimark.semiclassical_check.s": total("naimark.semiclassical_check") * per,
    }
    for layer, seconds in self_times(spans_all, split).items():
        metrics[f"{layer}.self_s"] = seconds * per
    metrics["trace.spans"] = len(spans) * per
    return metrics

