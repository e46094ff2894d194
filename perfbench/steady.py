"""Steadiness check: repeat each workload and summarise every end-to-end metric.

    python3 perfbench/steady.py [--workloads mc_warm,analytic,cold_cli]
        [--runs 10] [--sets 1]

Runs ``run.py`` RUNS times per workload and set, untraced and with
BENCHMARK.json's run_seconds, each time with another seed (set k, run i uses
seed 1 + k * RUNS + i), one process at a time.  For every metric it prints
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (Q3 - Q1) / median next to the metric's bound (ok: below a third of
it, WIDE: within it, OVER: beyond it); the workload figures are summarised
the same way without a bound.  With two or more sets it also prints how far
each later set's median moved from the first set's, signed (positive is
worse), and OVER where the move in either direction exceeds the bound; and
whether the share of failed operations agrees exactly.  Raw results go to
.perfbench-out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    result = json.loads(lines[-1])
    figures = (line.split(" ", 3) for line in lines if line.startswith("figure "))
    result["figures"] = {name: float(value) for _t, name, value, unit in figures if unit != "path"}
    return result


def summary(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="mc_warm,analytic,cold_cli")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                start = time.perf_counter()
                runs.append(one_run(workload, seed, seconds))
                runs[-1]["wall_s"] = time.perf_counter() - start
                print(f"# {workload} set {k} seed {seed}: {runs[-1]['wall_s']:.1f} s", flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n== {workload}: {args.runs} runs x {args.sets} sets, {seconds} s each")
        print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        entries = [(name, True) for name in metrics]
        entries += [(name, False) for name in sorted(sets[0][0]["figures"])]
        for name, is_metric in entries:
            for k, runs in enumerate(sets):
                values = [
                    r["metrics"][name]["value"] if is_metric else r["figures"][name] for r in runs
                ]
                median, q1, q3, spread = summary(values)
                bound = metrics[name]["bound"] if is_metric else None
                flag = ""
                if bound is not None:
                    flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
                tag = (name if is_metric else f"figure {name}") + (
                    f" [set {k}]" if args.sets > 1 else ""
                )
                shown = "" if bound is None else bound
                print(
                    f"{tag:<40} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3%}"
                    f" {shown:>6} {flag}"
                )
            if is_metric and args.sets > 1:
                first = statistics.median(r["metrics"][name]["value"] for r in sets[0])
                sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
                for k in range(1, args.sets):
                    later = statistics.median(r["metrics"][name]["value"] for r in sets[k])
                    worse = sign * (later - first) / first
                    verdict = "ok" if abs(worse) <= metrics[name]["bound"] else "OVER"
                    label = f"  set {k} vs set 0, worse by"
                    print(f"{label:<40} {worse:>+14.3%} {verdict}")
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ratios = {f / a for f, a in shares}
        agree = "same share" if len(ratios) == 1 else "DIFFERENT"
        print(f"failed/attempted: {sorted(shares)} -> {agree}")
        print(f"all correct: {all(r['correct'] for runs in sets for r in runs)}")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
