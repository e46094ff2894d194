"""qroulette benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {mc_warm,analytic,cold_cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Lines above it give
the machine facts (``fact``), the workload's own figures (``figure``) and any
known failure (``known_failure``).  The end-to-end timings are calibrated
against a fixed loop run between the operations (calibrate.py); the figures
``wall_round_s`` and ``wall_setup_s`` give them in wall time.  This process
imports nothing from qroulette; every measurement runs in a child
interpreter with PYTHONPATH set to the checkout's ``src`` and BLAS/OpenMP
pinned to one thread.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import reference as ref
from inproc import derive_seed, summarise
from tracing import layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("mc_warm", "analytic", "cold_cli")
# An untraced in-process run measures with this many workers, one after
# another, so each operation is timed at different times of the run and counts
# with its median time.
MEASURING_WORKERS = 3
# set-up is sampled at least SETUP_SAMPLES times and until the samples add up
# to SETUP_MIN_TOTAL_S, so a one-second import is sampled more often than a
# three-second warm-up; setup_s is their median
SETUP_SAMPLES = 3
SETUP_MIN_TOTAL_S = 3.5
SETUP_MAX_SAMPLES = 7
# passes of the calibration loop before each set-up and each cold_cli command
CALIBRATION_PASSES = 5
# A run measures for --seconds, but every worker finishes the round it has
# begun and the set-ups come on top: at --seconds 15 a run takes 35-53 s on a
# 2-core machine.  The run is cut RUN_MARGIN_S after --seconds.
RUN_MARGIN_S = 135.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QROULETTE_OUTPUT_DIR", None)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


class Deadline:
    """Kills the child it watches once the run has used ``limit`` seconds;
    ``stop`` kills and reaps whatever is still running when the run ends."""

    def __init__(self, limit: float):
        self.limit = limit
        self.end = time.monotonic() + limit
        self.live: dict[subprocess.Popen, threading.Timer] = {}

    def watch(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(max(0.0, self.end - time.monotonic()), proc.kill)
        timer.daemon = True
        timer.start()
        self.live[proc] = timer
        return timer

    def release(self, proc: subprocess.Popen, timer: threading.Timer) -> None:
        timer.cancel()
        self.live.pop(proc, None)

    def stop(self) -> None:
        for proc, timer in list(self.live.items()):
            proc.kill()
            proc.wait()
            self.release(proc, timer)


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def run_child(argv, deadline: Deadline, stdout, stderr) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    The RSS comes from wait4, which covers the child and every descendant it
    waited for (the pool workers of ``--workers N``).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    timer = deadline.watch(proc)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        deadline.release(proc, timer)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline.end:
        raise BenchError(f"run exceeded {deadline.limit:.0f} s in {argv[1:4]}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def start_inproc(workload, seed, seconds, trace, deadline, extra=()):
    """Start perfbench/inproc.py; returns (process, seconds to 'ready', facts)."""
    argv = [sys.executable, str(BENCH / "inproc.py"), workload, str(seed), str(seconds)]
    argv += [str(int(trace)), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = deadline.watch(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith("ready "):
        proc.wait()
        deadline.release(proc, timer)
        raise BenchError(f"{workload} set-up failed (exit {proc.returncode})")
    return proc, timer, ready, json.loads(line[len("ready ") :])


def calibrate_into(samples: list) -> None:
    samples.extend(calibrate.loop_s() for _ in range(CALIBRATION_PASSES))


def sample_setups(workload, setups: list, setup_passes: list, deadline) -> dict:
    """Add set-up-only samples to `setups` as SETUP_SAMPLES and
    SETUP_MIN_TOTAL_S require, each after CALIBRATION_PASSES passes of the
    calibration loop; returns the facts the last child reported."""
    facts = {}
    while len(setups) < SETUP_SAMPLES or (
        sum(setups) < SETUP_MIN_TOTAL_S and len(setups) < SETUP_MAX_SAMPLES
    ):
        calibrate_into(setup_passes)
        proc, timer, ready, facts = start_inproc(workload, 0, 0, False, deadline, ["--setup-only"])
        proc.stdout.read()
        code = proc.wait()
        deadline.release(proc, timer)
        if code != 0:
            raise BenchError(f"{workload} set-up exited {code}")
        setups.append(ready)
    return facts


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


def finish_inproc(proc, timer, workload, deadline) -> dict:
    lines = proc.stdout.read().splitlines()
    code = proc.wait()
    deadline.release(proc, timer)
    if code != 0 or not lines or not lines[-1].startswith("result "):
        raise BenchError(f"{workload} worker exited {code}")
    return json.loads(lines[-1][len("result ") :])


def run_inproc(args, deadline) -> dict:
    """Untraced: MEASURING_WORKERS workers one after another, each setting up and
    then measuring for its share of --seconds; every operation counts with
    its median calibrated time over all their rounds.  Traced: one worker,
    alternating untraced and traced rounds for --seconds."""
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    workers = 1 if args.trace else MEASURING_WORKERS
    extra = ["--spans", str(spans)] if args.trace else []
    setups, setup_passes, results, facts = [], [], [], {}
    for _ in range(workers):
        calibrate_into(setup_passes)
        proc, timer, ready, facts = start_inproc(
            args.workload, args.seed, args.seconds / workers, args.trace, deadline, extra
        )
        setups.append(ready)
        results.append(finish_inproc(proc, timer, args.workload, deadline))
    ops = [list(row) for row in results[0]["ops"]]
    for other in results[1:]:
        for row, more in zip(ops, other["ops"]):
            if row[0] != more[0]:
                raise BenchError(f"workers disagree on the operations: {row[0]} / {more[0]}")
            row[4] = row[4] + more[4]
            row[5] = row[5] + more[5]
    end_to_end, _ = summarise(args.workload, [row[:5] for row in ops])
    wall, figures = summarise(args.workload, [row[:4] + [row[5]] for row in ops])
    if not args.trace:
        sample_setups(args.workload, setups, setup_passes, deadline)
    calibration = [t for r in results for t in r["calibration"]]
    # a set-up is scaled by the passes made just before the set-ups, in this
    # process: the workers' passes run between operations, in another state
    end_to_end["setup_s"] = statistics.median(setups) * calibrate.scale(setup_passes)
    end_to_end["peak_rss_mb"] = max(r["rss_mb"] for r in results)
    figures["wall_round_s"] = wall["round_s"]
    figures["wall_setup_s"] = statistics.median(setups)
    figures["calibration_s"] = statistics.median(calibration)
    if args.workload == "mc_warm":
        figures["peak_rss_mb"] = end_to_end["peak_rss_mb"]
    result = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": 0,
        "problems": [p for r in results for p in r["problems"]],
        "n_problems": sum(r["n_problems"] for r in results),
        "end_to_end": end_to_end,
        "figures": figures,
        "facts": facts,
    }
    if args.trace:
        result["per_layer"] = results[0]["per_layer"]
        figures["spans_file"] = str(spans.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# cold_cli
# ----------------------------------------------------------------------

CLI_DRAWS = 1_000_000
CLI_ETA = 0.5
SQUEEZED_ARGS = ["--scheme", "roulette", "--eta", "0.5", "--n-samples", str(CLI_DRAWS)]
# Two commands that fail on every seed because of faults in the program; they
# keep a fixed seed and are counted as failed, never timed.
KNOWN_FAILURES = {
    "fock270-roulette": ref.State("fock", 270),
    "coherent900-direct": ref.State("coherent", 900.0),
}


class CliOp:
    def __init__(self, label, scheme, argv, check, known_failure=False):
        self.label, self.scheme, self.argv = label, scheme, argv
        self.check, self.known_failure = check, known_failure


def _simulate_check(label, state, scheme, eta, draws):
    mean_n, mean_nsq = ref.photon_moments(state)
    expected_var = ref.outcome_variance(scheme, mean_n, mean_nsq, eta)

    def check(out_dir: Path, _stdout: str):
        summary = json.loads((out_dir / "summary.json").read_text())
        problems = [
            ref.check_mean(label, summary["mean"], summary["standard_error"], mean_n),
            ref.check_variance(label, summary["sample_variance"], expected_var),
            None if summary["n_samples"] == draws else f"{label}: {summary['n_samples']} draws",
        ]
        return [p for p in problems if p]

    return check


def _same_outputs(label, first_dir):
    def check(out_dir: Path, _stdout: str):
        problems = []
        for name in ("summary.json", "histogram.csv"):
            first, second = first_dir / name, out_dir / name
            if not (first.is_file() and second.is_file()):
                problems.append(f"{label} {name}: missing")
                continue
            problems.append(
                ref.check_identical(f"{label} {name}", first.read_bytes(), second.read_bytes())
            )
        return [p for p in problems if p]

    return check


def _threshold_check(out_dir: Path, _stdout: str):
    rows = (out_dir / "curves.csv").read_text().splitlines()[1:]
    contours: dict[float, list] = {}
    for row in rows:
        eta, n, beta, converged = row.split(",")
        contours.setdefault(float(eta), []).append((float(n), float(beta), converged == "true"))
    problems = [ref.check_intercept(f"threshold eta={e}", pts, e) for e, pts in contours.items()]
    if len(contours) != 5:
        problems.append(f"threshold: {len(contours)} efficiencies, expected the 5 defaults")
    return [p for p in problems if p]


def _noise_check(state, eta):
    mean_n, mean_nsq = ref.photon_moments(state)

    def check(_out_dir: Path, stdout: str):
        fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
        problems = [
            ref.check_rel(
                f"noise {key}",
                float(fields[key]),
                ref.outcome_variance(scheme, mean_n, mean_nsq, eta),
                1e-9,
            )
            for key, scheme in (
                ("roulette_var", "roulette"),
                ("heterodyne_var", "heterodyne"),
                ("direct_var", "direct"),
            )
        ]
        gap = ref.roulette_minus_heterodyne(mean_n, mean_nsq, eta)
        quieter = "roulette" if gap < 0 else "heterodyne"
        if fields.get("verdict", "").strip() != quieter:
            problems.append(f"noise verdict {fields.get('verdict')!r}, expected {quieter}")
        return [p for p in problems if p]

    return check


def _naimark_random_check(_out_dir: Path, stdout: str):
    fields = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
    problems = [
        ref.check_at_most(f"naimark {key}", float(fields[key]), 1e-12)
        for key in (
            "max_orthogonality_residual",
            "max_completeness_residual",
            "max_partial_trace_residual",
        )
    ]
    if fields.get("trials") != "100":
        problems.append(f"naimark trials {fields.get('trials')!r}")
    return [p for p in problems if p]


def _semiclassical_check(_out_dir: Path, stdout: str):
    deviations = [
        float(line.rsplit("=", 1)[1]) for line in stdout.splitlines() if "deviation" in line
    ]
    return [p for p in [ref.check_decreasing("semiclassical deviations", deviations)] if p]


def cli_ops(seed: int, work: Path) -> list[CliOp]:
    """The commands of one cold_cli round; `work` holds their output directories."""
    ops, heterodyne = [], []
    for state in (ref.State("coherent", 100.0), ref.State("fock", 200)):
        sim_seed = derive_seed(seed, state.cli())
        for scheme in ("roulette", "heterodyne", "direct"):
            label = f"{state.kind}{int(state.n)}-{scheme}"
            argv = ["simulate", "--state", state.cli(), "--scheme", scheme, "--eta", str(CLI_ETA)]
            argv += ["--n-samples", str(CLI_DRAWS), "--seed", str(sim_seed)]
            check = _simulate_check(label, state, scheme, CLI_ETA, CLI_DRAWS)
            ops.append(CliOp(label, scheme, argv, check))
            if scheme == "heterodyne":
                heterodyne.append(ops[-1])

    def heterodyne_again():
        # A cold heterodyne command takes about 1.4 s, mostly imports; timed once
        # a round, the sum of the two spread 26-34 % between runs.  So each runs
        # three times, early, mid-round and at the end, and counts with its median.
        ops.extend(CliOp(op.label, op.scheme, op.argv, op.check) for op in heterodyne)

    squeezed_seed = str(derive_seed(seed, ref.SQUEEZED.cli()))
    first = work / "squeezed-w1"
    for workers in (1, 2):
        label = f"squeezed-w{workers}"
        argv = ["simulate", "--state", ref.SQUEEZED.cli(), *SQUEEZED_ARGS, "--seed", squeezed_seed]
        check = (
            _simulate_check(label, ref.SQUEEZED, "roulette", CLI_ETA, CLI_DRAWS)
            if workers == 1
            else _same_outputs(label, first)
        )
        ops.append(CliOp(label, "roulette", argv + ["--workers", str(workers)], check))
    ops.append(
        CliOp(
            "squeezed-replay",
            "roulette",
            ["--manifest", str(first / "manifest.json")],
            _same_outputs("squeezed-replay", first),
        )
    )
    heterodyne_again()
    ops.append(CliOp("threshold", "none", ["threshold"], _threshold_check))
    noise_state = ref.State("coherent", 1.0)
    ops.append(
        CliOp(
            "noise",
            "none",
            ["noise", "--state", noise_state.cli(), "--eta", str(CLI_ETA)],
            _noise_check(noise_state, CLI_ETA),
        )
    )
    ops.append(
        CliOp(
            "naimark-random",
            "none",
            ["naimark", "discrete-random", "--trials", "100"]
            + ["--seed", str(derive_seed(seed, "naimark"))],
            _naimark_random_check,
        )
    )
    ops.append(
        CliOp("naimark-semiclassical", "none", ["naimark", "semiclassical"], _semiclassical_check)
    )
    heterodyne_again()
    for label, state in KNOWN_FAILURES.items():
        scheme = label.split("-")[1]
        argv = ["simulate", "--state", state.cli(), "--scheme", scheme, "--eta", str(CLI_ETA)]
        argv += ["--n-samples", str(CLI_DRAWS), "--seed", "1"]
        check = _simulate_check(label, state, scheme, CLI_ETA, CLI_DRAWS)
        ops.append(CliOp(label, scheme, argv, check, known_failure=True))
    runs = collections.Counter()
    for op in ops:
        runs[op.label] += 1
        out_dir = op.label if runs[op.label] == 1 else f"{op.label}-{runs[op.label]}"
        op.argv = ["--output-dir", str(work / out_dir)] + op.argv
    return ops


def cli_round(ops, traced: bool, deadline: Deadline):
    """Run each command once, one process at a time, with CALIBRATION_PASSES
    passes of the calibration loop before each and after the last; returns
    the commands' records (wall time, and wall time at the reference speed
    by the round's median pass), the check problems, the known failures and
    the calibration times.  The round's median, not the passes around each
    command: a command is timed once a run, and the few passes next to it
    are noisier than the host's drift over a round."""
    records, problems, known, calibration = [], [], [], []
    for op in ops:
        calibrate_into(calibration)
        out_dir = Path(op.argv[1])
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_file = out_dir / "trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "clitrace.py"), str(spans_file), "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "qroulette", *op.argv]
        with open(out_dir / "stdout.txt", "w+") as out, open(out_dir / "stderr.txt", "w+") as err:
            code, wall, rss = run_child(argv, deadline, out, err)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        first_err = (stderr.strip().splitlines() or [""])[0]
        if op.known_failure and code in (1, 2):
            known.append({"op": op.label, "exit": code, "stderr": first_err})
            continue
        if code != 0:
            raise BenchError(f"{op.label} exited {code}: {first_err}")
        problems.extend(op.check(out_dir, stdout))
        if op.known_failure:
            # mended: checked, reported, and still kept out of the timings
            known.append({"op": op.label, "exit": 0, "stderr": "mended: exits 0"})
            continue
        trace = json.loads(spans_file.read_text()) if traced else None
        records.append({"op": op, "wall": wall, "rss": rss, "trace": trace})
    calibrate_into(calibration)
    factor = calibrate.scale(calibration)
    for r in records:
        r["scaled"] = r["wall"] * factor
    return records, problems, known, calibration


def _cli_layers(traced_rounds) -> tuple[dict, list]:
    """Per-layer figures from the traced commands, and their merged spans."""
    merged = []
    for records in traced_rounds:
        for r in records:
            offset = len(merged)
            for name, start, end, parent, _op, work in r["trace"]["spans"]:
                parent = parent + offset if parent >= 0 else -1
                merged.append([name, start, end, parent, Path(r["op"].argv[1]).name, work])
    layers = layer_metrics(merged, 0, len(traced_rounds))
    flat = [r for records in traced_rounds for r in records]
    layers["cli.import_s"] = statistics.median(r["trace"]["import_s"] for r in flat)
    layers["cli.main_s"] = statistics.median(r["trace"]["main_s"] for r in flat)
    layers["cli.process_s"] = statistics.median(
        r["wall"] - r["trace"]["import_s"] - r["trace"]["main_s"] for r in flat
    )
    return layers, merged


def run_cold_cli(args, deadline) -> dict:
    setups, setup_passes, calibration = [], [], []
    facts = sample_setups("cold_cli", setups, setup_passes, deadline)
    work = OUT / f"work-{os.getpid()}"
    timed, traced, problems, known = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    try:
        index = 0
        while True:
            for is_traced in (False, True) if args.trace else (False,):
                round_dir = work / f"round{index}"
                ops = cli_ops(args.seed, round_dir)
                records, found, failed, loops = cli_round(ops, is_traced, deadline)
                attempted += len(ops)
                problems.extend(found)
                known.extend(failed)
                calibration.extend(loops)
                (traced if is_traced else timed).append(records)
                index += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        deadline.stop()  # a command still running could write into `work` again
        shutil.rmtree(work, ignore_errors=True)
    walls: dict[str, list] = {}
    scaled: dict[str, list] = {}
    for r in (r for records in timed for r in records):
        walls.setdefault(r["op"].label, [r["op"].scheme]).append(r["wall"])
        scaled.setdefault(r["op"].label, []).append(r["scaled"])
    rows = [(label, "command", w[0], 1, scaled[label]) for label, w in walls.items()]
    end_to_end, _ = summarise(args.workload, rows)
    wall_rows = [(label, "command", w[0], 1, w[1:]) for label, w in walls.items()]
    wall, _ = summarise(args.workload, wall_rows)
    end_to_end["setup_s"] = statistics.median(setups) * calibrate.scale(setup_passes)
    end_to_end["peak_rss_mb"] = max(r["rss"] for records in timed for r in records)
    figures = {
        "cli_command_s": statistics.median(statistics.median(w[1:]) for w in walls.values()),
        "cold_roulette_s": wall["roulette_s"],
        "threshold_s": statistics.median(walls["threshold"][1:]),
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "wall_round_s": wall["round_s"],
        "wall_setup_s": statistics.median(setups),
        "calibration_s": statistics.median(calibration),
    }
    result = {
        "attempted": attempted,
        "failed": sum(1 for k in known if k["exit"] != 0),
        "problems": problems[:20],
        "n_problems": len(problems),
        "end_to_end": end_to_end,
        "figures": figures,
        "facts": facts,
        "known": known,
    }
    if args.trace:
        layers, merged = _cli_layers(traced)
        untraced_s = statistics.median(sum(r["scaled"] for r in records) for records in timed)
        traced_s = statistics.median(sum(r["scaled"] for r in records) for records in traced)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        result["per_layer"] = layers
        spans = OUT / f"spans-cold_cli-seed{args.seed}.jsonl"
        write_spans(merged, spans)
        figures["spans_file"] = str(spans.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

FIGURE_UNITS = {
    "draws_per_s": "draws/s",
    "roulette_draws_per_s": "draws/s",
    "heterodyne_draws_per_s": "draws/s",
    "direct_draws_per_s": "draws/s",
    "quadratures_per_s": "1/s",
    "moments_per_s": "1/s",
    "contour_points_per_s": "1/s",
    "cli_command_s": "s",
    "cold_roulette_s": "s",
    "threshold_s": "s",
    "peak_rss_mb": "MB",
    "wall_round_s": "s",
    "wall_setup_s": "s",
    "calibration_s": "s",
    "spans_file": "path",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_id() -> str:
    """The checkout's commit from .git, read without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[len("ref: ") :]
        loose = git / ref_name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qroulette" / "__init__.py").is_file():
        print(f"run.py: no qroulette sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    OUT.mkdir(exist_ok=True)
    deadline = Deadline(args.seconds + RUN_MARGIN_S)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    signal.signal(signal.SIGINT, _exit_on_signal)
    try:
        run = run_cold_cli if args.workload == "cold_cli" else run_inproc
        result = run(args, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        deadline.stop()

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **result["facts"],
        "commit": commit_id(),
    }
    for key, value in facts.items():
        print(f"fact {key} {value}")
    for key, value in result["figures"].items():
        print(f"figure {key} {value} {FIGURE_UNITS[key]}")
    for line in dict.fromkeys(
        f"known_failure {k['op']} exit={k['exit']} {k['stderr']}" for k in result.get("known", [])
    ):
        print(line)
    for problem in result["problems"]:
        print(f"problem {problem}")

    if args.trace:
        # a per-layer metric of a layer the workload never enters reads 0
        values = {m["name"]: result["per_layer"].get(m["name"], 0.0) for m in bench["per_layer"]}
    else:
        values = {m["name"]: result["end_to_end"][m["name"]] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = result["n_problems"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
