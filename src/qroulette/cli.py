"""Command-line surface: analysis, simulation, and verification runs.

Commands
--------
noise      closed-form noise report for one state and efficiency
threshold  CSV of squeezed-family zero contours over a list of efficiencies
simulate   seeded Monte Carlo run, JSON summary + CSV histogram
naimark    discrete-random extension verification or the semiclassical ladder

Every file-producing run writes a manifest.json capturing the command, the
parameters it read, the seed, the tool version and the output paths; passing
``--manifest manifest.json`` replays that run and reproduces the seeded
outputs byte for byte.  Exit codes: 0 success, 1 validation/parse error,
2 numerical failure (non-convergence or insufficient truncation).

State grammar (whitespace-separated key=value tokens, read by StateSpec.parse):
    kind=coherent N=1.5
    kind=thermal N=0.7
    kind=fock n=2
    kind=squeezed N=2.0 beta=0.5
    kind=custom weights=0.25,0.5,0.25
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    MAX_DIM,
    MAX_M,
    MAX_TRUNC,
    SCHEMES,
    NumericalError,
    ValidationError,
    check_eta,
    check_int,
    check_real,
)
from .noise import MAX_POINTS, noise_report, zero_line
from .states import StateSpec, exact_moments

OUTPUT_DIR_ENV = "QROULETTE_OUTPUT_DIR"
MANIFEST_NAME = "manifest.json"
DEFAULT_ETAS = "1.0,0.75,0.5,0.25,0.1"
# naimark discrete-random trials, a time bound: 0.75 ms a trial at the default sizes
MAX_TRIALS = 1_000_000
# and trials * max_m * max_dim**5 at most that of MAX_TRIALS at the default sizes, as a
# trial's orthogonality products grow as M d^5: 7 trials at MAX_DIM and MAX_M, 8 s each
TRIAL_BUDGET = MAX_TRIALS * 4 * 8**5


class _ManifestFields(dict):
    """A JSON object read from a manifest: a missing field is a ValidationError."""

    def __missing__(self, key):
        raise ValidationError(f"manifest lacks the field '{key}'")


def _read_manifest(path: str) -> _ManifestFields:
    try:
        manifest = json.loads(Path(path).read_text(encoding="ascii"), object_hook=_ManifestFields)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read manifest '{path}': {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest["params"], dict):
        raise ValidationError(f"manifest '{path}' is not an object with a 'params' object")
    return manifest


class _CliParser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so parse problems map
    onto the documented exit code 1."""

    def error(self, message):
        raise ValidationError(message)


# the state grammar lives beside StateSpec.describe; kept here under its old name
parse_state = StateSpec.parse


def _float_list(raw, name: str) -> list[float]:
    """Finite numbers of a comma list; ValidationError naming the field otherwise."""
    return [check_real(z, name, -math.inf, math.inf) for z in str(raw).split(",") if z != ""]


def _number(params: dict, name: str, kind=float):
    """params[name] as an int, or as a finite float; ValidationError naming the field otherwise."""
    check = check_real if kind is float else check_int
    return check(params[name], f"field '{name}'", -math.inf, math.inf)


def _text(params: dict, name: str) -> str:
    """params[name] as a string; ValidationError naming the field otherwise."""
    raw = params[name]
    if not isinstance(raw, str):
        raise ValidationError(f"field '{name}' must be a string (got {raw!r})")
    return raw


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="ascii")
    return path


def _resolve_output_dir(flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path.cwd()


# ----------------------------------------------------------------------
# command runners: params dict -> (stdout text, list of written paths)
# ----------------------------------------------------------------------


def _run_noise(params: dict, out_dir: Path) -> tuple[str, list[Path]]:
    spec = parse_state(_text(params, "state"))
    eta = check_eta(params["eta"])
    mean_n, mean_nsq = exact_moments(spec)
    report = noise_report(mean_n, mean_nsq, eta)
    lines = [f"state               {spec.describe()}"]
    for key, value in report.to_dict().items():
        lines.append(f"{key:<19} {value:.12g}")
    lines.append(f"verdict             {report.verdict}")
    outputs = []
    if params.get("json"):
        payload = dict(report.to_dict(), state=spec.describe(), verdict=report.verdict)
        outputs.append(_write(out_dir / _text(params, "json"), _json_text(payload)))
    return "\n".join(lines) + "\n", outputs


def _run_threshold(params: dict, out_dir: Path) -> tuple[str, list[Path]]:
    etas = [check_eta(token) for token in str(params["etas"]).split(",") if token != ""]
    if not etas:
        raise ValidationError("field 'etas' must name at least one efficiency")
    n_points = _number(params, "n_points", int)
    n_max = _number(params, "n_max")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["eta", "N", "beta", "converged"])
    total = 0
    for eta in etas:
        for point in zero_line(eta, n_points=n_points, n_max=n_max):
            writer.writerow(
                [
                    f"{eta:.17g}",
                    f"{point.total_n:.17g}",
                    f"{point.beta:.17g}",
                    "true" if point.converged else "false",
                ]
            )
            total += 1
    path = _write(out_dir / _text(params, "output"), buffer.getvalue())
    return f"wrote {total} contour points for {len(etas)} efficiencies to {path}\n", [path]


def _run_simulate(params: dict, out_dir: Path) -> tuple[str, list[Path]]:
    from .montecarlo import ExperimentConfig, run_sampling
    from .pom import DetectorConfig

    config = ExperimentConfig(
        state=parse_state(_text(params, "state")),
        detector=DetectorConfig(scheme=_text(params, "scheme"), eta=params["eta"]),
        n_samples=_number(params, "n_samples", int),
        seed=_number(params, "seed", int),
        workers=_number(params, "workers", int),
    )
    summary = run_sampling(config)
    outputs = [_write(out_dir / "summary.json", _json_text(summary.to_dict()))]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bin_center", "count"])
    for center, count in summary.histogram:
        writer.writerow([f"{center:.17g}", str(count)])
    outputs.append(_write(out_dir / "histogram.csv", buffer.getvalue()))
    text = (
        f"{summary.scheme} eta={summary.eta:g} n={summary.n_samples}: "
        f"mean={summary.mean:.6g} variance={summary.sample_variance:.6g} "
        f"(stderr {summary.standard_error:.3g})\n"
    )
    return text, outputs


def _run_naimark(params: dict, out_dir: Path) -> tuple[str, list[Path]]:
    import numpy as np

    from .naimark import (
        build_extension,
        random_roulette_spec,
        semiclassical_check,
        verify_extension,
    )

    mode = _text(params, "mode")
    if mode not in ("discrete-random", "semiclassical"):
        raise ValidationError(f"field 'mode' has unknown value '{mode}'")
    outputs: list[Path] = []
    if mode == "discrete-random":
        trials = check_int(_number(params, "trials", int), "field 'trials'", 1, MAX_TRIALS)
        seed = check_int(_number(params, "seed", int), "field 'seed'", 0, math.inf)
        max_dim = check_int(_number(params, "max_dim", int), "field 'max_dim'", 2, MAX_DIM)
        max_m = _number(params, "max_m", int)
        max_m = check_int(max_m, "field 'max_m' ('max_observables')", 1, MAX_M)
        if trials * max_m * max_dim**5 > TRIAL_BUDGET:
            raise ValidationError(
                f"fields 'trials', 'max_dim' and 'max_m' must have trials * max_m * max_dim**5"
                f" at most {TRIAL_BUDGET} (got {trials} * {max_m} * {max_dim}**5)"
            )
        rng = np.random.default_rng(seed)
        worst: dict = {}  # each residual's maximum so far
        for _ in range(trials):
            spec = random_roulette_spec(rng, max_dim=max_dim, max_observables=max_m)
            projectors, probe = build_extension(spec)
            report = verify_extension(spec, projectors, probe).to_dict()
            worst = {k: float(np.maximum(worst.get(k, v), v)) for k, v in report.items()}  # NaN stays
        payload = {"trials": trials} | worst
        text = "\n".join(f"{key} = {value}" for key, value in payload.items()) + "\n"
    else:
        amplitudes = _float_list(params["amplitudes"], "field 'amplitudes'")
        if not amplitudes:
            raise ValidationError("field 'amplitudes' must name at least one probe amplitude")
        alpha_re, alpha_im, phi = (_number(params, key) for key in ("alpha_re", "alpha_im", "phi"))
        system_trunc, probe_trunc = (
            None if params.get(key) is None else _number(params, key, int)
            for key in ("system_trunc", "probe_trunc")
        )
        deviations = semiclassical_check(
            alpha=complex(alpha_re, alpha_im),
            phi=phi,
            probe_amplitudes=amplitudes,
            system_trunc=system_trunc,
            probe_trunc=probe_trunc,
        )
        payload = {
            "alpha_re": alpha_re,
            "alpha_im": alpha_im,
            "phi": phi,
            "ladder": [[z, d] for z, d in zip(amplitudes, deviations)],
        }
        text = (
            "\n".join(f"|z| = {z:g}  deviation = {d:.6e}" for z, d in zip(amplitudes, deviations))
            + "\n"
        )
    if params.get("json"):
        outputs.append(_write(out_dir / _text(params, "json"), _json_text(payload)))
    return text, outputs


_RUNNERS = {
    "noise": _run_noise,
    "threshold": _run_threshold,
    "simulate": _run_simulate,
    "naimark": _run_naimark,
}


def _write_manifest(
    command: str, params: dict, out_dir: Path, outputs: list[Path], duration: float
) -> Path:
    seed = params.get("seed")
    manifest = {
        "tool": "qroulette",
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "output_dir": str(out_dir),
        "outputs": [path.name for path in outputs],
        "duration_seconds": duration,
    }
    return _write(out_dir / MANIFEST_NAME, _json_text(manifest))


def _execute(command: str, params: dict, out_dir: Path) -> str:
    start = time.monotonic()
    text, outputs = _RUNNERS[command](params, out_dir)
    if outputs:
        _write_manifest(command, params, out_dir, outputs, time.monotonic() - start)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="qroulette",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--manifest", help="replay a previous run from its manifest.json")
    parser.add_argument(
        "--output-dir",
        help=f"directory for output files (default: ${OUTPUT_DIR_ENV} or the working directory)",
    )
    sub = parser.add_subparsers(dest="command")

    p_noise = sub.add_parser("noise", parents=[], help="closed-form noise report")
    p_noise.add_argument("--state", required=True, help="state description (see grammar above)")
    p_noise.add_argument("--eta", required=True, help="quantum efficiency in (0, 1]")
    p_noise.add_argument("--json", help="also write the report as JSON with this file name")

    p_thr = sub.add_parser("threshold", help="zero-contour CSV for the squeezed family")
    p_thr.add_argument("--etas", default=DEFAULT_ETAS, help="comma list of efficiencies")
    p_thr.add_argument(
        "--n-points", type=int, default=160, help=f"N samples per contour, at most {MAX_POINTS}"
    )
    p_thr.add_argument("--n-max", type=float, default=12.0, help="largest sampled N")
    p_thr.add_argument("--output", default="curves.csv", help="CSV file name")

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo run")
    p_sim.add_argument("--state", required=True)
    p_sim.add_argument("--scheme", required=True, choices=SCHEMES)
    p_sim.add_argument("--eta", required=True)
    p_sim.add_argument("--n-samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=1)

    p_nai = sub.add_parser("naimark", help="extension construction and verification")
    modes = p_nai.add_subparsers(dest="mode", required=True)
    p_rand = modes.add_parser("discrete-random", help="verify random discrete extensions")
    trials_help = f"at most {MAX_TRIALS}, and trials * max_m * max_dim**5 at most {TRIAL_BUDGET}:"
    trials_help += f" {MAX_TRIALS} (about 13 minutes) at the default sizes, 7 (about 1 minute)"
    trials_help += f" at --max-dim {MAX_DIM} --max-m {MAX_M}"
    p_rand.add_argument("--trials", type=int, default=100, help=trials_help)
    p_rand.add_argument("--seed", type=int, default=2024)
    p_rand.add_argument(
        "--max-dim", type=int, default=8, help=f"largest system dimension, at most {MAX_DIM}"
    )
    p_rand.add_argument(
        "--max-m", type=int, default=4, help=f"most projector families, at most {MAX_M}"
    )
    p_semi = modes.add_parser("semiclassical", help="the semiclassical homodyne ladder")
    p_semi.add_argument("--alpha-re", type=float, default=1.0)
    p_semi.add_argument("--alpha-im", type=float, default=0.0)
    p_semi.add_argument("--phi", type=float, default=0.0)
    p_semi.add_argument("--amplitudes", default="2,4,8", help="comma list of probe |z| values")
    for flag in ("--system-trunc", "--probe-trunc"):
        p_semi.add_argument(
            flag, type=int, help=f"Fock cutoff, at most {MAX_TRUNC}: the check's time grows with it"
        )
    for p_mode in (p_rand, p_semi):
        p_mode.add_argument("--json", help="also write the result as JSON with this file name")
    return parser


# top-level options and the subcommand tag: how to run, not what to run
_NOT_PARAMS = ("manifest", "output_dir", "command")


def _params_from_args(args: argparse.Namespace) -> dict:
    return {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_PARAMS and value is not None
    }


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.manifest:
            if args.command is not None:
                raise ValidationError(f"--manifest takes no command (got '{args.command}')")
            manifest = _read_manifest(args.manifest)
            command = manifest["command"]
            if not isinstance(command, str) or command not in _RUNNERS:
                raise ValidationError(f"manifest names unknown command '{command}'")
            out_dir = (
                Path(args.output_dir) if args.output_dir else Path(manifest["output_dir"])
            )
            sys.stdout.write(_execute(command, manifest["params"], out_dir))
            return 0
        if args.command is None:
            raise ValidationError("a command is required (noise, threshold, simulate, naimark)")
        out_dir = _resolve_output_dir(args.output_dir)
        sys.stdout.write(_execute(args.command, _params_from_args(args), out_dir))
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
