import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qroulette
from qroulette import montecarlo
from qroulette.cli import MAX_TRIALS, main, parse_state
from qroulette.errors import ValidationError
from qroulette.naimark import MAX_DIM, MAX_M, MAX_TRUNC
from qroulette.noise import MAX_POINTS, NoiseReport, zero_line
from qroulette.states import HARD_CAP, StateSpec


def run_cli(*argv):
    return main(list(argv))


class TestStateGrammar:
    def test_all_kinds(self):
        assert parse_state("kind=coherent N=1.5") == StateSpec.coherent(1.5)
        assert parse_state("kind=thermal N=0.7") == StateSpec.thermal(0.7)
        assert parse_state("kind=fock n=2") == StateSpec.fock(2)
        assert parse_state("kind=squeezed N=2.0 beta=0.5") == StateSpec.squeezed(2.0, 0.5)
        assert parse_state("kind=custom weights=0.25,0.5,0.25") == StateSpec.custom(
            [0.25, 0.5, 0.25]
        )

    def test_describe_round_trips(self):
        for spec in (
            StateSpec.coherent(1.5),
            StateSpec.thermal(0.7),
            StateSpec.fock(2),
            StateSpec.squeezed(2.0, 0.5),
            StateSpec.custom([0.25, 0.5, 0.25]),
        ):
            assert parse_state(spec.describe()) == spec

    @pytest.mark.parametrize(
        "text, field",
        [
            ("kind=coherent", "N"),
            ("kind=fock", "n"),
            ("kind=squeezed N=1", "beta"),
            ("kind=fock n=two", "n"),
            ("kind=fock nn=2", "n"),
            ("N=1", "kind"),
            ("kind=warp N=1", "kind"),
            ("kind=custom weights=a,b", "weights"),
        ],
    )
    def test_errors_name_the_bad_field(self, text, field):
        with pytest.raises(ValidationError) as info:
            parse_state(text)
        assert f"'{field}'" in str(info.value)

    def test_weights_summing_past_the_float_range_are_an_error_not_a_warning(self):
        with pytest.raises(ValidationError, match="'weights' must sum to 1 .*got inf"):
            parse_state("kind=custom weights=1e308,1e308")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "state description is missing the field 'kind'"),
            ("   ", "state description is missing the field 'kind'"),
            ("=1", "state description is missing the field 'kind'"),
            ("N=1", "state description is missing the field 'kind'"),
            ("kind", "state token 'kind' is not of the form key=value"),
            ("kind=coherent N", "state token 'N' is not of the form key=value"),
            ("kind=coherent N= 1", "state token '1' is not of the form key=value"),
            ("kind=custom weights=1 x", "state token 'x' is not of the form key=value"),
            ("kind=coherent N=1 N=2", "state field 'N' given twice"),
            ("kind=coherent kind=fock", "state field 'kind' given twice"),
            ("kind=warp N=1", "state field 'kind' has unknown value 'warp'"),
            ("kind=Coherent N=1", "state field 'kind' has unknown value 'Coherent'"),
            ("kind= N=1", "state field 'kind' has unknown value ''"),
            ("kind==coherent N=1", "state field 'kind' has unknown value '=coherent'"),
            ("kind=coherent", "state kind 'coherent' requires the field 'N'"),
            ("kind=coherent =1", "state kind 'coherent' requires the field 'N'"),
            ("kind=thermal", "state kind 'thermal' requires the field 'N'"),
            ("kind=squeezed N=1", "state kind 'squeezed' requires the field 'beta'"),
            ("kind=squeezed beta=0.5", "state kind 'squeezed' requires the field 'N'"),
            ("kind=fock", "state kind 'fock' requires the field 'n'"),
            ("kind=fock nn=2", "state kind 'fock' requires the field 'n'"),
            ("kind=custom", "state kind 'custom' requires the field 'weights'"),
            (
                "kind=coherent N=abc",
                "state field 'N' must be a finite real in [-inf, inf] (got 'abc')",
            ),
            ("kind=coherent N=", "state field 'N' must be a finite real in [-inf, inf] (got '')"),
            (
                "kind=coherent N=1e400",
                "state field 'N' must be a finite real in [-inf, inf] (got '1e400')",
            ),
            (
                "kind=coherent N=nan",
                "state field 'N' must be a finite real in [-inf, inf] (got 'nan')",
            ),
            (
                "kind=coherent N=inf",
                "state field 'N' must be a finite real in [-inf, inf] (got 'inf')",
            ),
            (
                "kind=coherent N=0x10",
                "state field 'N' must be a finite real in [-inf, inf] (got '0x10')",
            ),
            (
                "kind=coherent N=1,2",
                "state field 'N' must be a finite real in [-inf, inf] (got '1,2')",
            ),
            (
                "kind=coherent N=1=2",
                "state field 'N' must be a finite real in [-inf, inf] (got '1=2')",
            ),
            ("kind=fock n=two", "state field 'n' must be a finite real in [-inf, inf] (got 'two')"),
            ("kind=coherent N=-1", "state field 'N' must be a finite real in [0, inf] (got -1.0)"),
            (
                "kind=squeezed N=-2 beta=1.5",
                "state field 'N' must be a finite real in [0, inf] (got -2.0)",
            ),
            (
                "kind=squeezed N=2 beta=1.5",
                "state field 'beta' must be a finite real in [0, 1] (got 1.5)",
            ),
            ("kind=fock n=2.5", "state field 'n' must lie in [0, inf] and be an integer (got 2.5)"),
            ("kind=fock n=-1", "state field 'n' must lie in [0, inf] and be an integer (got -1.0)"),
            ("kind=custom weights=", "state field 'weights' must be a nonempty list"),
            ("kind=custom weights=,,", "state field 'weights' must be a nonempty list"),
            (
                "kind=custom weights=a,b",
                "state field 'weights' must be a finite real in [-inf, inf] (got 'a')",
            ),
            (
                "kind=custom weights=-0.5,1.5",
                "state field 'weights' must be a finite real in [0, inf] (got -0.5)",
            ),
            (
                "kind=custom weights=0.5,0.4",
                "state field 'weights' must sum to 1 within 1e-12 (got 0.9)",
            ),
            ("kind=custom weights=1 extra=2", "unknown state field 'extra'"),
            ("kind=coherent N=1 beta=0.5", "unknown state field 'beta'"),
            ("kind=fock n=3 N=1", "unknown state field 'N'"),
            # the range checks come before the leftover field
            (
                "kind=fock n=-1 N=1",
                "state field 'n' must lie in [0, inf] and be an integer (got -1.0)",
            ),
        ],
    )
    def test_refusal_messages(self, text, message):
        with pytest.raises(ValidationError) as info:
            parse_state(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, described",
        [
            ("kind=coherent N=1.5", "kind=coherent N=1.5"),
            ("N=5e-324 kind=coherent", "kind=coherent N=5e-324"),
            ("kind=coherent\tN=2", "kind=coherent N=2.0"),
            ("kind=coherent N=1_000", "kind=coherent N=1000.0"),
            ("kind=thermal N=0.7", "kind=thermal N=0.7"),
            ("kind=thermal N=-0.0", "kind=thermal N=-0.0"),
            ("kind=squeezed N=2.0 beta=0.5", "kind=squeezed N=2.0 beta=0.5"),
            ("kind=squeezed beta=1 N=0", "kind=squeezed N=0.0 beta=1.0"),
            ("kind=fock n=2", "kind=fock n=2"),
            ("kind=fock n=3.0", "kind=fock n=3"),
            ("kind=fock n=4096", "kind=fock n=4096"),
            ("kind=fock n=1e20", "kind=fock n=100000000000000000000"),
            ("kind=custom weights=0.25,0.5,0.25", "kind=custom weights=0.25,0.5,0.25"),
            ("kind=custom weights=0.5,,0.5", "kind=custom weights=0.5,0.5"),
            ("kind=custom weights=1", "kind=custom weights=1.0"),
        ],
    )
    def test_accepted_texts_describe(self, text, described):
        assert parse_state(text).describe() == described

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.coherent(5e-324),
            StateSpec.coherent(0.1 + 0.2),
            StateSpec.thermal(1e300),
            StateSpec.squeezed(1e300, 1 / 3),
            StateSpec.fock(4096),
            StateSpec.custom([0.1 + 0.2, 0.7]),
            StateSpec.custom([0.12345678901234568, 1 - 0.12345678901234568]),
        ],
    )
    def test_parse_inverts_describe(self, spec):
        assert parse_state(spec.describe()) == spec
        assert parse_state(spec.describe()).describe() == spec.describe()

    def test_the_cli_parses_with_state_spec(self):
        assert parse_state == StateSpec.parse


class TestNoiseCommand:
    def test_coherent_crossover_verdict(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir", str(tmp_path), "noise", "--state", "kind=coherent N=1", "--eta", "1"
        )
        out = capsys.readouterr().out
        assert code == 0
        delta_line = next(line for line in out.splitlines() if line.startswith("delta_rh"))
        assert float(delta_line.split()[-1]) == 0.0
        assert "verdict             indifferent" in out

    def test_vacuum_favours_roulette(self, capsys):
        assert run_cli("noise", "--state", "kind=fock n=0", "--eta", "1") == 0
        out = capsys.readouterr().out
        assert "delta_rh            -0.5" in out
        assert "verdict             roulette" in out

    def test_bright_fock_favours_heterodyne(self, capsys):
        assert run_cli("noise", "--state", "kind=fock n=5", "--eta", "1") == 0
        assert "verdict             heterodyne" in capsys.readouterr().out

    def test_json_round_trip(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir",
            str(tmp_path),
            "noise",
            "--state",
            "kind=squeezed N=2 beta=0.5",
            "--eta",
            "0.75",
            "--json",
            "noise.json",
        )
        assert code == 0
        payload = json.loads((tmp_path / "noise.json").read_text())
        assert payload["eta"] == 0.75
        assert payload["roulette_var"] == payload["direct_var"] + payload["added_roulette"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["noise.json"]

    def test_parse_failure_exit_code(self, capsys):
        assert run_cli("noise", "--state", "kind=fock", "--eta", "1") == 1
        assert "'n'" in capsys.readouterr().err

    def test_bad_eta_exit_code(self, capsys):
        assert run_cli("noise", "--state", "kind=fock n=1", "--eta", "1.5") == 1
        assert "'eta'" in capsys.readouterr().err

    def test_eta_not_a_number_exit_code(self, capsys):
        assert run_cli("noise", "--state", "kind=fock n=1", "--eta", "abc") == 1
        assert "'eta'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "2.5"])
    def test_fock_order_not_an_integer_exit_code(self, value, capsys):
        assert run_cli("noise", "--state", f"kind=fock n={value}", "--eta", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'n'" in err

    @pytest.mark.parametrize("eta", ["1e-200", "1e-160"])
    def test_tiny_eta_is_a_numerical_failure(self, eta, capsys):
        assert run_cli("noise", "--state", "kind=fock n=2", "--eta", eta) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure:") and "roulette_var" in err


class TestThresholdCommand:
    def test_default_curves(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir", str(tmp_path), "threshold", "--n-points", "48", "--output", "c.csv"
        )
        assert code == 0
        with open(tmp_path / "c.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        etas = sorted({float(row["eta"]) for row in rows}, reverse=True)
        assert etas == [1.0, 0.75, 0.5, 0.25, 0.1]
        for eta, intercept in ((1.0, 1.0), (0.25, 4.0), (0.1, 10.0)):
            axis = [
                row
                for row in rows
                if float(row["eta"]) == eta
                and float(row["beta"]) == 0.0
                and row["converged"] == "true"
            ]
            assert len(axis) == 1
            assert float(axis[0]["N"]) == pytest.approx(intercept, abs=1e-8)

    def test_round_trip_exact(self, tmp_path):
        run_cli(
            "--output-dir",
            str(tmp_path),
            "threshold",
            "--etas",
            "0.5",
            "--n-points",
            "32",
            "--n-max",
            "6.0",
            "--output",
            "c.csv",
        )
        with open(tmp_path / "c.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        points = zero_line(0.5, n_points=32, n_max=6.0)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            parsed = float(row["beta"])
            assert parsed == point.beta or (math.isnan(parsed) and math.isnan(point.beta))
            assert float(row["N"]) == point.total_n

    def test_empty_etas_rejected(self, capsys):
        assert run_cli("threshold", "--etas", ",") == 1

    def test_default_curves_are_pinned_bytes(self, tmp_path):
        # pure float arithmetic and a correctly rounded sqrt: the same bytes on any CPU,
        # so a change to the gap's expression or to the bisection shows here
        assert run_cli("--output-dir", str(tmp_path), "threshold") == 0
        digest = hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest()
        assert digest == "9f03c0827d61709e9eed0144e0828d29a79a80e681a532017793ae93f7db5943"


class TestSimulateCommand:
    def simulate(self, tmp_path, sub, *extra):
        return run_cli(
            "--output-dir",
            str(tmp_path / sub),
            "simulate",
            "--state",
            "kind=fock n=1",
            "--scheme",
            "direct",
            "--eta",
            "0.5",
            "--n-samples",
            "150000",
            "--seed",
            "42",
            *extra,
        )

    def test_outputs_and_values(self, tmp_path, capsys):
        assert self.simulate(tmp_path, "a") == 0
        payload = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert abs(payload["mean"] - 1.0) <= 5 * payload["standard_error"]
        assert payload["sample_variance"] == pytest.approx(1.0, rel=0.03)
        with open(tmp_path / "a" / "histogram.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert sum(int(r["count"]) for r in rows) == 150000

    def test_roulette_vacuum_variance(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir",
            str(tmp_path),
            "simulate",
            "--state",
            "kind=fock n=0",
            "--scheme",
            "roulette",
            "--eta",
            "1",
            "--n-samples",
            "200000",
            "--seed",
            "7",
        )
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert abs(payload["mean"]) <= 5 * payload["standard_error"]
        assert payload["sample_variance"] == pytest.approx(0.5, rel=0.02)

    def test_worker_count_invariance(self, tmp_path, capsys):
        assert self.simulate(tmp_path, "w1", "--workers", "1") == 0
        assert self.simulate(tmp_path, "w4", "--workers", "4") == 0
        for name in ("summary.json", "histogram.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w4" / name
            ).read_bytes()

    def test_manifest_replay_is_bit_exact(self, tmp_path, capsys):
        assert self.simulate(tmp_path, "orig") == 0
        code = run_cli(
            "--output-dir",
            str(tmp_path / "replay"),
            "--manifest",
            str(tmp_path / "orig" / "manifest.json"),
        )
        assert code == 0
        for name in ("summary.json", "histogram.csv"):
            assert (tmp_path / "orig" / name).read_bytes() == (
                tmp_path / "replay" / name
            ).read_bytes()

    def test_manifest_params_are_the_command_options(self, tmp_path, capsys):
        assert self.simulate(tmp_path, "m") == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["params"] == {
            "state": "kind=fock n=1",
            "scheme": "direct",
            "eta": "0.5",
            "n_samples": 150000,
            "seed": 42,
            "workers": 1,
        }

    def test_fock_above_hard_cap_is_a_numerical_failure(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir",
            str(tmp_path),
            "simulate",
            "--state",
            "kind=fock n=4097",
            "--scheme",
            "direct",
            "--eta",
            "1",
            "--n-samples",
            "10",
            "--seed",
            "1",
        )
        assert code == 2
        assert "4097" in capsys.readouterr().err

    def test_environment_default_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QROULETTE_OUTPUT_DIR", str(tmp_path / "from_env"))
        code = run_cli(
            "simulate",
            "--state",
            "kind=fock n=0",
            "--scheme",
            "direct",
            "--eta",
            "1",
            "--n-samples",
            "1000",
            "--seed",
            "1",
        )
        assert code == 0
        assert (tmp_path / "from_env" / "summary.json").exists()


class TestNaimarkCommand:
    def test_discrete_random_residuals(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir",
            str(tmp_path),
            "naimark",
            "discrete-random",
            "--trials",
            "25",
            "--seed",
            "5",
            "--json",
            "n.json",
        )
        assert code == 0
        payload = json.loads((tmp_path / "n.json").read_text())
        assert payload["max_partial_trace_residual"] <= 1e-12

    def test_trial_memory_stays_flat(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from qroulette import naimark

        # stubs, so that a trial costs only the loop around them
        spec = naimark.random_roulette_spec(np.random.default_rng(1), 2, 1)
        report = naimark.ExtensionReport
        cycle = itertools.cycle([report(1e-16, 5e-16, 2e-16), report(4e-16, 0.0, 3e-16)])
        monkeypatch.setattr(naimark, "random_roulette_spec", lambda rng, **sizes: spec)
        monkeypatch.setattr(naimark, "build_extension", lambda spec: (None, None))
        monkeypatch.setattr(naimark, "verify_extension", lambda spec, ext, probe: next(cycle))
        argv = ("--output-dir", str(tmp_path), "naimark", "discrete-random", "--json", "n.json")
        peaks = []
        for trials in (10, 10, 10_000):
            gc.collect()
            tracemalloc.start()
            try:
                assert run_cli(*argv, "--trials", str(trials)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one report kept per trial adds about 2 MB; garbage awaiting the
        # collector, about 0.2 MB
        assert peaks[2] <= peaks[1] + 500_000, peaks
        assert json.loads((tmp_path / "n.json").read_text()) == {
            "trials": 10_000,
            "max_orthogonality_residual": 4e-16,
            "max_completeness_residual": 5e-16,
            "max_partial_trace_residual": 3e-16,
        }

    def test_corrupted_family_fails(self, monkeypatch, capsys):
        from qroulette import naimark

        real_spec = naimark.random_roulette_spec

        def corrupt_spec(rng, **sizes):
            spec = real_spec(rng, **sizes)
            families = [f.copy() for f in spec.families]
            families[0][0, 0, 0] += 1e-3
            return type(spec)(weights=spec.weights, families=tuple(families))

        monkeypatch.setattr(naimark, "random_roulette_spec", corrupt_spec)
        code = run_cli("naimark", "discrete-random", "--trials", "2")
        assert code == 1
        assert "family 0" in capsys.readouterr().err
        # no command-line flag corrupts a family
        assert run_cli("naimark", "discrete-random", "--corrupt") == 1
        assert "unrecognized arguments: --corrupt" in capsys.readouterr().err

    def test_semiclassical_ladder(self, tmp_path, capsys):
        code = run_cli(
            "--output-dir",
            str(tmp_path),
            "naimark",
            "semiclassical",
            "--alpha-re",
            "1",
            "--amplitudes",
            "2,4,8",
            "--json",
            "ladder.json",
        )
        assert code == 0
        ladder = json.loads((tmp_path / "ladder.json").read_text())["ladder"]
        deviations = [d for _z, d in ladder]
        assert deviations[0] >= deviations[1] >= deviations[2]

    def test_truncation_failure_exit_code(self, capsys):
        code = run_cli(
            "naimark", "semiclassical", "--amplitudes", "8", "--probe-trunc", "40"
        )
        assert code == 2
        assert "truncation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("discrete-random", "--max-dim", "1"), "max_dim"),
            (("discrete-random", "--max-m", "0"), "max_observables"),
            (("semiclassical", "--amplitudes", "a,b"), "amplitudes"),
            (("semiclassical", "--amplitudes", "nan"), "amplitudes"),
            (("semiclassical", "--amplitudes", "2,inf"), "amplitudes"),
            (("semiclassical", "--alpha-re", "nan"), "alpha_re"),
            (("semiclassical", "--alpha-im", "inf"), "alpha_im"),
            (("semiclassical", "--phi", "nan"), "phi"),
        ],
    )
    def test_bad_inputs_name_the_field(self, argv, field, capsys):
        assert run_cli("naimark", *argv) == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitudes", ["", ","])
    @pytest.mark.parametrize("form", ["flags", "manifest"])
    def test_empty_amplitudes_name_the_field(self, form, amplitudes, tmp_path, capsys):
        if form == "flags":
            argv = ["--output-dir", str(tmp_path), "naimark", "semiclassical"]
            code = run_cli(*argv, "--amplitudes", amplitudes, "--json", "ladder.json")
        else:
            params = {"mode": "semiclassical", "alpha_re": 1.0, "alpha_im": 0.0, "phi": 0.0}
            manifest = {
                "command": "naimark",
                "output_dir": str(tmp_path),
                "params": params | {"amplitudes": amplitudes, "json": "ladder.json"},
            }
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps(manifest), encoding="ascii")
            code = run_cli("--manifest", str(path))
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error:") and "'amplitudes'" in err
        assert out == ""
        assert not (tmp_path / "ladder.json").exists()

    @pytest.mark.parametrize(
        "argv, foreign",
        [
            (("semiclassical", "--trials", "5"), "--trials 5"),
            (("semiclassical", "--seed", "9"), "--seed 9"),
            (("semiclassical", "--max-dim", "64"), "--max-dim 64"),
            (("discrete-random", "--amplitudes", "2"), "--amplitudes 2"),
            (("discrete-random", "--phi", "0.5"), "--phi 0.5"),
            (("discrete-random", "--probe-trunc", "40"), "--probe-trunc 40"),
        ],
    )
    def test_a_flag_of_the_other_mode_is_refused(self, argv, foreign, tmp_path, capsys):
        assert run_cli("--output-dir", str(tmp_path), "naimark", *argv, "--json", "x.json") == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {foreign}\n"
        assert not any(tmp_path.iterdir())

    def test_flags_follow_the_mode(self, capsys):
        assert run_cli("naimark", "--trials", "5", "discrete-random") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert run_cli("naimark") == 1
        assert "the following arguments are required: mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, own, foreign",
        [
            ("discrete-random", ["--trials", "--seed", "--max-dim", "--max-m"], "--amplitudes"),
            ("semiclassical", ["--alpha-re", "--amplitudes", "--probe-trunc"], "--trials"),
        ],
    )
    def test_each_modes_help_lists_its_own_flags(self, mode, own, foreign, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("naimark", mode, "--help")
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert all(flag in text for flag in [*own, "--json"]) and foreign not in text

    MODE_FLAGS = {
        "discrete-random": {"trials": 2, "seed": 9, "max_dim": 4, "max_m": 2},
        "semiclassical": {
            "alpha_re": 0.5,
            "alpha_im": -0.25,
            "phi": 0.125,
            "amplitudes": "2,4",
            "system_trunc": 60,
            "probe_trunc": 80,
        },
    }

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_manifest_params_are_the_modes_flags(self, mode, tmp_path, capsys):
        flags = self.MODE_FLAGS[mode]
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        argv += ["--json", "r.json"]
        assert run_cli("--output-dir", str(tmp_path), "naimark", mode, *argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"] == {"mode": mode, **flags, "json": "r.json"}
        assert manifest["seed"] == flags.get("seed")

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_a_manifest_holding_both_modes_flags_replays(self, mode, tmp_path, capsys):
        # a manifest written when both modes shared one flag set holds all eleven
        # values; each mode reads its own and leaves the rest
        fresh, replay = tmp_path / "fresh", tmp_path / "replay"
        flags = self.MODE_FLAGS[mode]
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        assert run_cli("--output-dir", str(fresh), "naimark", mode, *argv, "--json", "r.json") == 0
        fresh_out = capsys.readouterr().out
        params = {"mode": mode, "json": "r.json"}
        for flags in self.MODE_FLAGS.values():
            params |= flags
        assert len(params) == 12
        manifest = {"command": "naimark", "output_dir": str(replay), "params": params}
        (tmp_path / "old.json").write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(tmp_path / "old.json")) == 0
        assert capsys.readouterr().out == fresh_out
        assert (replay / "r.json").read_bytes() == (fresh / "r.json").read_bytes()

    @pytest.mark.parametrize("trials, code", [(7, 0), (8, 1)])
    def test_trials_at_the_largest_sizes_meet_the_budget(
        self, trials, code, tmp_path, monkeypatch, capsys
    ):
        from qroulette import naimark

        # stubs, so that no trial at the largest sizes is built or verified
        report = naimark.ExtensionReport(1e-16, 2e-16, 3e-16)
        monkeypatch.setattr(naimark, "build_extension", lambda spec: (None, None))
        monkeypatch.setattr(naimark, "verify_extension", lambda spec, ext, probe: report)
        argv = ["naimark", "discrete-random", "--max-dim", str(MAX_DIM), "--max-m", str(MAX_M)]
        assert run_cli(*argv, "--trials", str(trials)) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out.startswith(f"trials = {trials}\n")
        else:
            assert err.startswith("error:") and out == ""
            assert all(f"'{field}'" in err for field in ("trials", "max_dim", "max_m"))
            assert str(MAX_TRIALS * 4 * 8**5) in err


class TestTopLevel:
    def test_missing_command(self, capsys):
        assert run_cli() == 1

    def test_unknown_argument(self, capsys):
        assert run_cli("noise", "--state", "kind=fock n=0", "--eta", "1", "--bogus") == 1

    def test_cli_import_leaves_scipy_stats_out(self):
        # a fresh interpreter, so no other test's imports can hide the dependency
        src = str(Path(qroulette.__file__).parents[1])
        probe = "import sys, qroulette.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.stdout.strip() == "False"

    def test_cli_import_leaves_quadrature_and_root_finding_for_first_use(self):
        # integrate is numpy's own: no scipy module loads, not even when it runs
        src = str(Path(qroulette.__file__).parents[1])
        probe = (
            "import math, sys, qroulette.cli, qroulette\n"
            "before = [m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')]\n"
            "same = qroulette.integrate is qroulette.numerics.integrate\n"
            "value = qroulette.integrate(lambda x: math.exp(-x * x), -math.inf, math.inf)\n"
            "print(before, same, abs(value - math.sqrt(math.pi)) < 1e-12,"
            " any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.stdout.strip() == "[False, False] True True False"


    def test_commands_load_no_scipy(self, tmp_path):
        # a fresh interpreter, so no other test's imports can hide the dependency
        src = str(Path(qroulette.__file__).parents[1])
        probe = (
            "import sys\n"
            "import qroulette\n"
            "import qroulette.cli\n"
            "loaded = []\n"
            "def run(*argv):\n"
            "    assert qroulette.cli.main(list(argv)) == 0, argv\n"
            "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "run('noise', '--state', 'kind=squeezed N=2.0 beta=0.5', '--eta', '0.5')\n"
            "for scheme in ('roulette', 'heterodyne', 'direct'):\n"
            "    run('--output-dir', scheme, 'simulate', '--state', 'kind=coherent N=100',\n"
            "        '--scheme', scheme, '--eta', '0.5', '--n-samples', '20000', '--seed', '3',\n"
            "        '--workers', '1')\n"
            "run('threshold', '--etas', '1,0.1', '--output', 'curves.csv')\n"
            "print(loaded)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.stdout.splitlines()[-1] == str([[]] * 5)


def fresh_interpreter(probe: str, cwd) -> str:
    """stdout of `probe` run by a new interpreter on this checkout's sources."""
    src = str(Path(qroulette.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return result.stdout


class TestColdImports:
    def test_closed_form_commands_load_no_numpy(self, tmp_path):
        probe = (
            "import sys\n"
            "import qroulette.cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            "def run(*argv):\n"
            "    assert qroulette.cli.main(list(argv)) == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "for state in ('kind=coherent N=1', 'kind=thermal N=0.7',\n"
            "              'kind=squeezed N=2.0 beta=0.5', 'kind=fock n=3'):\n"
            "    run('noise', '--state', state, '--eta', '0.5', '--json', 'noise.json')\n"
            "run('threshold')\n"
            "run('threshold', '--etas', '1,0.1', '--n-points', '7', '--n-max', '1e-320')\n"
            "print(loaded)\n"
        )
        assert fresh_interpreter(probe, tmp_path).splitlines()[-1] == str([False] * 7)

    def test_single_process_simulate_loads_no_pool(self, tmp_path):
        probe = (
            "import sys\n"
            "import qroulette.cli\n"
            "for scheme in ('roulette', 'heterodyne', 'direct'):\n"
            "    argv = ['--output-dir', scheme, 'simulate', '--state', 'kind=coherent N=4',\n"
            "            '--scheme', scheme, '--eta', '0.5', '--n-samples', '20000',\n"
            "            '--seed', '3', '--workers', '1']\n"
            "    assert qroulette.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
            "             if m in sys.modules))\n"
        )
        assert fresh_interpreter(probe, tmp_path).splitlines()[-1] == "[]"

    def test_semiclassical_defaults_load_no_scipy(self, tmp_path):
        probe = (
            "import sys\n"
            "import qroulette.cli\n"
            "assert qroulette.cli.main(['naimark', 'semiclassical', '--json', 's.json']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert fresh_interpreter(probe, tmp_path).splitlines()[-1] == "[]"

    def test_exact_tails_and_too_bright_states_load_no_scipy(self, tmp_path):
        probe = (
            "import sys\n"
            "import qroulette.cli\n"
            "runs = [(2, ['naimark', 'semiclassical', '--amplitudes', '5',\n"
            "             '--probe-trunc', '50'])]\n"
            "for state, code in (('kind=coherent N=3000', 0), ('kind=coherent N=4500', 2),\n"
            "                    ('kind=squeezed N=1e16 beta=0.5', 2)):\n"
            "    runs.append((code, ['--output-dir', 'out', 'simulate', '--state', state,\n"
            "                        '--scheme', 'direct', '--eta', '0.5', '--n-samples', '1000',\n"
            "                        '--seed', '3', '--workers', '1']))\n"
            "for code, argv in runs:\n"
            "    assert qroulette.cli.main(argv) == code, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert fresh_interpreter(probe, tmp_path).splitlines()[-1] == "[]"

    def test_every_export_is_its_defining_modules_object(self, tmp_path):
        probe = (
            "import importlib, qroulette\n"
            "names = list(qroulette.__all__)\n"
            "ok = []\n"
            "for name in names:\n"
            "    value = getattr(qroulette, name)\n"
            "    home = importlib.import_module(value.__module__)\n"
            "    ok.append(home.__name__.startswith('qroulette.')\n"
            "              and getattr(home, name) is value)\n"
            "star = {}\n"
            "exec('from qroulette import *', star)\n"
            "print(len(names), all(ok), set(star) - {'__builtins__'} == set(names),\n"
            "      set(names) <= set(dir(qroulette)), hasattr(qroulette, 'no_such_name'))\n"
        )
        assert fresh_interpreter(probe, tmp_path).splitlines()[-1] == "53 True True True False"


class TestManifestReplayErrors:
    def replay(self, path, capsys):
        code = run_cli("--manifest", str(path))
        return code, capsys.readouterr().err

    def test_a_command_beside_a_manifest_is_refused(self, tmp_path, capsys):
        # a replay takes its command from the manifest: a second one is an error, not dropped
        args = ("noise", "--state", "kind=fock n=0", "--eta", "1", "--json", "n.json")
        assert run_cli("--output-dir", str(tmp_path / "a"), *args) == 0
        capsys.readouterr()
        code = run_cli(
            "--manifest",
            str(tmp_path / "a" / "manifest.json"),
            "--output-dir",
            str(tmp_path / "b"),
            "simulate",
            *("--state", "kind=fock n=3", "--scheme", "direct", "--eta", "1"),
            *("--n-samples", "10", "--seed", "1"),
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --manifest takes no command (got 'simulate')\n"
        assert not (tmp_path / "b").exists()

    def test_missing_file(self, tmp_path, capsys):
        code, err = self.replay(tmp_path / "absent.json", capsys)
        assert code == 1
        assert err.startswith("error:") and "absent.json" in err

    @pytest.mark.parametrize(
        "text", ["not json", "[1, 2]", '{"command": "noise", "output_dir": ".", "params": [1]}']
    )
    def test_not_a_manifest(self, text, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(text, encoding="ascii")
        code, err = self.replay(path, capsys)
        assert code == 1
        assert err.startswith("error:") and str(path) in err

    def test_command_not_a_name(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text('{"command": ["noise"], "output_dir": ".", "params": {}}', encoding="ascii")
        code, err = self.replay(path, capsys)
        assert code == 1
        assert err.startswith("error:") and "unknown command" in err

    @pytest.mark.parametrize(
        "manifest, field",
        [
            ({"command": "noise"}, "params"),
            ({"command": "noise", "params": {"state": "kind=fock n=0", "eta": "1"}}, "output_dir"),
            ({"command": "noise", "output_dir": ".", "params": {"eta": "1"}}, "state"),
            (
                {
                    "command": "simulate",
                    "output_dir": ".",
                    "params": {
                        "state": "kind=fock n=0",
                        "scheme": "direct",
                        "eta": "1",
                        "seed": 1,
                        "workers": 1,
                    },
                },
                "n_samples",
            ),
        ],
    )
    def test_missing_field(self, manifest, field, tmp_path, capsys):
        if "output_dir" in manifest:
            manifest = dict(manifest, output_dir=str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        code, err = self.replay(path, capsys)
        assert code == 1
        assert err.startswith("error:") and f"'{field}'" in err


class TestManifestParamTypes:
    BASE = {
        "simulate": {
            "state": "kind=fock n=1",
            "scheme": "direct",
            "eta": "0.5",
            "n_samples": 1000,
            "seed": 1,
            "workers": 1,
        },
        "threshold": {"etas": "1.0", "n_points": 4, "n_max": 4.0, "output": "curves.csv"},
        "discrete-random": {
            "mode": "discrete-random",
            "trials": 2,
            "seed": 7,
            "max_dim": 4,
            "max_m": 2,
        },
        "semiclassical": {
            "mode": "semiclassical",
            "alpha_re": 1.0,
            "alpha_im": 0.0,
            "phi": 0.0,
            "amplitudes": "2,4",
            "probe_trunc": 200,
        },
    }

    @pytest.mark.parametrize(
        "params, field, value",
        [
            ("simulate", "n_samples", "abc"),
            ("simulate", "n_samples", 2.5),
            ("simulate", "seed", "x1"),
            ("simulate", "workers", None),
            ("threshold", "n_points", "many"),
            ("threshold", "n_max", "nan"),
            ("discrete-random", "trials", "abc"),
            ("discrete-random", "seed", [7]),
            ("discrete-random", "max_dim", "four"),
            ("discrete-random", "max_m", 1e400),
            ("semiclassical", "phi", "abc"),
            ("semiclassical", "alpha_re", "inf"),
            ("semiclassical", "probe_trunc", "deep"),
        ],
    )
    def test_bad_value_names_the_field(self, params, field, value, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {
            "command": command,
            "output_dir": str(tmp_path),
            "params": dict(self.BASE[params], **{field: value}),
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err

    @pytest.mark.parametrize(
        "params, field",
        [
            ("simulate", "n_samples"),
            ("simulate", "seed"),
            ("threshold", "n_points"),
            ("threshold", "n_max"),
            ("discrete-random", "trials"),
            ("semiclassical", "probe_trunc"),
        ],
    )
    def test_a_bool_is_no_number(self, params, field, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {
            "command": command,
            "output_dir": str(tmp_path),
            "params": dict(self.BASE[params], **{field: True}),
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 1
        assert f"'{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, field, value",
        [("simulate", "n_samples", "1000"), ("discrete-random", "trials", "2")],
    )
    def test_numeric_text_is_no_integer(self, params, field, value, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {
            "command": command,
            "output_dir": str(tmp_path),
            "params": dict(self.BASE[params], **{field: value}),
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 1
        refusal = f"error: field '{field}' must be an integer (got '{value}')\n"
        assert capsys.readouterr().err == refusal

    @pytest.mark.parametrize("params", sorted(BASE))
    def test_good_values_run(self, params, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {"command": command, "output_dir": str(tmp_path), "params": self.BASE[params]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 0


class TestSimulateTinyEta:
    def simulate(self, tmp_path, scheme):
        return run_cli(
            "--output-dir",
            str(tmp_path),
            "simulate",
            "--state",
            "kind=coherent N=1",
            "--scheme",
            scheme,
            "--eta",
            "1e-200",
            "--n-samples",
            "1000",
            "--seed",
            "1",
        )

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne"])
    def test_overflowing_variance_is_a_numerical_failure(self, scheme, tmp_path, capsys):
        assert self.simulate(tmp_path, scheme) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure:")
        assert "sample_variance overflows at eta = 1e-200" in err
        assert not (tmp_path / "summary.json").exists()

    def test_direct_detection_runs(self, tmp_path, capsys):
        assert self.simulate(tmp_path, "direct") == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["sample_variance"] == 0.0


class TestManifestStringParams:
    BASE = dict(TestManifestParamTypes.BASE, noise={"state": "kind=fock n=1", "eta": "1"})

    @pytest.mark.parametrize(
        "params, field, value",
        [
            ("noise", "state", 5),
            ("noise", "json", 5),
            ("threshold", "output", 5),
            ("simulate", "state", ["kind=fock n=1"]),
            ("simulate", "scheme", 5),
            ("discrete-random", "mode", 5),
            ("semiclassical", "mode", "quantum"),
            ("semiclassical", "json", {"name": "out.json"}),
        ],
    )
    def test_wrong_type_names_the_field(self, params, field, value, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {
            "command": command,
            "output_dir": str(tmp_path),
            "params": dict(self.BASE[params], **{field: value}),
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err


class TestBrightStates:
    @pytest.mark.parametrize(
        "state",
        [
            "kind=coherent N=1e4",
            "kind=thermal N=1e15",
            "kind=thermal N=1e16",
            "kind=squeezed N=1e16 beta=0.5",
        ],
    )
    def test_too_bright_for_the_cap_is_a_numerical_failure(self, state, tmp_path, capsys):
        argv = ["--state", state, "--scheme", "direct", "--eta", "0.5"]
        code = run_cli(
            "--output-dir", str(tmp_path), "simulate", *argv, "--n-samples", "100", "--seed", "1"
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: distribution needs n_max")
        assert not (tmp_path / "summary.json").exists()


    def test_coherent_past_the_window_names_the_needed_n_max(self, tmp_path, capsys):
        argv = ["--state", "kind=coherent N=4500", "--scheme", "roulette", "--eta", "1"]
        code = run_cli(
            "--output-dir", str(tmp_path), "simulate", *argv, "--n-samples", "100", "--seed", "1"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: distribution needs n_max of about 4972 > 4096")


class TestMomentOverflow:
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("noise", []),
            ("simulate", ["--scheme", "roulette", "--n-samples", "100", "--seed", "1"]),
        ],
    )
    def test_overflowing_second_moment_is_a_numerical_failure(
        self, command, extra, tmp_path, capsys
    ):
        argv = [command, "--state", "kind=thermal N=1e300", "--eta", "0.5", *extra]
        assert run_cli("--output-dir", str(tmp_path), *argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: mean_nsq overflows")


# inputs for the accepted-input sweep: number fields as text, including
# non-finite, huge, subnormal and non-numeric values, and JSON values of the
# wrong type for manifest params
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 20.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324", "1e-200", "1e400", "0", "abc", ""]),
)
STATE_TEXT = st.one_of(
    st.builds("kind=coherent N={}".format, NUMBER_TEXT),
    st.builds("kind=thermal N={}".format, NUMBER_TEXT),
    st.builds(
        "kind=squeezed N={} beta={}".format,
        NUMBER_TEXT,
        st.one_of(st.floats(0.0, 1.0).map(repr), NUMBER_TEXT),
    ),
    st.builds("kind=fock n={}".format, st.one_of(NUMBER_TEXT, st.integers(-2, 5000).map(str))),
    st.builds("kind=custom weights={}".format, st.lists(NUMBER_TEXT, max_size=4).map(",".join)),
    st.sampled_from(
        [
            "",
            "N=1",
            "kind=warp N=1",
            "kind=coherent",
            "kind=coherent N=1 x=2",
            "kind=custom weights=0.25,0.5,0.25",
            "kind=custom weights=1e308,1e308",
        ]
    ),
)
ETA_TEXT = st.one_of(st.floats(0.0, 1.0, exclude_min=True).map(repr), NUMBER_TEXT)
ETAS_TEXT = st.lists(ETA_TEXT, min_size=1, max_size=3).map(",".join)
N_MAX_TEXT = st.one_of(st.floats(0.0, 50.0).map(repr), NUMBER_TEXT)
WRONG_JSON = st.one_of(
    # bounded, since in a size field a float that is a whole number is a size
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-10, 10),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({"value": 1}),
)
# a size: values beyond 400 only cost proportionally more time
N_POINTS = st.integers(-3, 400)
# naimark sizes: small ones that run in milliseconds, and ones past their bounds
TRIALS = st.one_of(st.integers(-2, 3), st.sampled_from([MAX_TRIALS + 1, 10**30]))
DIM = st.one_of(st.integers(-1, 8), st.sampled_from([MAX_DIM + 1, 200_000, 10**30]))
FAMILIES = st.one_of(st.integers(-1, 5), st.sampled_from([MAX_M + 1, 10**30]))
SEED = st.one_of(st.integers(0, 2**64), st.sampled_from([-1, 10**30]))
# amplitudes whose truncation passes MAX_TRUNC: 63.9 just, 3e4 far, |z|^2 = inf from 1e200
FAR_AMPLITUDES = ["63.9", "30000", "1e200", "1.7e308"]
ALPHA_TEXT = st.one_of(
    st.floats(-6.0, 6.0).map(repr), st.sampled_from([*FAR_AMPLITUDES, "-1e200", "nan", "abc"])
)
ALPHA_JSON = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([*map(float, FAR_AMPLITUDES), "abc"]))
AMPLITUDES_TEXT = st.lists(
    st.one_of(st.floats(0.0, 8.0).map(repr), st.sampled_from([*FAR_AMPLITUDES, "-1", "inf"])),
    max_size=3,
).map(",".join)
TRUNC = st.one_of(st.integers(-2, 80), st.sampled_from([MAX_TRUNC + 1, 100_000, 10**30]))

# simulate inputs, valid three times in four field by field, so that about
# half the runs draw: states whose tables build in milliseconds, or that fail
# to parse or truncate, and sizes from below 1 to past their bounds
def _mostly(valid, anything):
    return st.integers(0, 3).flatmap(lambda k: anything if k == 3 else valid)


SIM_NUMBER_TEXT = st.one_of(
    st.floats(0.0, 8.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324", "1e400", "0", "-1", "abc", ""]),
)
SIM_STATE_TEXT = _mostly(
    st.one_of(
        st.builds("kind=coherent N={}".format, st.floats(0.0, 8.0)),
        st.builds("kind=thermal N={}".format, st.floats(0.0, 8.0)),
        st.builds("kind=squeezed N={} beta={}".format, st.floats(0.0, 8.0), st.floats(0.0, 1.0)),
        st.builds("kind=fock n={}".format, st.integers(0, 8)),
    ),
    st.one_of(
        st.builds("kind=coherent N={}".format, SIM_NUMBER_TEXT),
        st.builds("kind=thermal N={}".format, SIM_NUMBER_TEXT),
        st.builds("kind=squeezed N={} beta={}".format, SIM_NUMBER_TEXT, SIM_NUMBER_TEXT),
        st.builds("kind=fock n={}".format, st.sampled_from(["-1", "2.5", "1e400", "abc"])),
        st.builds(
            "kind=custom weights={}".format, st.lists(SIM_NUMBER_TEXT, max_size=4).map(",".join)
        ),
    ),
)
SCHEME_TEXT = _mostly(
    st.sampled_from(["roulette", "heterodyne", "direct"]), st.sampled_from(["homodyne", ""])
)
SIM_ETA_TEXT = _mostly(st.floats(0.0, 1.0, exclude_min=True).map(repr), NUMBER_TEXT)
N_SAMPLES = _mostly(
    st.one_of(st.integers(1, 3000), st.sampled_from([montecarlo.CHUNK_SIZE + 1, 2**53])),
    st.sampled_from([-1, 0, 2**53 + 1, 10**30]),
)
SIM_SEED = _mostly(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, 10**30]))
WORKERS = _mostly(
    st.one_of(st.integers(1, 4), st.sampled_from([10**6, 2**63, 10**30])), st.sampled_from([-1, 0])
)
# real draws per process in the simulate sweep
SWEEP_DRAWS = 4096
# bright laws at the ends of their efficiency range: (state, scheme, eta)
BRIGHT_RUNS = [
    *(
        (state, scheme, eta)
        for state, etas in (
            ("kind=fock n=4096", ("1e-3", "0.999")),
            ("kind=coherent N=3400", ("0.01", "1e-12")),
            ("kind=thermal N=140", ("1", "1e-6")),
        )
        for eta in etas
        for scheme in ("roulette", "heterodyne")
    ),
    ("kind=coherent N=3400", "direct", "1e-200"),
]


def manifest_params(**fields):
    """Params drawn field by field, with at most one field given a wrong JSON value."""
    return st.tuples(
        st.fixed_dictionaries(fields), st.sampled_from([None, *fields]), WRONG_JSON
    ).map(lambda t: t[0] if t[1] is None else {**t[0], t[1]: t[2]})


def _sweep_run(command, flags, params):
    """Run one command through cli.main, from flags or (flags None) a manifest of params.

    Returns the exit code, stdout, stderr and the threshold CSV rows, if written.
    """
    with tempfile.TemporaryDirectory() as out_dir:
        if flags is None:
            manifest = Path(out_dir) / "input.json"
            manifest.write_text(
                json.dumps({"command": command, "output_dir": out_dir, "params": params}),
                encoding="ascii",
            )
            argv = ["--manifest", str(manifest)]
        else:
            argv = ["--output-dir", out_dir, command, *flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        curves = Path(out_dir) / "c.csv"
        rows = list(csv.DictReader(io.StringIO(curves.read_text()))) if curves.exists() else []
    return code, out.getvalue(), err.getvalue(), rows


def _few_draws(law, seed, n, edges, first, stop):
    """montecarlo._batch_reduction from at most SWEEP_DRAWS real draws: one row,
    scaled up to the batch's draws, stands for its chunks, so n_samples up to
    2**53 draws and allocates next to nothing.  Below SWEEP_DRAWS it is the
    real row."""
    chunk = montecarlo.CHUNK_SIZE
    draws = min(n, stop * chunk) - first * chunk
    row = montecarlo._chunk_reduction(law, seed, first, min(draws, SWEEP_DRAWS), edges)
    scale = draws / row[0]
    row[0] = draws
    row[2:] *= scale
    return [row]


def _check_contract(code, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:"), err
    elif code == 2:
        assert err.startswith("numerical failure:"), err


class TestAcceptedInputSweep:
    """Every input gives exit 0 with finite figures, or an exit 1 or 2 that says why."""

    def check_noise(self, flags, params):
        code, out, err, _ = _sweep_run("noise", flags, params)
        _check_contract(code, err)
        if code == 0:
            figures = {field.name for field in dataclasses.fields(NoiseReport)}
            values = [line.split() for line in out.splitlines()]
            found = {key: float(rest[0]) for key, *rest in values if key in figures}
            assert found.keys() == figures
            assert all(math.isfinite(value) for value in found.values()), found

    def check_threshold(self, flags, params):
        code, _, err, rows = _sweep_run("threshold", flags, params)
        _check_contract(code, err)
        if code == 0:
            assert rows
            for row in rows:
                n, beta = float(row["N"]), float(row["beta"])
                if row["converged"] == "true":
                    assert math.isfinite(n) and 0.0 <= beta <= 1.0, row
                else:
                    assert row["converged"] == "false" and math.isnan(beta), row

    @given(state=STATE_TEXT, eta=ETA_TEXT)
    @settings(max_examples=150, deadline=None)
    def test_noise_flags(self, state, eta):
        self.check_noise([f"--state={state}", f"--eta={eta}"], None)

    @given(params=manifest_params(state=STATE_TEXT, eta=ETA_TEXT))
    @settings(max_examples=100, deadline=None)
    def test_noise_manifest(self, params):
        self.check_noise(None, params)

    def check_naimark(self, flags, params):
        code, out, err, _ = _sweep_run("naimark", flags, params)
        _check_contract(code, err)
        if code == 0:
            figures = [line.split()[-1] for line in out.splitlines() if line]
            assert all(math.isfinite(float(figure)) for figure in figures), out

    @given(etas=ETAS_TEXT, n_points=N_POINTS, n_max=N_MAX_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_threshold_flags(self, etas, n_points, n_max):
        flags = [f"--etas={etas}", f"--n-points={n_points}", f"--n-max={n_max}", "--output=c.csv"]
        self.check_threshold(flags, None)

    @given(
        params=manifest_params(
            etas=ETAS_TEXT,
            n_points=st.one_of(
                N_POINTS,
                N_POINTS.map(float),
                N_POINTS.map(str),
                st.sampled_from(["abc", "2.5", "", None, [3], 2.5, math.nan, math.inf, True]),
            ),
            n_max=N_MAX_TEXT,
            output=st.just("c.csv"),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_manifest(self, params):
        self.check_threshold(None, params)

    @given(trials=TRIALS, seed=SEED, max_dim=DIM, max_m=FAMILIES)
    @settings(max_examples=60, deadline=None)
    def test_naimark_discrete_flags(self, trials, seed, max_dim, max_m):
        flags = [f"--trials={trials}", f"--seed={seed}", f"--max-dim={max_dim}"]
        self.check_naimark(["discrete-random", *flags, f"--max-m={max_m}"], None)

    @given(
        params=manifest_params(
            mode=st.just("discrete-random"), trials=TRIALS, seed=SEED, max_dim=DIM, max_m=FAMILIES
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_naimark_discrete_manifest(self, params):
        self.check_naimark(None, params)

    @given(
        alpha_re=ALPHA_TEXT,
        alpha_im=ALPHA_TEXT,
        amplitudes=AMPLITUDES_TEXT,
        truncs=st.lists(st.one_of(st.none(), TRUNC), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_naimark_semiclassical_flags(self, alpha_re, alpha_im, amplitudes, truncs):
        flags = [f"--alpha-re={alpha_re}", f"--alpha-im={alpha_im}", f"--amplitudes={amplitudes}"]
        for flag, trunc in zip(("--system-trunc", "--probe-trunc"), truncs):
            flags += [] if trunc is None else [f"{flag}={trunc}"]
        self.check_naimark(["semiclassical", *flags], None)

    @given(
        params=manifest_params(
            mode=st.just("semiclassical"),
            alpha_re=ALPHA_JSON,
            alpha_im=ALPHA_JSON,
            phi=st.floats(-10.0, 10.0),
            amplitudes=AMPLITUDES_TEXT,
            system_trunc=st.one_of(st.none(), TRUNC),
            probe_trunc=st.one_of(st.none(), TRUNC),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_naimark_semiclassical_manifest(self, params):
        self.check_naimark(None, params)

    def check_simulate(self, flags, params, requested=None):
        """Run simulate with few draws and an in-process pool; returns the exit
        code, stdout and the pool sizes asked for."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_batch_reduction", _few_draws)
            patch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
            code, out, err, _ = _sweep_run("simulate", flags, params)
        _check_contract(code, err)
        # a pool only when more than one process is worth starting, and never
        # more processes than cores or than were asked for
        for size in sizes:
            assert 1 < size <= (os.cpu_count() or 1), size
            assert requested is None or size <= int(requested), (size, requested)
        if code == 0:
            head, figures = out.split(": ", 1)
            assert int(head.rsplit("n=", 1)[1]) >= 1, out
            values = figures.replace("(", " ").replace(")", " ").replace("=", " ").split()
            found = dict(zip(values[0::2], map(float, values[1::2])))
            assert found.keys() == {"mean", "variance", "stderr"}, out
            assert all(math.isfinite(value) for value in found.values()), out
        return code, out, sizes

    @given(
        state=SIM_STATE_TEXT,
        scheme=SCHEME_TEXT,
        eta=SIM_ETA_TEXT,
        n_samples=N_SAMPLES,
        seed=SIM_SEED,
        workers=WORKERS,
    )
    @settings(max_examples=250, deadline=None)
    def test_simulate_flags(self, state, scheme, eta, n_samples, seed, workers):
        flags = [f"--state={state}", f"--scheme={scheme}", f"--eta={eta}"]
        flags += [f"--n-samples={n_samples}", f"--seed={seed}", f"--workers={workers}"]
        self.check_simulate(flags, None, requested=workers)

    @given(
        params=manifest_params(
            state=SIM_STATE_TEXT,
            scheme=SCHEME_TEXT,
            eta=SIM_ETA_TEXT,
            n_samples=st.one_of(N_SAMPLES, N_SAMPLES.map(float), N_SAMPLES.map(str)),
            seed=SIM_SEED,
            workers=st.one_of(WORKERS, WORKERS.map(str)),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_simulate_manifest(self, params):
        self.check_simulate(None, params)

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne", "direct"])
    @pytest.mark.parametrize("workers", [1, 3, 10**30])
    def test_simulate_at_the_largest_n_samples(self, scheme, workers):
        # 2**36 chunks of draws, stood for by one row per process: the run
        # merges them, sized by cores, within a few megabytes
        flags = ["--state=kind=squeezed N=2.0 beta=0.5", f"--scheme={scheme}", "--eta=0.5"]
        flags += [f"--n-samples={2**53}", "--seed=3", f"--workers={workers}"]
        tracemalloc.start()
        try:
            code, out, sizes = self.check_simulate(flags, None, requested=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, peak
        assert code == 0 and f" n={2**53}:" in out, out
        processes = min(workers, os.cpu_count() or 1)
        assert sizes == ([] if processes == 1 else [processes])

    @pytest.mark.parametrize("state, scheme, eta", BRIGHT_RUNS)
    def test_simulate_bright_law(self, state, scheme, eta):
        # the real law is built and the draws are stubbed
        flags = [f"--state={state}", f"--scheme={scheme}", f"--eta={eta}"]
        flags += ["--n-samples=1000000", "--seed=3", "--workers=1"]
        code, out, _ = self.check_simulate(flags, None)
        assert code == 0 and " n=1000000:" in out, out

    @pytest.mark.parametrize("scheme", ["roulette", "heterodyne"])
    def test_simulate_squeezed_past_the_window(self, scheme):
        flags = ["--state=kind=squeezed N=200 beta=0.9", f"--scheme={scheme}", "--eta=0.5"]
        code, out, err, _ = _sweep_run("simulate", [*flags, "--n-samples=1000", "--seed=3"], None)
        assert code == 2 and out == "", out
        assert err.startswith("numerical failure: distribution needs n_max of about 9657"), err


class TestSizeBounds:
    """Sizes past their bound exit 1 naming the field, before anything is allocated or drawn."""

    def replay(self, command, params, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = {"command": command, "output_dir": str(tmp_path), "params": params}
        path.write_text(json.dumps(manifest), encoding="ascii")
        return run_cli("--manifest", str(path))

    @pytest.mark.parametrize("n_points", [1e308, 1112642225.0])
    def test_huge_manifest_n_points(self, n_points, tmp_path, capsys):
        params = dict(TestManifestParamTypes.BASE["threshold"], n_points=n_points)
        assert self.replay("threshold", params, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_points" in err and str(MAX_POINTS) in err
        assert not (tmp_path / "curves.csv").exists()

    def test_n_points_one_past_the_bound(self, tmp_path, capsys):
        argv = ["--output-dir", str(tmp_path), "threshold", "--n-points", str(MAX_POINTS + 1)]
        assert run_cli(*argv) == 1
        assert "n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("n_samples", [10**30, 2**53 + 1])
    def test_huge_n_samples(self, n_samples, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(montecarlo, "_chunk_reduction", no_draws)
        argv = ["--output-dir", str(tmp_path), "simulate", "--state", "kind=fock n=1"]
        argv += ["--scheme", "direct", "--eta", "0.5", "--n-samples", str(n_samples)]
        assert run_cli(*argv, "--seed", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_samples" in err and "2**53" in err
        params = dict(TestManifestParamTypes.BASE["simulate"], n_samples=n_samples)
        assert self.replay("simulate", params, tmp_path) == 1
        assert "n_samples" in capsys.readouterr().err

    def run_traced(self, *argv):
        """run_cli, and the peak of what it allocated through Python and numpy."""
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, peak
        return code

    @pytest.mark.parametrize(
        "argv, field, bound",
        [
            (("discrete-random", "--trials", str(MAX_TRIALS + 1)), "trials", MAX_TRIALS),
            (("discrete-random", "--max-dim", str(MAX_DIM + 1)), "max_dim", MAX_DIM),
            (("discrete-random", "--max-m", str(MAX_M + 1)), "max_m", MAX_M),
            (("semiclassical", "--system-trunc", str(MAX_TRUNC + 1)), "system_trunc", MAX_TRUNC),
            (("semiclassical", "--probe-trunc", str(MAX_TRUNC + 1)), "probe_trunc", MAX_TRUNC),
            (("discrete-random", "--max-dim", "200000"), "max_dim", MAX_DIM),
            (("semiclassical", "--system-trunc", "100000"), "system_trunc", MAX_TRUNC),
        ],
    )
    def test_naimark_size_past_the_bound(self, argv, field, bound, capsys):
        assert self.run_traced("naimark", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err and str(bound) in err

    @pytest.mark.parametrize(
        "argv, field, needed",
        [
            (("--alpha-re", "63.9"), "system_trunc", "4870"),
            (("--alpha-re", "30000"), "system_trunc", "900360020"),
            (("--alpha-re", "1e200"), "system_trunc", "inf"),
            (("--alpha-re", "1.7e308", "--alpha-im", "1.7e308"), "system_trunc", "inf"),
            (("--amplitudes", "2,1e200"), "probe_trunc", "inf"),
        ],
    )
    def test_naimark_truncation_past_the_bound(self, argv, field, needed, capsys):
        assert self.run_traced("naimark", "semiclassical", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {field} of about {needed} is needed")
        assert str(MAX_TRUNC) in err

    def test_custom_weights_past_the_cap(self, tmp_path, capsys):
        weights = ",".join(["0"] * (HARD_CAP + 1) + ["1"])
        state = f"kind=custom weights={weights}"
        params = dict(TestManifestParamTypes.BASE["simulate"], state=state)
        assert self.replay("simulate", params, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: custom state needs n_max={HARD_CAP + 1}")
        assert not (tmp_path / "summary.json").exists()
