import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qroulette
from qroulette.cli import main, parse_state
from qroulette.errors import ValidationError
from qroulette.noise import zero_line
from qroulette.states import StateSpec


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

    def test_corrupted_family_fails(self, capsys):
        code = run_cli("naimark", "discrete-random", "--trials", "2", "--corrupt")
        assert code == 1

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


class TestManifestReplayErrors:
    def replay(self, path, capsys):
        code = run_cli("--manifest", str(path))
        return code, capsys.readouterr().err

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

    @pytest.mark.parametrize("params", sorted(BASE))
    def test_good_values_run(self, params, tmp_path, capsys):
        command = "naimark" if params in ("discrete-random", "semiclassical") else params
        manifest = {"command": command, "output_dir": str(tmp_path), "params": self.BASE[params]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="ascii")
        assert run_cli("--manifest", str(path)) == 0
