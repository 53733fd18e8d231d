"""End-to-end command tests: files, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import periodicgp
from periodicgp import bridge, dft, fit, spectral, synthesis
from periodicgp.cli import main
from periodicgp.core import (
    ParametricModel,
    PathEnsemble,
    SpectralCoefficients,
    read_paths_csv,
    write_coefficients,
    write_paths_csv,
)
from periodicgp.regularity import estimate_holder


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_param_ensemble_reproducible_bit_exactly(self, tmp_path):
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("simulate", "--model", "param", "--a", 1, "--p", 1,
                       "--n", 1024, "--paths", 4, "--seed", 7, "--out", out) == 0
        a, b = (tmp_path / s for s in ("a", "b"))
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()
        header = a.with_suffix(".csv").read_text().splitlines()[0]
        assert header == "t,x0,x1,x2,x3"

    def test_bridge_ensemble_variance_near_one_sixth(self, tmp_path):
        out = tmp_path / "brg"
        assert run("simulate", "--model", "bridge:centered-shift", "--n", 4096,
                   "--paths", 100, "--seed", 2, "--out", out) == 0
        _, values = read_paths_csv(out.with_suffix(".csv"))
        assert values.shape == (100, 4096)
        assert abs(values.var() - 1 / 6) < 0.04
        meta = json.loads((tmp_path / "brg.meta.json").read_text())
        assert meta["seed"] == 2 and meta["variant"] == "centered-shift"

    def test_small_p_is_a_usage_error(self, tmp_path, capsys):
        rc = run("simulate", "--model", "param", "--a", 1, "--p", 0.4,
                 "--n", 64, "--out", tmp_path / "x")
        assert rc == 2
        assert "p must exceed 1/2" in capsys.readouterr().err

    def test_explicit_overlarge_truncation_aliases(self, tmp_path, capsys):
        rc = run("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                 "--n", 1024, "--trunc", 600, "--seed", 0, "--out", tmp_path / "x")
        assert rc == 3
        assert "alias" in capsys.readouterr().err

    def test_coeffs_model_reads_file(self, tmp_path):
        cfile = tmp_path / "c.json"
        write_coefficients(SpectralCoefficients(0.0, (1.0, 0.5)), cfile)
        out = tmp_path / "sim"
        assert run("simulate", "--model", "coeffs", "--coeffs", cfile,
                   "--n", 64, "--paths", 2, "--seed", 3, "--out", out) == 0
        _, values = read_paths_csv(out.with_suffix(".csv"))
        assert values.shape == (2, 64)

    def test_missing_seed_is_drawn_and_printed(self, tmp_path, capsys):
        out = tmp_path / "drawn"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.2,
                   "--n", 64, "--out", out) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert line.startswith("seed ")
        seed = int(line.split()[1])
        rerun = tmp_path / "rerun"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.2,
                   "--n", 64, "--seed", seed, "--out", rerun) == 0
        assert (out.with_suffix(".csv").read_bytes()
                == rerun.with_suffix(".csv").read_bytes())

    def test_bridge_rejects_eps(self, tmp_path, capsys):
        out = tmp_path / "brg"
        rc = run("simulate", "--model", "bridge:plain", "--n", 64, "--eps", 1e-3,
                 "--seed", 0, "--out", out)
        assert rc == 2
        assert "--eps" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_bridge_meta_records_resolved_truncation(self, tmp_path):
        for name, trunc, want in (("plain", None, 32), ("centered-shift", None, 32),
                                  ("centralized", 16, 16), ("centered-series", None, 31)):
            out = tmp_path / name
            flags = () if trunc is None else ("--trunc", trunc)
            assert run("simulate", "--model", f"bridge:{name}", "--n", 64,
                       "--seed", 1, *flags, "--out", out) == 0
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            assert meta["truncation"] == want, name


class TestTransform:
    def test_bridge_table_to_coefficients(self, tmp_path):
        gfile = tmp_path / "bridge.csv"
        spectral.write_covariogram_csv(bridge.centered_bridge_covariogram(),
                                       gfile, n=4096)
        out = tmp_path / "coef.json"
        assert run("transform", "--direction", "g2c", "--in", gfile,
                   "--out", out, "--K", 32) == 0
        got = json.loads(out.read_text())
        assert got["c0"] ** 2 == pytest.approx(1 / 12, abs=1e-7)
        for k in range(1, 9):
            assert got["c"][k - 1] ** 2 == pytest.approx(
                1 / (2 * math.pi * k) ** 2, abs=1e-7)

    def test_round_trip_check_residual_small(self, tmp_path):
        cfile = tmp_path / "c.json"
        write_coefficients(SpectralCoefficients(1.0, (0.5, 0.25, 0.125)), cfile)
        out = tmp_path / "g.csv"
        assert run("transform", "--direction", "c2g", "--in", cfile,
                   "--out", out, "--grid", 1024, "--check") == 0
        check = json.loads((tmp_path / "g.csv.check.json").read_text())
        assert check["round_trip_residual"] < 1e-8

    def test_asymmetric_table_is_a_spectrum_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        n = 8
        rows = ["delta,value"]
        vals = [1.0, 0.5, 0.2, 0.1, 0.0, 0.1, 0.2, 0.4]  # 0.4 breaks symmetry
        for j in range(n):
            rows.append(f"{j / n},{vals[j]}")
        bad.write_text("\n".join(rows) + "\n")
        rc = run("transform", "--direction", "g2c", "--in", bad,
                 "--out", tmp_path / "c.json")
        assert rc == 4
        assert "asymmetric" in capsys.readouterr().err


    @pytest.mark.parametrize("tail", [{"q": 2}, 3])
    def test_malformed_tail_is_a_usage_error(self, tmp_path, capsys, tail):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"c0": 1.0, "c": [0.5], "tail": tail}))
        rc = run("transform", "--direction", "c2g", "--in", cfile,
                 "--grid", 64, "--out", tmp_path / "g.csv")
        assert rc == 2
        assert "malformed coefficient file" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_recovers_its_own_simulation(self, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 2.1,
                   "--n", 1024, "--paths", 1, "--seed", 7, "--out", sim) == 0
        out = tmp_path / "fit"
        assert run("fit", "--in", sim.with_suffix(".csv"), "--out", out) == 0
        rep = json.loads(out.with_suffix(".json").read_text())
        assert 1.9 <= rep["fit"]["p_hat"] <= 2.3
        assert rep["goodness"]["residual_mean"] == pytest.approx(1.0, abs=1e-9)
        lines = (tmp_path / "fit.residuals.csv").read_text().splitlines()
        assert lines[0] == "k,sin,cos,residual"
        assert len(lines) == 1 + rep["fit"]["K_used"]

    def test_path_is_analyzed_twice(self, tmp_path, monkeypatch):
        # once inside fit_mle, once for the residuals and the CSV columns
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                   "--n", 256, "--paths", 1, "--seed", 7, "--out", sim) == 0
        calls = []
        analyze = dft.analyze
        monkeypatch.setattr(dft, "analyze", lambda path: calls.append(1) or analyze(path))
        assert run("fit", "--in", sim.with_suffix(".csv"), "--out", tmp_path / "fit") == 0
        assert len(calls) == 2

    def test_constant_path_reports_degenerate_data(self, tmp_path, capsys):
        f = tmp_path / "const.csv"
        rows = ["t,x"] + [f"{j / 64},2.0" for j in range(64)]
        f.write_text("\n".join(rows) + "\n")
        rc = run("fit", "--in", f, "--out", tmp_path / "fit")
        assert rc == 5
        assert "degenerate" in capsys.readouterr().err


class TestRegularityCommand:
    def test_bridge_coefficients_report(self, tmp_path):
        out = tmp_path / "reg.json"
        assert run("regularity", "--coeffs", "bridge", "--out", out) == 0
        rep = json.loads(out.read_text())
        assert rep["m"] == 0
        assert rep["holder_bound"] == pytest.approx(0.5, abs=1e-9)
        assert rep["q"] == pytest.approx(2.0, abs=1e-9)

    def test_ensemble_holder_estimate(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--model", "param", "--a", 1, "--p", 1.0,
            "--n", 1024, "--paths", 50, "--seed", 14, "--out", sim)
        out = tmp_path / "hold.json"
        assert run("regularity", "--in", sim.with_suffix(".csv"), "--out", out) == 0
        rep = json.loads(out.read_text())
        assert 0.3 < rep["holder_estimate"] < 0.7


class TestBridgeCheckCommand:
    def test_small_scale_report(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run("bridge-check", "--R", 2000, "--n", 256, "--seed", 0,
                   "--terms", 1000000, "--out", out) == 0
        text = capsys.readouterr().out
        assert text.count("PASS") >= 4
        rep = json.loads(out.read_text())
        for entry in rep["identity"]:
            assert entry["gap"] < 1e-6

    def test_single_replicate_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run("bridge-check", "--R", 1, "--n", 64, "--out", out) == 2
        err = capsys.readouterr().err
        assert "R >= 2" in err and "Warning" not in err
        assert not out.exists()


class TestBadInput:
    # each ends in exit 2 with a message: no traceback, no output file
    CASES = {
        "coefficient-not-a-number": (("simulate", "--model", "coeffs", "--coeffs", "{coeffs}",
                                      "--n", 64, "--seed", 0), "malformed coefficient file"),
        "simulate-a-squared-overflows": (("simulate", "--model", "param", "--a", 1e300,
                                          "--p", 1.5, "--n", 64, "--seed", 0), "finite square"),
        "sweep-a-squared-overflows": (("sweep", "--p-list", "1.5", "--a", 1e300, "--n", 64,
                                       "--seed", 0), "finite square"),
        "fit-p-max-inf": (("fit", "--in", "{path}", "--p-max", "inf"), "p bounds"),
        "bridge-check-n1": (("bridge-check", "--R", 10, "--n", 1), "n >= 16"),
        "bridge-check-n2": (("bridge-check", "--R", 10, "--n", 2), "n >= 16"),
        "bridge-check-n4": (("bridge-check", "--R", 10, "--n", 4), "n >= 16"),
        "bridge-check-n8": (("bridge-check", "--R", 10, "--n", 8), "n >= 16"),
        "plain-bridge-n1": (("simulate", "--model", "bridge:plain", "--n", 1, "--seed", 0),
                            "n >= 4"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_with_a_message(self, case, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"c0": 1, "c": [{"a": 1}]}))
        path = tmp_path / "path.csv"
        write_paths_csv(np.sin(2 * np.pi * np.arange(64) / 64), path)
        out = tmp_path / "out"
        out.mkdir()
        argv, message = self.CASES[case]
        argv = [str(a).format(coeffs=coeffs, path=path) for a in argv]
        assert run(*argv, "--out", out / "x") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "Warning" not in err
        assert not any(out.iterdir())


class TestHeaderOnlyInput:
    @pytest.mark.parametrize("command, text", [
        (("fit",), "t,x\n"),
        (("regularity",), "t,x0,x1\n\n"),
        (("transform", "--direction", "g2c"), "delta,value\n"),
        (("transform", "--direction", "g2c"), "delta,value\n\n# no rows\n"),
    ])
    def test_no_data_rows_is_a_usage_error(self, tmp_path, capsys, command, text):
        f = tmp_path / "empty.csv"
        f.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*command, "--in", f, "--out", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "no data rows" in err and "Warning" not in err
        assert not caught


class TestSweep:
    def test_order_independent_bytes(self, tmp_path):
        up, down = tmp_path / "up", tmp_path / "down"
        run("sweep", "--p-list", "1,1.6,2.1,3.1", "--a", 1, "--n", 256,
            "--seed", 11, "--out", up)
        run("sweep", "--p-list", "3.1,1,2.1,1.6", "--a", 1, "--n", 256,
            "--seed", 11, "--out", down)
        assert up.with_suffix(".csv").read_bytes() == down.with_suffix(".csv").read_bytes()
        header = up.with_suffix(".csv").read_text().splitlines()[0]
        assert header == "t,x_p1,x_p1.6,x_p2.1,x_p3.1"

    def test_single_entry_matches_simulate(self, tmp_path):
        sw = tmp_path / "sw"
        sim = tmp_path / "sim"
        run("sweep", "--p-list", "2.1", "--a", 1, "--n", 128, "--seed", 4,
            "--trunc", 63, "--out", sw)
        run("simulate", "--model", "param", "--a", 1, "--p", 2.1, "--n", 128,
            "--trunc", 63, "--seed", 4, "--paths", 1, "--out", sim)
        _, a = read_paths_csv(sw.with_suffix(".csv"))
        _, b = read_paths_csv(sim.with_suffix(".csv"))
        assert np.array_equal(a, b)

    def test_smoothness_increases_along_the_list(self, tmp_path):
        out = tmp_path / "sweep"
        run("sweep", "--p-list", "1,1.6,2.1,3.1", "--a", 1, "--n", 4096,
            "--seed", 11, "--out", out)
        _, values = read_paths_csv(out.with_suffix(".csv"))
        estimates = [
            estimate_holder(PathEnsemble(4096, values[i][None, :].copy(), 11)).exponent
            for i in range(4)
        ]
        assert all(a <= b for a, b in zip(estimates, estimates[1:]))

    def test_bad_list_rejected(self, tmp_path, capsys):
        rc = run("sweep", "--p-list", "1,zebra", "--a", 1, "--n", 64,
                 "--seed", 0, "--out", tmp_path / "x")
        assert rc == 2
        assert "comma-separated" in capsys.readouterr().err


class TestEpsBudget:
    # relative tail energy of a/k^p beyond K is ~K^(1-2p), so p = 0.6 needs a
    # K far beyond n/2 - 1 for eps = 1e-4 while p = 3 meets it at K = 5
    COMMANDS = {
        "simulate": ("simulate", "--model", "param", "--a", 1, "--p", "{p}"),
        "sweep": ("sweep", "--p-list", "3,{p}", "--a", 1),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unmet_budget_is_an_aliasing_error(self, command, tmp_path, capsys):
        out = tmp_path / "x"
        argv = [str(a).format(p=0.6) for a in self.COMMANDS[command]]
        rc = run(*argv, "--n", 64, "--eps", 1e-4, "--seed", 0, "--out", out)
        assert rc == 3
        need = synthesis.truncation_index(
            fit.model_coefficients(ParametricModel(1.0, 0.6), 1), 1e-4)
        assert need > 31
        err = capsys.readouterr().err
        assert f"K={need}" in err and "n=64" in err
        assert not out.with_suffix(".csv").exists()
        assert not out.with_suffix(".meta.json").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_met_budget_records_its_truncation(self, command, tmp_path):
        out = tmp_path / "x"
        argv = [str(a).format(p=3) for a in self.COMMANDS[command]]
        assert run(*argv, "--n", 64, "--eps", 1e-4, "--seed", 0, "--out", out) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["eps"] == 1e-4
        assert meta["truncation"] == synthesis.truncation_index(
            fit.model_coefficients(ParametricModel(1.0, 3.0), 1), 1e-4) == 5


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the CLI's start-up time; only the fit diagnostics need it
    src = Path(periodicgp.__file__).resolve().parents[1]
    code = "import sys, periodicgp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model"])  # missing value
    assert exc.value.code == 2
