"""End-to-end command tests: files, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import periodicgp
from periodicgp import bridge, dft, fit, spectral, synthesis
from periodicgp.cli import build_parser, main
from periodicgp.core import (
    Covariogram,
    GridPath,
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

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [("simulate", "--model", "param", "--a", 1, "--p"),
                                      ("sweep", "--p-list")], ids=["simulate", "sweep"])
    def test_non_finite_p_is_a_usage_error(self, tmp_path, capsys, argv, value):
        p = value if argv[0] == "simulate" else f"1,{value}"
        assert run(*argv, p, "--n", 64, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.endswith(
            "p must exceed 1/2 and be finite for square-summable coefficients, "
            f"got {value}\n")
        assert not any(tmp_path.iterdir())

    def test_amplitude_four_writes_four_times_the_cells(self, tmp_path):
        # c_k = a / k^p scales exactly by a power of two, and so does every path
        for a in (1, 4):
            assert run("simulate", "--model", "param", "--a", a, "--p", 1.3, "--n", 256,
                       "--paths", 3, "--seed", 11, "--out", tmp_path / f"a{a}") == 0
        t1, x1 = read_paths_csv(tmp_path / "a1.csv")
        t4, x4 = read_paths_csv(tmp_path / "a4.csv")
        assert t4.tobytes() == t1.tobytes()
        assert x4.tobytes() == (4.0 * x1).tobytes()

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
        spectral.write_covariogram_csv(bridge.centered_bridge_covariogram(4096), gfile)
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

    @pytest.mark.parametrize("values, message", [
        ([1.0, 0.5, 0.2, 0.1, 0.0, 0.1, 0.2, 0.4],
         "asymmetric covariogram: C(d) must equal C(1-d)"),
        ([0.5, 1.0, 0.2, 1.0], "covariogram maximum must sit at lag zero"),
    ], ids=["asymmetric", "maximum-off-lag-zero"])
    def test_table_refusal_names_the_file(self, tmp_path, capsys, values, message):
        f = tmp_path / "g.csv"
        f.write_text("delta,value\n" + "".join(
            f"{j / len(values)},{v}\n" for j, v in enumerate(values)))
        assert run("transform", "--direction", "g2c", "--in", f,
                   "--out", tmp_path / "c.json") == 4
        assert f"error: {f}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_negative_mass_above_K_is_a_spectrum_error(self, tmp_path, capsys):
        # symmetric and lag-zero dominant; the default K is 1, the mass at harmonic 2 -0.225
        f = tmp_path / "g.csv"
        f.write_text("delta,value\n0,1\n0.25,0.5\n0.5,-0.9\n0.75,0.5\n")
        assert run("transform", "--direction", "g2c", "--in", f,
                   "--out", tmp_path / "c.json") == 4
        assert capsys.readouterr().err == (
            "error: input is not positive semidefinite: cosine mass -2.250e-01 at harmonic 2\n")
        assert not (tmp_path / "c.json").exists()

    def test_all_zero_spectrum_checks_with_zero_residual(self, tmp_path, capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"c0": 0, "c": [0, 0, 0]}))
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("transform", "--direction", "c2g", "--in", cfile,
                       "--out", out, "--grid", 64, "--check") == 0
        check = json.loads((tmp_path / "g.csv.check.json").read_text())
        assert check["round_trip_residual"] == 0.0
        assert capsys.readouterr().err == ""

    def test_huge_covariogram_checks_without_overflow(self, tmp_path, capsys):
        # ||C|| of 64 values of 1e300 overflows; the residual is taken on scaled vectors
        gfile = tmp_path / "g.csv"
        spectral.write_covariogram_csv(Covariogram(np.full(64, 1e300)), gfile)
        out = tmp_path / "c.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("transform", "--direction", "g2c", "--in", gfile, "--out", out,
                       "--check") == 0
        residual = json.loads((tmp_path / "c.json.check.json").read_text())["round_trip_residual"]
        assert math.isfinite(residual) and residual < 1e-12
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("j", [-30, -3, 5, 20])
    def test_coefficients_times_two_to_the_j_give_the_table_times_four_to_the_j(
            self, tmp_path, j):
        # C is quadratic in c, and a power-of-two scale rounds nothing on the way
        rng = np.random.default_rng(j + 100)
        for i in range(4):
            c0, *c = np.abs(rng.standard_normal(1 + 8 * (i + 1)))
            tables = []
            for s in (0, j):
                cfile, gfile = tmp_path / f"c{i}_{s}.json", tmp_path / f"g{i}_{s}.csv"
                write_coefficients(SpectralCoefficients(math.ldexp(c0, s),
                                                        tuple(np.ldexp(c, s))), cfile)
                assert run("transform", "--direction", "c2g", "--in", cfile,
                           "--grid", 128, "--out", gfile) == 0
                tables.append(spectral.read_covariogram_csv(gfile).values)
            assert tables[1].tobytes() == np.ldexp(tables[0], 2 * j).tobytes()

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

    def test_path_is_analyzed_once(self, tmp_path, monkeypatch):
        # fit_mle's analysis also gives the residuals and the CSV columns
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                   "--n", 256, "--paths", 1, "--seed", 7, "--out", sim) == 0
        calls = []
        analyze = dft.analyze
        monkeypatch.setattr(dft, "analyze", lambda path: calls.append(1) or analyze(path))
        assert run("fit", "--in", sim.with_suffix(".csv"), "--out", tmp_path / "fit") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("p_max", [1e30, 1e40, 1e300])
    def test_pure_tone_under_a_huge_p_max_converges(self, p_max, tmp_path):
        # the rounding-level harmonics of a 64-point tone put the root of g' at p = 13.85
        tone = tmp_path / "tone.csv"
        write_paths_csv(np.sin(2 * np.pi * np.arange(64) / 64), tone)
        out = tmp_path / "fit"
        assert run("fit", "--in", tone, "--p-max", p_max, "--out", out) == 0
        rep = json.loads(out.with_suffix(".json").read_text())["fit"]
        assert rep["convergence"]["converged"] and rep["convergence"]["flag"] == "interior"
        assert rep["p_hat"] == pytest.approx(13.8533, abs=1e-4)
        assert rep["p_bounds"] == [0.55, p_max]

    def test_solve_stopped_far_out_is_refused(self, tmp_path, monkeypatch, capsys):
        # three g' evaluations leave the tone's solve at p ~ 3e12, where a^2(p) overflows
        monkeypatch.setattr(fit, "_MAX_SLOPE_EVALUATIONS", 3)
        tone = tmp_path / "tone.csv"
        write_paths_csv(np.sin(2 * np.pi * np.arange(64) / 64), tone)
        out = tmp_path / "out"
        out.mkdir()
        assert run("fit", "--in", tone, "--p-max", 1e40, "--out", out / "fit") == 2
        err = capsys.readouterr().err
        assert "narrow the p bounds" in err and "Traceback" not in err
        assert not any(out.iterdir())

    def test_constant_path_reports_degenerate_data(self, tmp_path, capsys):
        f = tmp_path / "const.csv"
        rows = ["t,x"] + [f"{j / 64},2.0" for j in range(64)]
        f.write_text("\n".join(rows) + "\n")
        rc = run("fit", "--in", f, "--out", tmp_path / "fit")
        assert rc == 5
        assert "degenerate" in capsys.readouterr().err


class TestFitReadsOneColumn:
    """fit converts only t and --column, after checking every row's field count."""

    @staticmethod
    def _wide(tmp_path):
        """Rows of a four-path CSV with a comment line, a blank line and a trailing comment."""
        sim = tmp_path / "sim"
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.5, "--n", 64,
                   "--paths", 4, "--seed", 3, "--out", sim) == 0
        lines = sim.with_suffix(".csv").read_text().splitlines(keepends=True)
        lines[1:1] = ["# four replicates\n"]
        lines[20:20] = ["\n"]
        lines[30] = lines[30].rstrip("\n") + " # note, with a comma\n"
        return lines

    @staticmethod
    def _fit(tmp_path, name, lines, column):
        """fit's exit code and output bytes (None if it wrote none) for the given rows."""
        f = tmp_path / f"{name}.csv"
        f.write_text("".join(lines))
        out = tmp_path / name
        code = run("fit", "--in", f, "--column", column, "--out", out)
        files = (out.with_suffix(".json"), tmp_path / f"{name}.residuals.csv")
        return code, [p.read_bytes() if p.exists() else None for p in files]

    @staticmethod
    def _cells(line):
        return line.partition("#")[0].strip().split(",")

    def test_each_column_fits_as_a_two_column_file(self, tmp_path):
        lines = self._wide(tmp_path)
        rows = [self._cells(x) for x in lines[1:] if self._cells(x) != [""]]
        for c in range(4):
            narrow = ["t,x\n"] + [f"{r[0]},{r[c + 1]}\n" for r in rows]
            code, wide_out = self._fit(tmp_path, f"wide{c}", lines, c)
            assert code == 0
            assert (0, wide_out) == self._fit(tmp_path, f"narrow{c}", narrow, 0)

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_a_row_of_another_width_exits_two_naming_the_file(self, tmp_path, capsys,
                                                             column, change):
        lines = self._wide(tmp_path)
        cells = self._cells(lines[40])
        lines[40] = ",".join(cells[:-1] if change == "short" else cells + ["0"]) + "\n"
        assert self._fit(tmp_path, "ragged", lines, column) == (2, [None, None])
        err = capsys.readouterr().err
        assert f"{tmp_path / 'ragged.csv'}: line 41 has" in err

    def test_non_numeric_cell_stops_only_the_fit_of_its_column(self, tmp_path, capsys):
        lines = self._wide(tmp_path)
        clean = [self._fit(tmp_path, f"clean{c}", lines, c) for c in range(4)]
        assert [code for code, _ in clean] == [0] * 4
        cells = self._cells(lines[40])
        cells[3] = "abc"  # value column 2
        lines[40] = ",".join(cells) + "\n"
        for c in range(4):
            expected = (2, [None, None]) if c == 2 else clean[c]
            assert self._fit(tmp_path, f"bad{c}", lines, c) == expected
        assert "abc" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_reads_a_column_from_a_pipe(self, tmp_path):
        lines = self._wide(tmp_path)
        code, expected = self._fit(tmp_path, "file", lines, 2)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("".join(lines),),
                                  daemon=True)  # never blocks the test run on a failed read
        writer.start()
        assert run("fit", "--in", fifo, "--column", 2, "--out", tmp_path / "pipe") == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 0
        assert [(tmp_path / f).read_bytes() for f in ("pipe.json", "pipe.residuals.csv")] \
            == expected

    @pytest.mark.parametrize("column", [4, -1])
    def test_out_of_range_column_keeps_its_message(self, tmp_path, capsys, column):
        assert self._fit(tmp_path, "wide", self._wide(tmp_path), column) == (2, [None, None])
        err = capsys.readouterr().err
        assert f"column {column} out of range, file has 4" in err
        assert f"{tmp_path / 'wide.csv'}: column" in err


class TestFitReadsOneColumnOfAWideTable:
    """On a 100-path table, fit hands loadtxt only the leading fields of each row where that
    pays; its outputs and messages stay those of a whole-row read."""

    _fit = staticmethod(TestFitReadsOneColumn._fit)

    @staticmethod
    def _wide(tmp_path):
        """Rows of a 100-path CSV with a comment line and a blank line before the data."""
        f = tmp_path / "sim.csv"
        write_paths_csv(np.random.default_rng(6).standard_normal((100, 64)), f)
        lines = f.read_text().splitlines(keepends=True)
        lines[1:1] = ["# one hundred paths\n", "\n"]
        return lines

    @staticmethod
    def _set(lines, line, field, text):
        """The rows with field `field` of file line `line` replaced by `text`."""
        cells = lines[line - 1].rstrip("\n").split(",")
        cells[field] = text
        return [*lines[:line - 1], ",".join(cells) + "\n", *lines[line:]]

    @pytest.mark.parametrize("column", [0, 3, 49, 98])
    def test_non_numeric_cells_beside_the_fitted_column_do_not_stop_it(self, tmp_path,
                                                                        column):
        lines = self._wide(tmp_path)
        code, clean = self._fit(tmp_path, "clean", lines, column)
        for other in {max(column - 1, 0), column + 1, 99} - {column}:
            lines = self._set(lines, 41, other + 1, "abc")
        assert code == 0 and self._fit(tmp_path, "dirty", lines, column) == (0, clean)

    @pytest.mark.parametrize("column", [0, 99])
    def test_a_note_straight_after_the_last_cell_is_cut(self, tmp_path, column):
        lines = self._wide(tmp_path)
        code, clean = self._fit(tmp_path, "clean", lines, column)
        lines[40] = lines[40].rstrip("\n") + "# note, with a comma\n"
        assert code == 0 and self._fit(tmp_path, "noted", lines, column) == (0, clean)

    @pytest.mark.parametrize("column", [0, 49])
    def test_a_short_row_exits_two_naming_its_line(self, tmp_path, capsys, column):
        lines = self._wide(tmp_path)
        lines[40] = ",".join(lines[40].split(",")[:30]) + "\n"
        assert self._fit(tmp_path, "short", lines, column) == (2, [None, None])
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'short.csv'}: line 41 has 30 fields, the header 101" in err

    @pytest.mark.parametrize("column", [0, 3, 26, 49, 99])
    def test_a_bad_fitted_cell_keeps_loadtxts_row_and_column(self, tmp_path, capsys, column):
        lines = self._set(self._wide(tmp_path), 41, column + 1, "abc")
        assert self._fit(tmp_path, "bad", lines, column) == (2, [None, None])
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad.csv'}: could not convert string 'abc' to float64 at "
            f"row 37, column {column + 2}. (the first data row is line 4)\n")


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
        # 2a^2 overflows although a^2 does not: the stored mass of c_1 = a
        "simulate-a-mass-overflows": (("simulate", "--model", "param", "--a", 1e154,
                                       "--p", 1.5, "--n", 64, "--seed", 0), "finite square"),
        "sweep-a-mass-overflows": (("sweep", "--p-list", "1.5", "--a", 1e154, "--n", 64,
                                    "--seed", 0), "finite square"),
        "simulate-a-squared-underflows": (("simulate", "--model", "param", "--a", 1e-200,
                                           "--p", 1.5, "--n", 64, "--seed", 0, "--eps", 1e-3),
                                          "finite square"),
        "simulate-a-squared-subnormal": (("simulate", "--model", "param", "--a", 1e-160,
                                          "--p", 1.5, "--n", 64, "--seed", 0, "--eps", 1e-3),
                                         "finite square"),
        "sweep-a-squared-underflows": (("sweep", "--p-list", "1.5", "--a", 1e-200, "--n", 64,
                                        "--seed", 0), "finite square"),
        "sweep-a-squared-subnormal": (("sweep", "--p-list", "1.5", "--a", 1e-160, "--n", 64,
                                       "--seed", 0, "--eps", 1e-3), "finite square"),
        "simulate-eps-and-trunc": (("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                                    "--n", 64, "--seed", 0, "--eps", 1e-3, "--trunc", 10),
                                   "at most one of --eps or --trunc"),
        "sweep-eps-and-trunc": (("sweep", "--p-list", "1.5", "--a", 1, "--n", 64, "--seed", 0,
                                 "--eps", 1e-3, "--trunc", 10), "at most one of --eps or --trunc"),
        "fit-p-max-inf": (("fit", "--in", "{path}", "--p-max", "inf"), "p bounds"),
        "bridge-check-m0": (("bridge-check", "--R", 2, "--n", 16, "--M", 0), "M >= 1"),
        "bridge-check-n1": (("bridge-check", "--R", 10, "--n", 1), "n >= 16"),
        "bridge-check-n2": (("bridge-check", "--R", 10, "--n", 2), "n >= 16"),
        "bridge-check-n4": (("bridge-check", "--R", 10, "--n", 4), "n >= 16"),
        "bridge-check-n8": (("bridge-check", "--R", 10, "--n", 8), "n >= 16"),
        "plain-bridge-n1": (("simulate", "--model", "bridge:plain", "--n", 1, "--seed", 0),
                            "n >= 4"),
        # the grid is checked before the ensemble is cut into chunks of rows
        "simulate-param-n0": (("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                               "--n", 0, "--seed", 0), "n >= 4"),
        "simulate-bridge-n0": (("simulate", "--model", "bridge:plain", "--n", 0, "--seed", 0),
                               "n >= 4"),
        "simulate-series-bridge-n0": (("simulate", "--model", "bridge:centered-series",
                                       "--n", 0, "--seed", 0), "n >= 4"),
        "simulate-eps-n0": (("simulate", "--model", "param", "--a", 1, "--p", 1.5, "--n", 0,
                             "--eps", 1e-3, "--seed", 0), "n >= 4"),
        "simulate-paths-0": (("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                              "--n", 64, "--paths", 0, "--seed", 0),
                             "error: need at least one replicate"),
        "simulate-bridge-paths-0": (("simulate", "--model", "bridge:plain", "--n", 64,
                                     "--paths", 0, "--seed", 0),
                                    "error: need at least one replicate"),
        "regularity-coeffs-k-min-0": (("regularity", "--coeffs", "{valid}", "--k-min", 0),
                                      "error: need 1 <= k_min < k_max <= support"),
        "regularity-in-k-min": (("regularity", "--in", "{path}", "--k-min", 0),
                                "apply only to --coeffs"),
        "regularity-in-k-max": (("regularity", "--in", "{path}", "--k-max", 8),
                                "apply only to --coeffs"),
        "transform-g2c-negative-K": (("transform", "--direction", "g2c", "--in", "{cov}",
                                      "--K", -1), "must be nonnegative"),
        # flags that would have no effect are refused rather than ignored
        "simulate-param-coeffs": (("simulate", "--model", "param", "--a", 1, "--p", 1.5,
                                   "--coeffs", "{valid}", "--n", 64, "--seed", 0),
                                  "--coeffs does not apply to --model param"),
        "simulate-coeffs-a": (("simulate", "--model", "coeffs", "--coeffs", "{valid}",
                               "--a", 2, "--n", 64, "--seed", 0),
                              "--a does not apply to --model coeffs"),
        "simulate-coeffs-p": (("simulate", "--model", "coeffs", "--coeffs", "{valid}",
                               "--p", 2, "--n", 64, "--seed", 0),
                              "--p does not apply to --model coeffs"),
        "simulate-bridge-a": (("simulate", "--model", "bridge:plain", "--a", 3,
                               "--n", 64, "--seed", 0), "--a does not apply to bridge models"),
        "simulate-bridge-p": (("simulate", "--model", "bridge:centralized", "--p", 2,
                               "--n", 64, "--seed", 0), "--p does not apply to bridge models"),
        "simulate-bridge-coeffs": (("simulate", "--model", "bridge:centered-shift",
                                    "--coeffs", "{valid}", "--n", 64, "--seed", 0),
                                   "--coeffs does not apply to bridge models"),
        "transform-c2g-K": (("transform", "--direction", "c2g", "--in", "{valid}", "--K", 5),
                            "--K does not apply to --direction c2g"),
        "transform-g2c-grid": (("transform", "--direction", "g2c", "--in", "{cov}",
                                "--grid", 128), "--grid does not apply to --direction g2c"),
        # every T_k is finite, but a^2(p) overflows even at p-min, so no bounds can help
        "fit-path-scale-out-of-range": (("fit", "--in", "{huge}"), "rescale the path"),
        # every T_k is nonzero but below the floor: too small to fit, not degenerate
        "fit-path-too-small": (("fit", "--in", "{tiny}"), "rescale the path"),
        # every T_k underflows to 0 although the path is not constant
        "fit-path-energies-underflow": (("fit", "--in", "{e200}"), "rescale the path"),
        # lag products below the normal range vanish (1e-200) or lose digits (1e-160)
        "regularity-in-products-underflow": (("regularity", "--in", "{e200}"),
                                             "rescale the ensemble"),
        "regularity-in-products-subnormal": (("regularity", "--in", "{e160}"),
                                             "rescale the ensemble"),
        "fit-grid-not-power-of-two": (("fit", "--in", "{three}"),
                                      "{three}: grid size must be a power of two, n >= 4, got 3"),
        "transform-g2c-grid-not-power-of-two": (
            ("transform", "--direction", "g2c", "--in", "{three_cov}"),
            "{three_cov}: grid size must be a power of two, n >= 4, got 3"),
        # a power of two below 4 breaks the same grid rule, and the refusal names the file
        "fit-grid-of-one": (("fit", "--in", "{one}"),
                            "{one}: grid size must be a power of two, n >= 4, got 1"),
        "fit-grid-of-two": (("fit", "--in", "{two}"),
                            "{two}: grid size must be a power of two, n >= 4, got 2"),
        "regularity-grid-of-one": (("regularity", "--in", "{one}"),
                                   "{one}: grid size must be a power of two, n >= 4, got 1"),
        "regularity-grid-of-two": (("regularity", "--in", "{two}"),
                                   "{two}: grid size must be a power of two, n >= 4, got 2"),
        # %g keeps 6 digits, so these p would head two columns with one name
        "sweep-column-names-collide": (("sweep", "--p-list", "1.0000001,1.0000002", "--n", 16,
                                        "--seed", 1),
                                       "error: --p-list values 1.0000001 and 1.0000002 share "
                                       "the column name x_p1"),
        "sweep-column-names-collide-unsorted": (("sweep", "--p-list", "2.5,3.0000004,3",
                                                 "--n", 16, "--seed", 1),
                                                "error: --p-list values 3.0 and 3.0000004 "
                                                "share the column name x_p3"),
        # each request exceeds a 2^57-byte address space, so it fails before any page is
        # touched; numpy's one-line message follows "error:"
        "simulate-paths-too-many-to-allocate": (("simulate", "--model", "param", "--a", 1,
                                                 "--p", 1.5, "--n", 1024, "--paths", 2 ** 47,
                                                 "--seed", 0),
                                                "error: Unable to allocate"),
        "bridge-check-terms-too-many-to-allocate": (("bridge-check", "--R", 2, "--n", 16,
                                                     "--terms", 2 ** 57),
                                                    "error: Unable to allocate"),
        "transform-c2g-grid-too-large-to-allocate": (("transform", "--direction", "c2g",
                                                      "--in", "{valid}", "--grid", 2 ** 57),
                                                     "error: Unable to allocate"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_with_a_message(self, case, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"c0": 1, "c": [{"a": 1}]}))
        valid = tmp_path / "valid.json"
        write_coefficients(SpectralCoefficients(1.0, (0.5, 0.25)), valid)
        path = tmp_path / "path.csv"
        write_paths_csv(np.sin(2 * np.pi * np.arange(64) / 64), path)
        huge = tmp_path / "huge.csv"
        write_paths_csv(np.random.default_rng(5).standard_normal(64) * 1e154, huge)
        tiny = tmp_path / "tiny.csv"
        write_paths_csv(np.random.default_rng(5).standard_normal(64) * 1e-152, tiny)
        e160, e200 = tmp_path / "e160.csv", tmp_path / "e200.csv"
        write_paths_csv(np.random.default_rng(5).standard_normal(64) * 1e-160, e160)
        write_paths_csv(np.random.default_rng(5).standard_normal(64) * 1e-200, e200)
        cov = tmp_path / "cov.csv"
        spectral.write_covariogram_csv(bridge.centered_bridge_covariogram(64), cov)
        three, three_cov = tmp_path / "three.csv", tmp_path / "three_cov.csv"
        three.write_text("t,x\n0,1\n0.25,2\n0.5,3\n")
        three_cov.write_text("delta,value\n0,1\n0.25,0.5\n0.5,0.25\n")
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        one.write_text("t,x\n0,1\n")
        two.write_text("t,x0,x1\n0,1,2\n0.5,3,4\n")
        out = tmp_path / "out"
        out.mkdir()
        argv, message = self.CASES[case]
        files = dict(coeffs=coeffs, valid=valid, path=path, huge=huge, tiny=tiny, e160=e160,
                     e200=e200, cov=cov, three=three, three_cov=three_cov, one=one, two=two)
        argv = [str(a).format(**files) for a in argv]
        message = message.format(**files)
        assert run(*argv, "--out", out / "x") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "Warning" not in err
        assert not any(out.iterdir())

    # --trunc is checked before 10^9 paths are sized: an aliased harmonic exits 3 and a
    # sine truncation past the grid exits 2, each with its own message
    @pytest.mark.parametrize("model, code, message", [
        (("param", "--a", 1, "--p", 1.5, "--trunc", 600), 3, "harmonic 600 is aliased"),
        (("bridge:plain", "--trunc", 5000), 2, "sine truncation"),
    ], ids=["param-aliased", "bridge-plain-sine-truncation"])
    def test_truncation_refused_before_paths_are_allocated(self, model, code, message,
                                                           tmp_path, capsys):
        assert run("simulate", "--model", *model, "--n", 1024, "--paths", 10 ** 9,
                   "--seed", 0, "--out", tmp_path / "x") == code
        err = capsys.readouterr().err
        assert message in err and "Unable to allocate" not in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", [0.0, 2.0], ids=["zero", "constant"])
def test_regularity_of_increment_free_paths_exits_five(value, tmp_path, capsys):
    # no rescaling gives these an increment: degenerate, not too small
    path = tmp_path / "p.csv"
    write_paths_csv(np.full((2, 64), value), path)
    assert run("regularity", "--in", path, "--out", tmp_path / "x") == 5
    err = capsys.readouterr().err
    assert "nonpositive structure function" in err and "Traceback" not in err


class TestCoefficientFileNotJson:
    COMMANDS = {
        "transform-c2g": ("transform", "--direction", "c2g", "--in", "{f}", "--grid", 64),
        "regularity": ("regularity", "--coeffs", "{f}"),
        "simulate": ("simulate", "--model", "coeffs", "--coeffs", "{f}", "--n", 64,
                     "--seed", 0),
    }

    @pytest.mark.parametrize("content", [b"c0 = 1\n", b"\xff\xfe{}"], ids=["text", "binary"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_two_naming_the_file(self, tmp_path, capsys, command, content):
        f = tmp_path / "coeffs.txt"
        f.write_bytes(content)
        out = tmp_path / "out"
        out.mkdir()
        argv = [str(a).format(f=f) for a in self.COMMANDS[command]]
        assert run(*argv, "--out", out / "x") == 2
        err = capsys.readouterr().err
        assert f"malformed coefficient file {f}" in err and "Traceback" not in err
        assert not any(out.iterdir())


class TestOverflowingCoefficients:
    # c0^2 or c_1^2 beyond the float range: exit 4 with a message, no warning
    FILES = {"c0-1e200": {"c0": 1e200, "c": [0.5]}, "c1-1e160": {"c0": 1.0, "c": [1e160]}}
    COMMANDS = {
        "transform-c2g-check": ("transform", "--direction", "c2g", "--in", "{f}", "--check",
                                "--grid", 64),
        "regularity-coeffs": ("regularity", "--coeffs", "{f}"),
        "simulate-eps": ("simulate", "--model", "coeffs", "--coeffs", "{f}", "--eps", 1e-3,
                         "--n", 64, "--seed", 0),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_exits_four_with_a_message(self, name, command, tmp_path, capsys):
        f = tmp_path / "c.json"
        f.write_text(json.dumps(self.FILES[name]))
        out = tmp_path / "out"
        out.mkdir()
        argv = [str(a).format(f=f) for a in self.COMMANDS[command]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out", out / "x") == 4
        err = capsys.readouterr().err
        assert "squared mass" in err and "overflows" in err and "Traceback" not in err
        assert not caught
        assert not any(out.iterdir())


class TestOverflowingDftSquares:
    # a path of N(0, 1) * 1e300: its squared DFT terms overflow the float range
    @staticmethod
    def _path(R=1):
        return np.random.default_rng(3).standard_normal((R, 64)) * 1e300

    @pytest.mark.parametrize("command", ["fit", "regularity"])
    def test_exits_two_with_a_message(self, command, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write_paths_csv(self._path()[0], path)
        out = tmp_path / "out"
        out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--in", path, "--out", out / "x") == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "Traceback" not in err and "narrow" not in err
        assert not caught
        assert not any(out.iterdir())

    @pytest.mark.parametrize("call", [
        lambda v: fit.fit_mle(GridPath(64, v[0])),
        lambda v: synthesis.replicate_lag_products(v, [0, 1]),
        lambda v: spectral.empirical_coeffs(PathEnsemble(64, v), 4),
    ], ids=["fit_mle", "replicate_lag_products", "empirical_coeffs"])
    def test_library_calls_refuse(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                call(self._path(R=2))


def test_regularity_estimates_a_huge_ensemble_without_a_warning(tmp_path):
    # lag products of ~1e300 fit the float range; their squared deviations do not
    path = tmp_path / "p.csv"
    write_paths_csv(np.random.default_rng(5).standard_normal((2, 64)) * 1e150, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("regularity", "--in", path, "--out", tmp_path / "r.json") == 0
    assert math.isfinite(json.loads((tmp_path / "r.json").read_text())["holder_estimate"])


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


class TestSkippedLines:
    """A reader skips a line only if it is empty once its '#' comment is cut, as loadtxt
    does, so a blank-looking line is refused wherever it sits."""

    COMMANDS = {"fit": ("fit",), "regularity": ("regularity",),
                "g2c": ("transform", "--direction", "g2c", "--K", 8)}

    @classmethod
    def _run(cls, tmp_path, command, extra, at):
        """Exit code, and whether an output was written, with `extra` inserted as line `at`."""
        f = tmp_path / "in.csv"
        if command == "g2c":
            spectral.write_covariogram_csv(spectral.coeffs_to_covariogram(
                SpectralCoefficients(1.0, (0.5, 0.25, 0.125)), 64), f)
        else:
            write_paths_csv(np.random.default_rng(3).standard_normal((3, 64)), f)
        lines = f.read_text().splitlines(keepends=True)
        lines[at - 1:at - 1] = [extra]
        f.write_text("".join(lines))
        out = tmp_path / "out"
        code = run(*cls.COMMANDS[command], "--in", f, "--out", out)
        return code, any(p.name.startswith("out") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("at", [2, 20])  # before and after the first data row
    @pytest.mark.parametrize("extra", ["\n", "# note\n", "#\n"])
    def test_empty_and_comment_lines_are_skipped(self, tmp_path, command, extra, at):
        assert self._run(tmp_path, command, extra, at) == (0, True)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("at", [2, 20])
    @pytest.mark.parametrize("extra", ["  \n", "\t\n", "  # note\n"])
    def test_blank_but_not_empty_line_exits_two(self, tmp_path, capsys, command, extra, at):
        assert self._run(tmp_path, command, extra, at) == (2, False)
        err = capsys.readouterr().err
        assert str(tmp_path / "in.csv") in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [("fit", "--column", 1), ("regularity",)])
    def test_non_numeric_cell_names_the_file_and_its_first_data_row(self, tmp_path, capsys,
                                                                     command):
        f = tmp_path / "in.csv"
        write_paths_csv(np.random.default_rng(3).standard_normal((3, 64)), f)
        lines = f.read_text().splitlines(keepends=True)
        lines[1:1] = ["# three paths\n"]
        cells = lines[40].split(",")
        lines[40] = ",".join([*cells[:2], "abc", *cells[3:]])  # file line 41, value column 1
        f.write_text("".join(lines))
        assert run(*command, "--in", f, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{f}: could not convert string 'abc'" in err
        assert "(the first data row is line 3)" in err
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


class TestRowWidth:
    """Every line after the header that loadtxt does not skip has the header's field count,
    on every command that reads a table."""

    FIELDS = {"fit": 4, "regularity": 4, "g2c": 2}  # t and three paths; delta,value

    @pytest.mark.parametrize("command", sorted(FIELDS))
    @pytest.mark.parametrize("at", [2, 20])
    @pytest.mark.parametrize("width", [-1, 1, None], ids=["short", "long", "blank"])
    def test_a_row_of_another_width_exits_two_naming_its_line(self, tmp_path, capsys,
                                                              command, at, width):
        fields = self.FIELDS[command]
        extra = "  \n" if width is None else ",".join(["0.5"] * (fields + width)) + "\n"
        assert TestSkippedLines._run(tmp_path, command, extra, at) == (2, False)
        found = 1 if width is None else fields + width
        err = capsys.readouterr().err
        assert f"{tmp_path / 'in.csv'}: line {at} has {found} fields, the header {fields}" in err
        assert "usecols" not in err

    @pytest.mark.parametrize("command", [("fit",), ("fit", "--column", 1), ("regularity",)])
    @pytest.mark.parametrize("header", ["t,x0,x1", "t,x0,x1,x2,x3"])  # rows have 4 fields
    def test_a_header_narrower_or_wider_than_its_rows_exits_two(self, tmp_path, capsys,
                                                                command, header):
        f = tmp_path / "in.csv"
        write_paths_csv(np.random.default_rng(3).standard_normal((3, 64)), f)
        f.write_text(header + "\n" + f.read_text().split("\n", 1)[1])
        assert run(*command, "--in", f, "--out", tmp_path / "out") == 2
        fields = header.count(",") + 1
        assert f"{f}: line 2 has 4 fields, the header {fields}" in capsys.readouterr().err
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


class TestNonFiniteCells:
    """A nan cell that a reader converts is refused with the file named, and no output is
    written; fit converts only t and its --column, so a nan elsewhere does not stop it."""

    @staticmethod
    def _run(tmp_path, command, line, field):
        """Exit code, and whether an output was written, with cell `field` of file line
        `line` set to nan."""
        f = tmp_path / "in.csv"
        if command == "g2c":
            spectral.write_covariogram_csv(spectral.coeffs_to_covariogram(
                SpectralCoefficients(1.0, (0.5, 0.25, 0.125)), 64), f)
        else:
            write_paths_csv(np.random.default_rng(3).standard_normal((3, 64)), f)
        lines = f.read_text().splitlines(keepends=True)
        cells = lines[line - 1].rstrip("\n").split(",")
        cells[field] = "nan"
        lines[line - 1] = ",".join(cells) + "\n"
        f.write_text("".join(lines))
        code = run(*TestSkippedLines.COMMANDS[command], "--in", f, "--out", tmp_path / "out")
        return code, any(p.name.startswith("out") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(TestSkippedLines.COMMANDS))
    def test_nan_grid_cell_is_not_the_uniform_grid(self, tmp_path, capsys, command):
        assert self._run(tmp_path, command, 9, 0) == (2, False)
        err = capsys.readouterr().err
        assert f"{tmp_path / 'in.csv'}: first column is not the uniform grid j/n" in err

    @pytest.mark.parametrize("command", ["fit", "g2c", "regularity"])
    def test_nan_value_cell_names_the_file(self, tmp_path, capsys, command):
        code, kind = (4, "covariogram") if command == "g2c" else (2, "path")
        assert self._run(tmp_path, command, 9, 1) == (code, False)
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'in.csv'}: {kind} values must be finite" in err

    def test_nan_in_another_column_does_not_stop_a_fit(self, tmp_path):
        assert self._run(tmp_path, "fit", 9, 3) == (0, True)


class TestCoefficientFileRefusals:
    @pytest.mark.parametrize("text, code", [
        ('{"c0": 1, "c": "ab"}', 2),
        ('{"c0": 1, "c": {"k": 1}}', 2),
        ('{"c0": 1, "c": [[0.5, 0.25], [0.1]]}', 2),
        ('{"c0": 1, "c": [0.5], "tail": {"q": 0.5, "const": 1}}', 2),
        ('{"c0": 1, "c": [0.5], "tail": {"q": "two", "const": 1}}', 2),
        ('{"c0": -1, "c": [0.5]}', 4),
        ('{"c0": 1, "c": [0.5, -0.25]}', 4),
        # only JSON numbers are coefficients: no strings, no booleans
        ('{"c0": "1", "c": ["0.5", "1e-1"], "tail": {"q": "2.5", "const": "0.01"}}', 2),
        ('{"c0": true, "c": [false, true]}', 2),
        ('{"c0": 1, "c": [0.5, "0.25"]}', 2),
        # a JSON integer beyond the float range
        ('{"c0": 1%s, "c": [0.5]}' % ("0" * 400), 2),
        ('{"c0": 1, "c": [0.5], "tail": {"q": 2, "const": 1%s}}' % ("0" * 400), 2),
    ])
    @pytest.mark.parametrize("command", [("transform", "--direction", "c2g", "--in"),
                                         ("regularity", "--coeffs")])
    def test_names_the_file_and_keeps_the_exit_code(self, tmp_path, capsys, text, code,
                                                    command):
        f = tmp_path / "coeffs.json"
        f.write_text(text)
        assert run(*command, f, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert str(f) in err and "Traceback" not in err
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())

    def test_negative_tail_constant_names_the_file(self, tmp_path, capsys):
        f = tmp_path / "coeffs.json"
        f.write_text('{"c0": 1, "c": [0.5], "tail": {"q": 2, "const": -1}}')
        assert run("transform", "--direction", "c2g", "--in", f, "--out", tmp_path / "out") == 2
        assert f"{f}: tail constant must be finite and nonnegative" in capsys.readouterr().err
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


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
            estimate_holder(PathEnsemble(4096, values[i][None, :].copy())).exponent
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
    def test_budget_beyond_the_float_range_is_an_aliasing_error(self, command, tmp_path,
                                                                 capsys):
        # at p = 1/2 + 1e-7 the tail energy falls like K^(-2e-7): no float K holds half
        out = tmp_path / "x"
        argv = [str(a).format(p=0.5000001) for a in self.COMMANDS[command]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*argv, "--n", 64, "--eps", 0.5, "--seed", 0, "--out", out)
        assert rc == 3
        err = capsys.readouterr().err
        assert "eps 0.5" in err and "Traceback" not in err
        assert not caught
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
    # no command loads scipy.stats, which costs ~1 s to import; only the tests use it.
    # Importing the CLI loads no scipy module at all, nor numpy.random, which the
    # samplers register with on first use
    src = Path(periodicgp.__file__).resolve().parents[1]
    code = ("import sys, periodicgp.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


_NO_SCIPY_COMMANDS = r"""
import json, sys
from periodicgp.cli import main

d = sys.argv[1]
commands = [
    ["simulate", "--model", "param", "--a", "1", "--p", "1.5", "--n", "64", "--paths", "3",
     "--seed", "1", "--out", d + "/sim"],
    ["simulate", "--model", "bridge:centralized", "--n", "64", "--paths", "2", "--seed", "2",
     "--out", d + "/brg"],
    ["simulate", "--model", "coeffs", "--coeffs", d + "/c.json", "--n", "64", "--seed", "3",
     "--out", d + "/cs"],
    ["regularity", "--in", d + "/sim.csv", "--out", d + "/reg_in.json"],
    ["regularity", "--coeffs", "bridge", "--out", d + "/reg_bridge.json"],
    ["sweep", "--p-list", "1,2.1", "--n", "64", "--seed", "4", "--out", d + "/sw"],
    ["transform", "--direction", "c2g", "--in", d + "/c.json", "--grid", "64", "--check",
     "--out", d + "/g.csv"],
    ["transform", "--direction", "g2c", "--in", d + "/g.csv", "--K", "8", "--check",
     "--out", d + "/back.json"],
    ["bridge-check", "--R", "20", "--n", "16", "--terms", "1000", "--out", d + "/chk.json"],
]
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes = [main(argv) for argv in commands]
scipy = loaded()
late = [main(["fit", "--in", d + "/sim.csv", "--out", d + "/fit"])]
after_fit = sorted(sys.modules)
late.append(main(["simulate", "--model", "param", "--a", "1", "--p", "3", "--n", "64",
                  "--eps", "1e-4", "--seed", "5", "--out", d + "/eps"]))
after_eps = sorted(sys.modules)
# the package imported afterwards holds the very ufuncs that fit and --eps used
from periodicgp.core import _scipy_ufuncs
import scipy.special as special
u = _scipy_ufuncs()
same = [special.expm1 is u.expm1, special.smirnov is u.smirnov,
        special._ufuncs._zeta is u._zeta, bool(special.zeta(2.5, 7) == u._zeta(2.5, 7))]
print(json.dumps({"codes": codes, "scipy": scipy, "late": late, "after_fit": after_fit,
                  "after_eps": after_eps, "same": same}))
"""


def test_only_fit_and_eps_load_scipy(tmp_path):
    # only fit and --eps use scipy, and only its compiled ufuncs: the scipy.special package
    # would add its array-API layer, half a cold fit's time; no command loads scipy.stats
    write_coefficients(SpectralCoefficients(1.0, (0.5, 0.25, 0.125)), tmp_path / "c.json")
    src = Path(periodicgp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_COMMANDS, str(tmp_path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 9, out.stderr
    assert result["scipy"] == []
    assert result["late"] == [0, 0], out.stderr
    # fit's p-value (periodicgp._kolmogorov) and --eps take scipy's ufunc extension alone
    package = {"scipy.special", "scipy.special._support_alternative_backends",
               "scipy._lib._array_api", "numpy.f2py", "numpy.testing"}
    for modules in (result["after_fit"], result["after_eps"]):
        assert "scipy.special._ufuncs" in modules
        assert package.isdisjoint(modules), sorted(package.intersection(modules))
        assert not [m for m in modules if m.split(".")[:2] == ["scipy", "stats"]]
    assert result["same"] == [True] * 4


def test_python_m_periodicgp_writes_what_main_writes(tmp_path, monkeypatch):
    argv = ["simulate", "--model", "param", "--a", "1", "--p", "1.5", "--n", "64",
            "--paths", "2", "--seed", "5", "--out"]
    assert main([*argv, str(tmp_path / "main")]) == 0
    monkeypatch.setattr(sys, "argv", ["periodicgp", *argv, str(tmp_path / "module")])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("periodicgp", run_name="__main__")
    assert exc.value.code == 0
    for suffix in (".csv", ".meta.json"):
        assert ((tmp_path / ("module" + suffix)).read_bytes()
                == (tmp_path / ("main" + suffix)).read_bytes())


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model"])  # missing value
    assert exc.value.code == 2


def test_main_builds_its_parser_once_and_defaults_stay_fresh(tmp_path, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parsers.append(self) or parse_args(self, *args))
    for name, paths in (("a", ("--paths", 3)), ("b", ())):
        assert run("simulate", "--model", "param", "--a", 1, "--p", 1.5, "--n", 64,
                   *paths, "--seed", 0, "--out", tmp_path / name) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert json.loads((tmp_path / "b.meta.json").read_text())["paths"] == 1
    assert (tmp_path / "b.csv").read_text().startswith("t,x\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "param", "--out", "x"],
    ["transform", "--direction", "c2g", "--in", "x", "--out", "x"],
    ["fit", "--in", "x", "--out", "x"],
    ["regularity", "--out", "x"],
    ["bridge-check", "--out", "x"],
    ["sweep", "--p-list", "1.5", "--out", "x"],
], ids=lambda argv: argv[0])
def test_main_reaches_a_command_rebound_after_the_parser_is_built(argv, tmp_path, monkeypatch):
    # a tracer rebinds cli.cmd_* after a warm-up call has built the cached parser
    import periodicgp.cli as cli
    assert run("regularity", "--coeffs", "bridge", "--out", tmp_path / "warm.json") == 0
    reached = []
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), reached.append)
    assert main(argv) == 0
    assert [a.command for a in reached] == [argv[0]]


def test_main_releases_free_memory_after_every_command(tmp_path, monkeypatch):
    import periodicgp.cli as cli
    released = []
    monkeypatch.setattr(cli, "_release_free_memory", released.append)
    assert run("regularity", "--coeffs", "bridge", "--out", tmp_path / "ok.json") == 0
    assert run("fit", "--in", tmp_path / "missing.csv", "--out", tmp_path / "fit") == 2
    assert released == [0, 0]


def test_ctrl_c_mid_simulate_exits_130_with_one_line(tmp_path, monkeypatch, capsys):
    import periodicgp.core as core
    blocks = []
    format_cells = core._format_cells

    def interrupted_after_one_block(block, ncols):
        if blocks:
            raise KeyboardInterrupt
        blocks.append(ncols)
        return format_cells(block, ncols)

    monkeypatch.setattr(core, "_format_cells", interrupted_after_one_block)
    assert run("simulate", "--model", "param", "--a", 1, "--p", 1.5, "--n", 1024,
               "--paths", 8, "--seed", 0, "--out", tmp_path / "sim") == 130
    assert blocks == [9]  # the second of several blocks raised
    assert capsys.readouterr() == ("", "interrupted\n")


@pytest.mark.parametrize("command", ["simulate", "transform", "fit", "regularity",
                                     "bridge-check", "sweep"])
def test_ctrl_c_in_any_command_exits_130_with_one_line(command, tmp_path, monkeypatch, capsys):
    import periodicgp.cli as cli

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), interrupt)
    argv = {"simulate": ["--model", "param"], "transform": ["--direction", "c2g", "--in", "x"],
            "fit": ["--in", "x"], "sweep": ["--p-list", "1.5"]}.get(command, [])
    assert run(command, *argv, "--out", tmp_path / "x") == 130
    assert capsys.readouterr() == ("", "interrupted\n")


@pytest.mark.parametrize("model", ["bridge:nope", "nope"])
def test_unknown_model_is_a_usage_error_naming_the_choices(model, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", model, "--n", "64", "--seed", "0",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert all(name in err for name in ("param", "coeffs", "bridge:plain", "bridge:centralized"))
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Generated bad input: a subcommand and a subset of its flags, drawn from the
# parser's own actions, with values from boundary pools and files from a fixed pool.

def _subcommand_actions():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest not in ("help", "out")]
            for name, p in sub.choices.items()}


_COMMANDS = _subcommand_actions()
_INTS = ["0", "-1", "1", "3", "4", "5", "24", "64", "1000", "1024", str(2 ** 63), str(2 ** 64),
         "1e300"]
_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0.5000001", "1",
           "1.5", "3", "1e-6"]
# sizes stay small
_SIZE_CAPS = {"--n": 1024, "--grid": 1024, "--paths": 4, "--R": 64, "--terms": 10 ** 4}
_FILES = {
    "empty": "",
    "path-header-only": "t,x\n",
    "table-header-only": "delta,value\n",
    "ragged": "t,x0,x1\n0,1,2\n0.25,1\n0.5,1,2\n0.75,1,2\n",
    "nan-cell": "t,x\n0,1\n0.25,nan\n0.5,1\n0.75,2\n",
    "huge-paths": "t,x0,x1\n" + "".join(f"{j / 8},1e300,-1e300\n" for j in range(8)),
    "huge-table": "delta,value\n" + "".join(f"{j / 8},1e300\n" for j in range(8)),
    "wrong-grid": "t,x\n0,1\n0.3,2\n0.5,1\n0.7,2\n",
    "json-list": "[1, 0.5, 0.25]",
    "asymmetric-table": "delta,value\n" + "".join(
        f"{j / 8},{v}\n" for j, v in enumerate([1, 0.5, 0.2, 0.1, 0, 0.1, 0.2, 0.4])),
    "coefficients": '{"c0": 1, "c": [0.5, 0.25]}',
}
_NAMES = [*_FILES, "paths", "table", "missing"]  # and a valid path CSV, a valid table, no file


def _size_pool(cap):
    return [v for v in _INTS if not v.lstrip("-").isdigit() or int(v) <= cap]


def _value(action):
    flag = action.option_strings[0]
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.sampled_from(_size_pool(_SIZE_CAPS[flag]) if flag in _SIZE_CAPS else _INTS)
    if action.type is float:
        return st.sampled_from(_FLOATS)
    if action.dest == "p_list":
        return st.lists(st.sampled_from(_FLOATS), max_size=3).map(",".join)
    assert action.dest in ("infile", "coeffs"), f"no value pool for {flag}"
    valid = ["paths", "table", "coefficients"] * 3  # weighted, so that commands also finish
    return st.sampled_from([f"{{{name}}}" for name in _NAMES + valid] + ["bridge"])


def _flag(action):
    """None (the flag left out, two times in three) or the flag with a drawn value;
    required flags, and size flags whose default is above the cap, are always given."""
    flag = action.option_strings[0]
    given = st.just(flag) if action.nargs == 0 else _value(action).map(f"{flag}={{}}".format)
    if action.required or (flag in _SIZE_CAPS and (action.default or 0) > _SIZE_CAPS[flag]):
        return given
    return st.one_of(st.just(None), st.just(None), given)


_ARGV = st.one_of(*(st.tuples(st.just(name), *map(_flag, actions))
                    for name, actions in sorted(_COMMANDS.items())))


@pytest.fixture(scope="module")
def file_pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    for name, text in _FILES.items():
        (root / name).write_text(text)
    write_paths_csv(np.random.default_rng(3).standard_normal((2, 64)), root / "paths")
    spectral.write_covariogram_csv(bridge.centered_bridge_covariogram(64), root / "table")
    return root


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_generated_bad_input_exits_cleanly(file_pool, argv):
    names = {name: file_pool / name for name in _NAMES}
    argv = [a.format(**names) for a in argv if a is not None]
    with tempfile.TemporaryDirectory(dir=file_pool) as out, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main([*argv, f"--out={out}/x"])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        left = sorted(os.listdir(out))
    assert code in (0, 2, 3, 4, 5), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code == 0 or not left, (argv, left)
