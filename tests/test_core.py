"""Core types: coefficient validation, norms, covariograms, file formats."""

import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodicgp import core
from periodicgp.core import (
    Covariogram,
    GridPath,
    ParametricModel,
    PathEnsemble,
    RegularityReport,
    SpectralCoefficients,
    SpectrumError,
    TailDecay,
    h_norm,
    negative_mass_tolerance,
    read_coefficients,
    read_paths_csv,
    validate_coefficients,
    write_coefficients,
    write_json,
    write_paths_csv,
)


class TestValidateCoefficients:
    def test_valid_vector_accepted_verbatim(self):
        c = validate_coefficients((1.0, 0.5, 0.25))
        assert c.c0 == 1.0
        assert np.array_equal(c.c, (0.5, 0.25))

    def test_tiny_negative_mass_clamped_to_zero(self):
        c = validate_coefficients((1.0, -1e-15, 0.25))
        assert np.array_equal(c.c, (0.0, 0.25))

    def test_material_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative spectral mass"):
            validate_coefficients((1.0, -0.3))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            validate_coefficients((1.0, float("nan")))

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            validate_coefficients((float("inf"), 0.1))

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, raw):
        once = validate_coefficients(raw)
        twice = validate_coefficients((once.c0, *once.c))
        assert twice.c0 == once.c0
        assert np.array_equal(twice.c, once.c)


class TestHNorm:
    def test_single_term(self):
        assert h_norm(SpectralCoefficients(1.0, ())) == 1.0

    def test_one_harmonic_picks_up_factor_two(self):
        assert h_norm(SpectralCoefficients(0.0, (1.0,))) == pytest.approx(math.sqrt(2))

    def test_bridge_coefficients_reach_one_over_sqrt_six(self):
        # c0 = 1/sqrt(12), c_k = 1/(2 pi k): norm^2 = 1/12 + (1/(2 pi^2)) zeta(2) = 1/6
        tail = TailDecay(q=2.0, const=1.0 / (4 * math.pi**2))
        c = SpectralCoefficients(
            1.0 / math.sqrt(12),
            tuple(1.0 / (2 * math.pi * k) for k in range(1, 129)),
            declared_tail=tail,
        )
        assert h_norm(c) == pytest.approx(math.sqrt(1 / 6), rel=1e-12)

    def test_tail_matches_brute_force_partial_sum(self):
        tail = TailDecay(q=2.0, const=1.0 / (4 * math.pi**2))
        c = SpectralCoefficients(1.0 / math.sqrt(12), (1.0 / (2 * math.pi),),
                                 declared_tail=tail)
        k = np.arange(1, 10**6 + 1)
        brute = math.sqrt(1 / 12 + 2 * np.sum(1.0 / (2 * math.pi * k) ** 2))
        assert h_norm(c) == pytest.approx(brute, rel=1e-5)

    @given(st.floats(min_value=0, max_value=100),
           st.lists(st.floats(min_value=0, max_value=10), max_size=10),
           st.floats(min_value=0, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_absolutely_homogeneous(self, c0, c, s):
        base = SpectralCoefficients(c0, tuple(c))
        scaled = SpectralCoefficients(s * c0, tuple(s * x for x in c))
        assert h_norm(scaled) == pytest.approx(s * h_norm(base), rel=1e-12, abs=1e-12)


class TestTailDecay:
    def test_requires_ell_one_mass(self):
        with pytest.raises(ValueError):
            TailDecay(q=1.0, const=1.0)

    def test_mass_beyond_decreases(self):
        tail = TailDecay(q=2.0, const=1.0)
        masses = [tail.mass_beyond(k) for k in (1, 10, 100, 1000)]
        assert all(a > b > 0 for a, b in zip(masses, masses[1:]))

    def test_mass_beyond_matches_zeta_sum(self):
        tail = TailDecay(q=3.0, const=2.0)
        k = np.arange(101, 200001)
        assert tail.mass_beyond(100) == pytest.approx(2 * 2.0 * np.sum(k**-3.0), rel=1e-6)


class TestSpectralCoefficients:
    def test_materialize_extends_by_declared_tail(self):
        tail = TailDecay(q=2.0, const=1.0)
        c = SpectralCoefficients(0.0, (1.0,), declared_tail=tail)
        ext = c.materialize(4)
        assert ext == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4])

    def test_materialize_pads_zeros_without_tail(self):
        c = SpectralCoefficients(0.0, (1.0,))
        assert list(c.materialize(3)) == [1.0, 0.0, 0.0]

    def test_squared_mass_includes_tail(self):
        tail = TailDecay(q=2.0, const=1.0)
        c = SpectralCoefficients(1.0, (1.0,), declared_tail=tail)
        # 1 + 2*1 + 2*zeta(2, 2) = 3 + 2*(pi^2/6 - 1)
        expected = 3 + 2 * (math.pi**2 / 6 - 1)
        assert c.squared_mass() == pytest.approx(expected, rel=1e-12)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            SpectralCoefficients(1.0, (-0.1,))

    def test_c_is_a_read_only_float_copy(self):
        raw = np.array([1, 2])
        c = SpectralCoefficients(0, raw)
        raw[0] = 9
        assert c.c.dtype == np.float64 and np.array_equal(c.c, (1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            c.c[0] = 2.0

    @pytest.mark.parametrize("c", [0.5, [[1.0, 2.0]]])
    def test_non_flat_c_rejected(self, c):
        with pytest.raises(ValueError, match="flat"):
            SpectralCoefficients(1.0, c)


class TestNegativeMassTolerance:
    def test_scales_with_variance(self):
        assert negative_mass_tolerance(1.0) == pytest.approx(1e-9)

    def test_absolute_floor(self):
        assert negative_mass_tolerance(0.0) == pytest.approx(1e-12)


class TestCovariogram:
    def test_closed_form_centered_bridge(self):
        g = Covariogram.closed_form("centered_bridge")
        assert g.at(0.0) == pytest.approx(1 / 6)
        assert g.at(0.25) == pytest.approx(7 / 96)
        assert g.at(0.5) == pytest.approx(1 / 24)

    def test_closed_form_is_periodic(self):
        g = Covariogram.closed_form("centered_bridge")
        assert g.at(1.3) == pytest.approx(g.at(0.3), rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Covariogram(kind="mystery")

    def test_asymmetric_table_rejected(self):
        v = np.cos(2 * np.pi * np.arange(8) / 8)
        v[3] += 0.1
        with pytest.raises(SpectrumError, match="asymmetric"):
            Covariogram.from_table(v)

    def test_lag_zero_dominance_enforced(self):
        delta = np.arange(8) / 8
        v = -np.cos(2 * np.pi * delta)  # peak at delta = 1/2, not 0
        with pytest.raises(SpectrumError, match="lag zero"):
            Covariogram.from_table(v)

    def test_table_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Covariogram.from_table(np.ones(6))

    def test_sampled_at_on_grid(self):
        v = 1 + np.cos(2 * np.pi * np.arange(16) / 16)
        g = Covariogram.from_table(v)
        assert g.at(3 / 16) == pytest.approx(v[3])

    def test_sampled_at_off_grid_rejected(self):
        g = Covariogram.from_table(np.ones(8))
        with pytest.raises(ValueError):
            g.at(0.17)

    def test_sample_closed_form(self):
        g = Covariogram.closed_form("centralized_bridge")
        v = g.sample(64)
        assert v.shape == (64,)
        assert v[0] == pytest.approx(1 / 12)
        assert v[32] == pytest.approx(-1 / 24)


class TestGridPath:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridPath(6, np.zeros(6))

    def test_time_grid(self):
        p = GridPath(8, np.arange(8.0))
        assert np.array_equal(p.t, np.arange(8) / 8)

    def test_values_read_only(self):
        p = GridPath(8, np.zeros(8))
        with pytest.raises(ValueError):
            p.values[0] = 1.0


class TestPathEnsemble:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PathEnsemble(8, np.zeros((3, 7)), 0)

    def test_path_accessor(self):
        e = PathEnsemble(8, np.arange(16.0).reshape(2, 8), 0)
        assert e.R == 2
        assert np.array_equal(e.path(1).values, np.arange(8.0, 16.0))


class TestParametricModel:
    def test_p_must_exceed_half(self):
        with pytest.raises(ValueError, match="exceed 1/2"):
            ParametricModel(1.0, 0.5)

    def test_amplitude_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ParametricModel(0.0, 1.5)


class TestRegularityReport:
    def test_budget_invariant_enforced(self):
        with pytest.raises(ValueError):
            RegularityReport(q=2.0, m=1, holder_bound=0.5)


class TestFileFormats:
    def test_coefficients_round_trip(self, tmp_path):
        tail = TailDecay(q=2.5, const=0.75)
        c = SpectralCoefficients(1.5, (0.5, 0.25, 0.0), declared_tail=tail)
        f = tmp_path / "c.json"
        write_coefficients(c, f)
        back = read_coefficients(f)
        assert back.c0 == c.c0
        assert np.array_equal(back.c, c.c)
        assert back.declared_tail == tail

    def test_coefficients_round_trip_without_tail(self, tmp_path):
        c = SpectralCoefficients(0.0, (1 / 3,))
        f = tmp_path / "c.json"
        write_coefficients(c, f)
        back = read_coefficients(f)
        assert np.array_equal(back.c, (1 / 3,))  # 17 significant digits keep doubles exact
        assert back.declared_tail is None

    def test_single_path_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((1, 16))
        f = tmp_path / "p.csv"
        write_paths_csv(values, f)
        header = f.read_text().splitlines()[0]
        assert header == "t,x"
        t, back = read_paths_csv(f)
        assert np.array_equal(back, values)
        assert np.array_equal(t, np.arange(16) / 16)

    def test_ensemble_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((3, 8))
        f = tmp_path / "e.csv"
        write_paths_csv(values, f)
        assert f.read_text().splitlines()[0] == "t,x0,x1,x2"
        _, back = read_paths_csv(f)
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("R", [1, 3])
    def test_csv_cells_are_format_float_bytes(self, tmp_path, R):
        special = [-0.0, 5e-324, 1e-320, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1 / 3, 0.1]
        n = 4096
        assert n > core.BLOCK_VALUES // (R + 1)  # the table spans several row blocks
        values = np.random.default_rng(2).standard_normal((R, n))
        values[:, :len(special)] = special
        values[-1, -len(special):] = special  # and again in the last block
        f = tmp_path / "p.csv"
        write_paths_csv(values, f)
        lines = f.read_text().splitlines()
        assert lines[0] == ("t,x" if R == 1 else "t,x0,x1,x2")
        assert len(lines) == n + 1
        t = np.arange(n) / n
        for j, line in enumerate(lines[1:]):
            assert line.split(",") == [core.format_float(x) for x in (t[j], *values[:, j])]
        assert lines[1].split(",")[1] == "-0"

    def test_blank_and_comment_lines_before_data_are_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("t,x\n\n# note\n0,1.5\n0.5,-2\n")
        t, values = read_paths_csv(f)
        assert np.array_equal(t, [0.0, 0.5])
        assert np.array_equal(values, [[1.5, -2.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_reads_a_path_csv_from_a_pipe(self, tmp_path):
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("t,x\n0,1.5\n0.5,-2\n",),
                                  daemon=True)  # never blocks the test run on a failed read
        writer.start()
        t, values = read_paths_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(values, [[1.5, -2.0]])

    def test_json_output_is_canonical(self, tmp_path):
        f = tmp_path / "m.json"
        write_json({"b": 1, "a": [1.5, None]}, f)
        text = f.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1.5, None], "b": 1}

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=100, deadline=None)
    def test_format_float_round_trips_doubles(self, x):
        assert float(core.format_float(x)) == x
