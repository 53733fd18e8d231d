"""Covariogram <-> coefficient transforms and the empirical estimator."""

import math

import numpy as np
import pytest

from periodicgp import bridge, spectral, synthesis
from periodicgp.core import (
    AliasingError,
    Covariogram,
    PathEnsemble,
    SpectralCoefficients,
    SpectrumError,
    h_norm,
)
from periodicgp.spectral import (
    coeffs_to_covariogram,
    covariogram_to_coeffs,
    empirical_coeffs,
    read_covariogram_csv,
    write_covariogram_csv,
)


def _grid(n):
    return np.arange(n) / n


class TestCovariogramToCoeffs:
    def test_constant_covariogram_is_pure_variance(self):
        g = Covariogram.from_table(np.full(256, 2.25))
        c = covariogram_to_coeffs(g, K=5)
        assert c.c0 == pytest.approx(1.5)
        assert np.allclose(c.c, 0.0)

    def test_single_cosine(self):
        g = Covariogram.from_table(2 * np.cos(2 * np.pi * _grid(1024)))
        c = covariogram_to_coeffs(g, K=8)
        assert c.c[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(c.c[1:])) < 1e-10
        assert c.c0 == pytest.approx(0.0, abs=1e-10)

    def test_bridge_closed_form_recovers_known_spectrum(self):
        g = bridge.centered_bridge_covariogram()
        c = covariogram_to_coeffs(g, K=8, n=4096)
        assert c.c0**2 == pytest.approx(1 / 12, abs=1e-7)
        for k in range(1, 9):
            assert c.c[k - 1] ** 2 == pytest.approx(1 / (2 * math.pi * k) ** 2,
                                                    abs=1e-7)

    @pytest.mark.parametrize("K, error", [(-1, ValueError), (128, AliasingError)])
    def test_harmonic_count_checked(self, K, error):
        g = Covariogram.from_table(np.full(256, 2.25))
        with pytest.raises(error) as info:
            covariogram_to_coeffs(g, K=K)
        assert type(info.value) is error

    def test_materially_negative_mass_rejected(self):
        # symmetric, lag-zero dominant, but one harmonic carries mass -0.02
        d = _grid(1024)
        v = 1 + np.cos(2 * np.pi * d) - 0.02 * np.cos(2 * np.pi * 5 * d)
        g = Covariogram.from_table(v)
        with pytest.raises(SpectrumError, match="not positive semidefinite"):
            covariogram_to_coeffs(g, K=8)

    def test_borderline_negative_mass_clamps_with_warning(self):
        d = _grid(1024)
        v = 1 + 0.5 * np.cos(2 * np.pi * d) - 5e-10 * np.cos(2 * np.pi * 3 * d)
        g = Covariogram.from_table(v)
        with pytest.warns(UserWarning):
            c = covariogram_to_coeffs(g, K=4)
        assert c.c[2] == 0.0


class TestCoeffsToCovariogram:
    def test_pure_variance(self):
        g = coeffs_to_covariogram(SpectralCoefficients(1.0, ()), 64)
        assert np.allclose(g.values, 1.0)

    def test_single_harmonic(self):
        g = coeffs_to_covariogram(SpectralCoefficients(0.0, (1.0,)), 64)
        assert g.at(0.0) == pytest.approx(2.0)
        assert g.at(0.25) == pytest.approx(0.0, abs=1e-15)
        assert g.at(0.5) == pytest.approx(-2.0)

    def test_bridge_coefficients_reach_closed_form(self):
        c = bridge.centered_bridge_coefficients(support=2048)
        g = coeffs_to_covariogram(c, 8192)
        assert g.at(0.25) == pytest.approx(7 / 96, abs=1e-6)

    def test_output_exactly_symmetric(self):
        c = SpectralCoefficients(0.5, (0.4, 0.1, 0.05))
        v = coeffs_to_covariogram(c, 64).values
        assert np.array_equal(v[1:], v[:0:-1])

    def test_aliasing_rejected(self):
        c = SpectralCoefficients(0.0, tuple([0.1] * 40))
        with pytest.raises(AliasingError):
            coeffs_to_covariogram(c, 64)


class TestRoundTrips:
    def test_coefficients_survive_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            support = int(rng.integers(1, 65))
            raw = rng.uniform(0, 1, size=support + 1)
            raw[rng.uniform(size=support + 1) < 0.2] = 0.0
            c = SpectralCoefficients(raw[0], tuple(raw[1:]))
            g = coeffs_to_covariogram(c, 4096)
            back = covariogram_to_coeffs(g, K=support, n=4096)
            orig = np.concatenate(([c.c0], c.c))
            rec = np.concatenate(([back.c0], back.c))
            assert np.max(np.abs(rec - orig)) < 1e-8 * max(np.max(orig), 1e-12)

    def test_band_limited_covariogram_survives_round_trip(self):
        rng = np.random.default_rng(16)
        raw = rng.uniform(0, 1, size=33)
        c = SpectralCoefficients(raw[0], tuple(raw[1:]))
        g = coeffs_to_covariogram(c, 256)
        back = coeffs_to_covariogram(covariogram_to_coeffs(g, K=32, n=256), 256)
        rel = np.max(np.abs(back.values - g.values)) / np.max(np.abs(g.values))
        assert rel < 1e-8

    def test_isometry_at_lag_zero(self):
        rng = np.random.default_rng(17)
        raw = rng.uniform(0, 1, size=17)
        c = SpectralCoefficients(raw[0], tuple(raw[1:]))
        g = coeffs_to_covariogram(c, 1024)
        assert g.at(0.0) == pytest.approx(h_norm(c) ** 2, rel=1e-10)


class TestEmpiricalCoeffs:
    def test_zero_ensemble(self):
        e = PathEnsemble(16, np.zeros((4, 16)), 0)
        est = empirical_coeffs(e, 4)
        assert est.c0_sq == 0.0
        assert np.allclose(est.c_sq, 0.0)

    @pytest.mark.parametrize("K, error", [(-1, ValueError), (8, AliasingError)])
    def test_harmonic_count_checked(self, K, error):
        e = PathEnsemble(16, np.zeros((4, 16)), 0)
        with pytest.raises(error) as info:
            empirical_coeffs(e, K)
        assert type(info.value) is error

    def test_deterministic_single_tone_normalization(self):
        # path sqrt(2) sin(2 pi t) is the unit-coefficient draw Y_1 = 1, so
        # a single replicate reports c_1^2 = (Y_1^2 + Y_1'^2)/2 = 1/2
        t = _grid(64)
        e = PathEnsemble(64, (math.sqrt(2) * np.sin(2 * np.pi * t))[None, :], 0)
        est = empirical_coeffs(e, 3)
        assert est.c_sq[0] == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(est.c_sq[1:], 0.0, atol=1e-28)

    def test_unbiased_against_generating_coefficients(self):
        c = SpectralCoefficients(0.0, tuple(1.0 / k for k in range(1, 9)))
        e = synthesis.sample_ensemble(c, 8, 64, 20000, 11)
        est = empirical_coeffs(e, 8)
        target = np.array([1.0 / k**2 for k in range(1, 9)])
        z = (est.c_sq - target) / est.c_sq_stderr
        assert np.max(np.abs(z)) < 3

    def test_coefficients_accessor_takes_square_roots(self):
        t = _grid(32)
        e = PathEnsemble(32, (2.0 + 0 * t)[None, :], 0)
        est = empirical_coeffs(e, 2)
        got = est.coefficients()
        assert got.c0 == pytest.approx(2.0)


class TestCovariogramCsv:
    def test_round_trip(self, tmp_path):
        c = SpectralCoefficients(0.7, (0.3, 0.1))
        g = coeffs_to_covariogram(c, 64)
        f = tmp_path / "g.csv"
        write_covariogram_csv(g, f)
        assert f.read_text().splitlines()[0] == "delta,value"
        back = read_covariogram_csv(f)
        assert np.array_equal(back.values, g.values)

    def test_closed_form_written_on_grid(self, tmp_path):
        f = tmp_path / "b.csv"
        write_covariogram_csv(bridge.centered_bridge_covariogram(), f, n=128)
        back = read_covariogram_csv(f)
        assert back.at(0.5) == pytest.approx(1 / 24, rel=1e-12)

    def test_off_grid_delta_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("delta,value\n0,1\n0.3,0.5\n0.5,0.2\n0.7,0.5\n")
        with pytest.raises(ValueError):
            read_covariogram_csv(f)
