"""Covariogram <-> coefficient transforms and the empirical estimator."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodicgp import bridge, dft, spectral, synthesis
from periodicgp.core import (
    AliasingError,
    Covariogram,
    GridPath,
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
        g = Covariogram(np.full(256, 2.25))
        c = covariogram_to_coeffs(g, K=5)
        assert c.c0 == pytest.approx(1.5)
        assert np.allclose(c.c, 0.0)

    def test_single_cosine(self):
        g = Covariogram(2 * np.cos(2 * np.pi * _grid(1024)))
        c = covariogram_to_coeffs(g, K=8)
        assert c.c[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(c.c[1:])) < 1e-10
        assert c.c0 == pytest.approx(0.0, abs=1e-10)

    def test_bridge_closed_form_recovers_known_spectrum(self):
        g = bridge.centered_bridge_covariogram(4096)
        c = covariogram_to_coeffs(g, K=8)
        assert c.c0**2 == pytest.approx(1 / 12, abs=1e-7)
        for k in range(1, 9):
            assert c.c[k - 1] ** 2 == pytest.approx(1 / (2 * math.pi * k) ** 2,
                                                    abs=1e-7)

    @pytest.mark.parametrize("K, error", [(-1, ValueError), (128, AliasingError)])
    def test_harmonic_count_checked(self, K, error):
        g = Covariogram(np.full(256, 2.25))
        with pytest.raises(error) as info:
            covariogram_to_coeffs(g, K=K)
        assert type(info.value) is error

    def test_materially_negative_mass_rejected(self):
        # symmetric, lag-zero dominant, but one harmonic carries mass -0.02
        d = _grid(1024)
        v = 1 + np.cos(2 * np.pi * d) - 0.02 * np.cos(2 * np.pi * 5 * d)
        g = Covariogram(v)
        with pytest.raises(SpectrumError, match="not positive semidefinite"):
            covariogram_to_coeffs(g, K=8)

    def test_borderline_negative_mass_clamps_with_warning(self):
        d = _grid(1024)
        v = 1 + 0.5 * np.cos(2 * np.pi * d) - 5e-10 * np.cos(2 * np.pi * 3 * d)
        g = Covariogram(v)
        with pytest.warns(UserWarning):
            c = covariogram_to_coeffs(g, K=4)
        assert c.c[2] == 0.0

    def test_negative_mass_above_K_is_refused(self):
        # the check covers every harmonic 0..n/2, not only the K extracted: here the Nyquist
        d = _grid(64)
        v = 1 + 0.5 * np.cos(2 * np.pi * d) - 1e-6 * np.cos(np.pi * 64 * d)
        with pytest.raises(SpectrumError, match="cosine mass -1.000e-06 at harmonic 32"):
            covariogram_to_coeffs(Covariogram(v), K=4)

    def test_tiny_table_has_no_absolute_floor(self):
        # c0 = 0 and C(0) = 8e-4: a cosine mass of -5e-13 is 6e-10 of C(0), far past
        # tol = 1e-12 C(0); an absolute 1e-12 floor would have let it through
        d = _grid(64)
        v = 8e-4 * np.cos(2 * np.pi * d) - 1e-12 * np.cos(2 * np.pi * 3 * d)
        with pytest.raises(SpectrumError, match="at harmonic 3"):
            covariogram_to_coeffs(Covariogram(v), K=8)

    def test_noise_level_positive_mass_snaps_to_zero(self):
        # mass 5e-10 is below tol = 1e-9 c0^2: snapped to zero, not sqrt-amplified to 2e-5
        d = _grid(1024)
        v = 1 + 0.5 * np.cos(2 * np.pi * d) + 1e-9 * np.cos(2 * np.pi * 3 * d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = covariogram_to_coeffs(Covariogram(v), K=4)
        assert c.c[2] == 0.0
        assert c.c[0] == pytest.approx(0.5, rel=1e-12)

    def test_masses_agree_with_analyze(self):
        # the quadrature mass c_k^2 is half the k-th cosine coefficient of the table itself
        rng = np.random.default_rng(3)
        g = coeffs_to_covariogram(SpectralCoefficients(0.7, rng.uniform(0.1, 1.0, 31)), 64)
        h = dft.analyze(GridPath(64, g.values))
        back = covariogram_to_coeffs(g, K=31)
        assert back.c0 ** 2 == pytest.approx(h.mean, rel=1e-12)
        assert np.allclose(back.c ** 2, h.cos_coef / 2, rtol=1e-10, atol=1e-14)

    def test_shorter_K_is_a_prefix(self):
        rng = np.random.default_rng(4)
        g = coeffs_to_covariogram(SpectralCoefficients(1.0, rng.uniform(0.0, 1.0, 63)), 128)
        full = covariogram_to_coeffs(g, K=63)
        for K in (0, 1, 10, 62):
            short = covariogram_to_coeffs(g, K=K)
            assert short.c0 == full.c0
            assert np.array_equal(short.c, full.c[:K])

    def test_zero_mean_table_at_large_scale_round_trips(self):
        # c0 = 0 and c_k near 1e4: C(0) is about 4e11, and the transform's rounding with it
        rng = np.random.default_rng(18)
        c = rng.uniform(1e3, 1e4, 2047)
        c[[5, 900]] = 0.0
        g = coeffs_to_covariogram(SpectralCoefficients(0.0, c), 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = covariogram_to_coeffs(g, K=2047)
        assert back.c0 == back.c[5] == back.c[900] == 0.0
        assert np.allclose(back.c, c, rtol=1e-9, atol=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c0=st.sampled_from([0.0, 0.01, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(0, 64), dent=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-7]))
    def test_decision_is_the_same_at_every_scale(self, c0, seed, k, dent):
        # a table minus dent * C(0) * cos(2 pi k d); scaling by a power of two is exact, and
        # the tolerance scales with the table, so neither the outcome nor the coefficients
        # (unscaled) can change, down to tables far below C(0) = 1
        rng = np.random.default_rng(seed)
        c = rng.uniform(0, 1, 63) * (rng.uniform(size=63) > 0.3)
        v = coeffs_to_covariogram(SpectralCoefficients(c0, c), 128).values
        v = v - dent * v[0] * np.cos(2 * np.pi * k * _grid(128))

        def outcome(scale):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    back = covariogram_to_coeffs(Covariogram(v * scale), K=63)
                except SpectrumError:
                    return "refused", b""
            unscaled = np.concatenate(([back.c0], back.c)) / math.sqrt(scale)
            return "warned" if caught else "accepted", unscaled.tobytes()

        at_one = outcome(1.0)
        for scale in (2.0 ** -40, 2.0 ** -20, 2.0 ** 20):
            assert outcome(scale) == at_one, scale


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
        b = bridge.centered_bridge_coefficients()
        c = SpectralCoefficients(b.c0, b.materialize(2048))
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
            back = covariogram_to_coeffs(g, K=support)
            orig = np.concatenate(([c.c0], c.c))
            rec = np.concatenate(([back.c0], back.c))
            assert np.max(np.abs(rec - orig)) < 1e-8 * max(np.max(orig), 1e-12)

    def test_band_limited_covariogram_survives_round_trip(self):
        rng = np.random.default_rng(16)
        raw = rng.uniform(0, 1, size=33)
        c = SpectralCoefficients(raw[0], tuple(raw[1:]))
        g = coeffs_to_covariogram(c, 256)
        back = coeffs_to_covariogram(covariogram_to_coeffs(g, K=32), 256)
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
        e = PathEnsemble(16, np.zeros((4, 16)))
        est = empirical_coeffs(e, 4)
        assert est.c0_sq == 0.0
        assert np.allclose(est.c_sq, 0.0)

    @pytest.mark.parametrize("K, error", [(-1, ValueError), (8, AliasingError)])
    def test_harmonic_count_checked(self, K, error):
        e = PathEnsemble(16, np.zeros((4, 16)))
        with pytest.raises(error) as info:
            empirical_coeffs(e, K)
        assert type(info.value) is error

    def test_deterministic_single_tone_normalization(self):
        # path sqrt(2) sin(2 pi t) is the unit-coefficient draw Y_1 = 1, so
        # a single replicate reports c_1^2 = (Y_1^2 + Y_1'^2)/2 = 1/2
        t = _grid(64)
        e = PathEnsemble(64, (math.sqrt(2) * np.sin(2 * np.pi * t))[None, :])
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

    # SHA-256 of (c0_sq, c0_sq_stderr), c_sq and c_sq_stderr on a 300 x 4096 ensemble,
    # pinned when the estimator still transformed 128 rows at a time
    PINNED_DIGESTS = {
        0: "9eeaa2d7d28a7582abad6c4fb2c2b1c3e017e93fac747f2da25580bc7625b553",
        64: "3cb229ff916d6fcf3c7130e8b74fa1d2c673c1ed227dea1a97d4b6a7a193375b",
        2047: "29afe1b60ffc1130ab1020f5691f25a69f674c64fb9243ddec4d8c82f08c2263",
    }

    def test_pinned_bytes(self, pinned_platform):
        c = SpectralCoefficients(0.8, tuple(1.0 / np.arange(1, 2048) ** 1.1))
        e = synthesis.sample_ensemble(c, 2047, 4096, 300, 8128)
        got = {}
        for K in self.PINNED_DIGESTS:
            est = empirical_coeffs(e, K)
            h = hashlib.sha256()
            for a in ([est.c0_sq, est.c0_sq_stderr], est.c_sq, est.c_sq_stderr):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            got[K] = h.hexdigest()
        assert got == self.PINNED_DIGESTS, pinned_platform


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
        write_covariogram_csv(bridge.centered_bridge_covariogram(128), f)
        back = read_covariogram_csv(f)
        assert back.at(0.5) == pytest.approx(1 / 24, rel=1e-12)

    def test_off_grid_delta_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("delta,value\n0,1\n0.3,0.5\n0.5,0.2\n0.7,0.5\n")
        with pytest.raises(ValueError):
            read_covariogram_csv(f)
