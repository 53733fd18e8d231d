"""Profile-likelihood estimation of the power-law family and its diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from periodicgp import bridge, dft, fit, synthesis
from periodicgp.core import (
    DegenerateDataError,
    GridPath,
    ParametricModel,
    SpectralCoefficients,
    TailDecay,
)
from periodicgp.fit import (
    DISPERSION_THRESHOLD,
    fit_mle,
    goodness_of_fit,
    model_coefficients,
    profile_amplitude,
    standardized_residuals,
)


def _decomposition(n, sin_coef, cos_coef):
    return dft.HarmonicDecomposition(
        n, 0.0, np.asarray(sin_coef, float), np.asarray(cos_coef, float), 0.0)


def _noise_free_path(a, p, K, n):
    # every draw set to one: x_t = sqrt(2) sum a k^-p (sin + cos)
    t = np.arange(n) / n
    x = np.zeros(n)
    for k in range(1, K + 1):
        x += math.sqrt(2) * a * k**-p * (np.sin(2 * np.pi * k * t)
                                         + np.cos(2 * np.pi * k * t))
    return GridPath(n, x)


class TestModelCoefficients:
    def test_power_law_with_declared_tail(self):
        c = model_coefficients(ParametricModel(2.0, 1.5), 4)
        assert c.c0 == 0.0
        assert c.c == pytest.approx([2.0, 2.0 / 2**1.5, 2.0 / 3**1.5, 0.25])
        assert c.declared_tail == TailDecay(q=3.0, const=4.0)


class TestProfileAmplitude:
    def test_unit_noise_free_harmonics(self):
        K, n = 16, 64
        k = np.arange(1, n // 2)
        amp = np.where(k <= K, math.sqrt(2) / k, 0.0)
        h = _decomposition(n, amp, amp)
        assert profile_amplitude(h, 1.0, K) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_harmonics_quadruples_energy(self):
        rng = np.random.default_rng(1)
        s, c = rng.standard_normal((2, 31))
        one = profile_amplitude(_decomposition(64, s, c), 1.3, 16)
        four = profile_amplitude(_decomposition(64, 2 * s, 2 * c), 1.3, 16)
        assert four == pytest.approx(4 * one, rel=1e-12)

    def test_single_harmonic(self):
        s = np.zeros(31)
        s[0] = 2.0
        h = _decomposition(64, s, np.zeros(31))
        assert profile_amplitude(h, 1.0, 1) == pytest.approx(1.0, rel=1e-12)


class TestFitMle:
    def test_noise_free_recovery(self):
        path = _noise_free_path(1.3, 1.7, 256, 1024)
        res = fit_mle(path)
        assert res.p_hat == pytest.approx(1.7, abs=1e-9)
        assert res.a_hat == pytest.approx(1.3, abs=1e-9)
        assert res.convergence.converged
        assert res.convergence.flag == "interior"

    def test_scale_equivariance(self):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(0, 0))
        base = fit_mle(path)
        scaled = fit_mle(GridPath(1024, 3.0 * path.values))
        assert scaled.p_hat == pytest.approx(base.p_hat, abs=1e-9)
        assert scaled.a_hat == pytest.approx(3.0 * base.a_hat, rel=1e-9)

    def test_pure_tone_pins_at_boundary(self):
        t = np.arange(1024) / 1024
        res = fit_mle(GridPath(1024, np.sin(2 * np.pi * t)), K=8)
        assert res.p_hat == pytest.approx(6.0)
        assert res.convergence.flag == "boundary"

    def test_top_tone_pins_at_lower_bound(self):
        # all energy at k = K: g' > 0 at the lower bound, one evaluation decides
        t = np.arange(1024) / 1024
        res = fit_mle(GridPath(1024, np.sin(2 * np.pi * 8 * t)), K=8)
        assert res.p_hat == 0.55
        assert res.convergence.flag == "boundary"
        assert res.convergence.iterations == 1
        assert res.convergence.bracket == (0.55, 6.0)

    # p_hat of criterion 8's paths (seed, p_hat), from the scan / golden-section
    # / Newton solver this one replaced
    @pytest.mark.parametrize("seed, p_hat", [
        (0, 1.460361360277031),
        (1, 1.4714090940379736),
        (17, 1.5362390992602148),
        (100, 1.481629658430418),
        (199, 1.5134623907726306),
    ])
    def test_pinned_criterion_8_estimates(self, seed, p_hat):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(seed, 0))
        res = fit_mle(path, K=256)
        assert res.p_hat == pytest.approx(p_hat, abs=1e-10)
        assert res.convergence.converged
        assert res.convergence.flag == "interior"
        lo, hi = res.convergence.bracket
        assert 0.55 <= lo <= res.p_hat <= hi <= 6.0

    def test_wide_bounds_do_not_overflow(self):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            wide = fit_mle(path, K=256, p_bounds=(0.55, 200.0))
        assert wide.p_hat == pytest.approx(fit_mle(path, K=256).p_hat, abs=1e-10)
        assert wide.convergence.flag == "interior"

    def test_constant_path_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="degenerate observation"):
            fit_mle(GridPath(256, np.full(256, 4.0)))

    def test_nonzero_mean_reported_not_fitted(self):
        path = _noise_free_path(1.0, 1.5, 100, 512)
        shifted = GridPath(512, path.values + 7.0)
        res = fit_mle(shifted)
        assert res.path_mean == pytest.approx(7.0, abs=1e-12)
        assert res.p_hat == pytest.approx(fit_mle(path).p_hat, abs=1e-9)

    def test_window_bounds_checked(self):
        path = _noise_free_path(1.0, 1.5, 100, 512)
        with pytest.raises(ValueError):
            fit_mle(path, K=3)
        with pytest.raises(ValueError):
            fit_mle(path, K=256)

    def test_spread_shrinks_with_window(self):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        spreads = []
        for K in (32, 128, 256):
            p_hats = [
                fit_mle(synthesis.sample_path(m, 511, 1024,
                                              synthesis.RngStream(s, 0)), K=K).p_hat
                for s in range(60)
            ]
            spreads.append(np.std(p_hats, ddof=1))
        assert spreads[0] > spreads[1] > spreads[2]


class TestGoodnessOfFit:
    def test_well_specified_residuals(self):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(3, 0))
        res = fit_mle(path)
        rep = goodness_of_fit(path, res)
        # the profile stationarity condition forces mean one at the optimum
        assert rep.residual_mean == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.residual_mean - 1.0) < 3 / math.sqrt(res.K_used)
        assert rep.dispersion < DISPERSION_THRESHOLD
        assert rep.ks_pvalue > 0.01
        assert not rep.flagged

    def test_residual_vector_matches_report(self):
        m = model_coefficients(ParametricModel(1.0, 1.5), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(5, 0))
        res = fit_mle(path)
        r = standardized_residuals(dft.analyze(path), res)
        assert r.shape == (res.K_used,)
        assert r.mean() == pytest.approx(goodness_of_fit(path, res).residual_mean)

    def test_misspecified_bridge_flags_when_window_crosses_fold(self):
        # a plain bridge populates integer harmonics only up to n/4; a fit
        # window reaching past that cliff sees the missing mass and the
        # residual dispersion blows past the threshold
        path = bridge.bridge_path("plain", 1024, rng=synthesis.RngStream(0, 0))
        res = fit_mle(path, K=400)
        rep = goodness_of_fit(path, res)
        assert rep.dispersion > DISPERSION_THRESHOLD
        assert rep.flagged

    def test_misspecified_bridge_in_band_looks_clean(self):
        # below the fold the plain bridge is an exact power law with equal
        # sine and cosine energy, so the default window cannot tell it apart
        path = bridge.bridge_path("plain", 1024, rng=synthesis.RngStream(0, 0))
        res = fit_mle(path)  # default K = n/4
        rep = goodness_of_fit(path, res)
        assert rep.dispersion < DISPERSION_THRESHOLD
        assert not rep.flagged

    @pytest.mark.parametrize("variant, K", [("series", None), ("plain", None), ("plain", 400)])
    def test_ks_fields_equal_scipy_kstest(self, variant, K):
        if variant == "series":
            m = model_coefficients(ParametricModel(1.0, 1.5), 511)
            path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(3, 0))
        else:
            path = bridge.bridge_path("plain", 1024, rng=synthesis.RngStream(0, 0))
        res = fit_mle(path, K=K)
        rep = goodness_of_fit(path, res)
        ks = kstest(standardized_residuals(dft.analyze(path), res), "expon")
        assert rep.ks_statistic == ks.statistic
        assert rep.ks_pvalue == ks.pvalue
