"""Coefficient decay to path regularity, and the empirical estimators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodicgp import bridge, fit, regularity, synthesis
from periodicgp.core import (
    DegenerateDataError,
    ParametricModel,
    PathEnsemble,
    SpectralCoefficients,
)
from periodicgp.regularity import (
    SATURATION_FLAG,
    dyadic_window,
    estimate_holder,
    fit_decay,
    predict_regularity,
    structure_function,
)


class TestPredictRegularity:
    def test_bridge_like_decay(self):
        rep = predict_regularity(2.0)
        assert rep.m == 0
        assert rep.holder_bound == pytest.approx(0.5)

    def test_once_differentiable_band(self):
        rep = predict_regularity(4.0)
        assert rep.m == 1
        assert rep.holder_bound == pytest.approx(0.5)

    def test_twice_differentiable_fractional(self):
        rep = predict_regularity(5.5)
        assert rep.m == 2
        assert rep.holder_bound == pytest.approx(0.25)

    def test_integer_boundary_steps_down(self):
        # at q = 3 the strict inequality 2m + 1 < q keeps m = 0 with a full band
        rep = predict_regularity(3.0)
        assert rep.m == 0
        assert rep.holder_bound == pytest.approx(0.5)

    def test_below_continuity_threshold_rejected(self):
        with pytest.raises(ValueError, match="q > 1"):
            predict_regularity(1.0)

    @given(st.floats(min_value=1.0001, max_value=20),
           st.floats(min_value=0, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_decay_rate(self, q, bump):
        lo, hi = predict_regularity(q), predict_regularity(q + bump)
        assert (hi.m, hi.holder_bound) >= (lo.m, lo.holder_bound)


class TestFitDecay:
    def test_exact_inverse_k(self):
        c = SpectralCoefficients(0.0, tuple(1.0 / k for k in range(1, 65)))
        out = fit_decay(c, 1, 64)
        assert out.q == pytest.approx(2.0, abs=1e-10)
        assert out.residual == pytest.approx(0.0, abs=1e-10)

    def test_exact_power_law_with_amplitude(self):
        c = SpectralCoefficients(0.0, tuple(3.0 * k**-1.5 for k in range(1, 33)))
        out = fit_decay(c)
        assert out.q == pytest.approx(3.0, abs=1e-9)
        assert out.constant == pytest.approx(9.0, rel=1e-9)

    def test_bridge_coefficients(self):
        out = fit_decay(bridge.centered_bridge_coefficients())
        assert out.q == pytest.approx(2.0, abs=1e-9)
        assert out.constant == pytest.approx(1 / (4 * math.pi**2), rel=1e-9)

    def test_zero_mass_in_window_rejected(self):
        c = SpectralCoefficients(0.0, (1.0, 0.5, 0.0, 0.25, 0.1))
        with pytest.raises(DegenerateDataError, match="zero spectral mass"):
            fit_decay(c)

    def test_short_window_rejected(self):
        c = SpectralCoefficients(0.0, (1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            fit_decay(c)

    def test_consistency_chain_for_parametric_model(self):
        for p in (0.75, 1.0):
            c = fit.model_coefficients(ParametricModel(1.0, p), 64)
            out = fit_decay(c)
            assert out.q == pytest.approx(2 * p, abs=1e-9)
            rep = predict_regularity(out.q)
            assert rep.holder_bound == pytest.approx(p - 0.5, abs=1e-9)
        rep = predict_regularity(4.0)  # p = 2
        assert (rep.m, rep.holder_bound) == (1, pytest.approx(0.5))


class TestStructureFunction:
    def test_constant_paths_have_no_increments(self):
        e = PathEnsemble(64, np.full((3, 64), 2.5))
        sf = structure_function(e, [1, 4, 16])
        assert np.allclose(sf.value, 0.0)

    def test_bridge_matches_closed_form(self):
        # S(h) = 2(C(0) - C(h)) = h(1-h) for the centered bridge
        e = bridge.bridge_ensemble("centered_shift", 8000, 1024, 13)
        sf = structure_function(e, [102, 512])
        h = np.array([102 / 1024, 0.5])
        target = h - h * h
        z = (sf.value - target) / sf.stderr
        assert np.max(np.abs(z)) < 3

    def test_matches_reconstructed_covariogram(self):
        from periodicgp.spectral import coeffs_to_covariogram
        c = SpectralCoefficients(0.0, (0.8, 0.4, 0.2))
        e = synthesis.sample_ensemble(c, 3, 64, 4000, 18)
        g = coeffs_to_covariogram(c, 64)
        lags = [1, 4, 16, 32]
        sf = structure_function(e, lags)
        target = np.array([2 * (g.at(0.0) - g.at(d / 64)) for d in lags])
        z = (sf.value - target) / sf.stderr
        assert np.max(np.abs(z)) < 3

    def test_same_type_as_the_covariogram_estimate(self):
        e = PathEnsemble(64, np.cos(np.arange(128.0)).reshape(2, 64))
        sf = structure_function(e, [1, 4, 16])
        assert type(sf) is type(synthesis.empirical_covariogram(e, [0, 1]))
        assert np.array_equal(sf.delta, np.array([1, 4, 16]) / 64)

    def test_stderr_keeps_its_bits_and_stays_finite_at_huge_scale(self):
        x = np.random.default_rng(5).standard_normal((7, 64))
        per = synthesis.replicate_lag_products(x, [0, 1, 2])
        want = (2.0 * (per[:, :1] - per[:, 1:])).std(axis=0, ddof=1) / math.sqrt(7)
        unit = structure_function(PathEnsemble(64, x), [1, 2])
        assert np.array_equal(unit.stderr, want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # squared deviations of ~1e300 products overflow
            huge = structure_function(PathEnsemble(64, x * 1e150), [1, 2])
        assert np.allclose(huge.stderr / 1e300, unit.stderr, rtol=1e-9, atol=0)

    def test_lag_bounds(self):
        e = PathEnsemble(64, np.zeros((1, 64)))
        with pytest.raises(ValueError):
            structure_function(e, [0])
        with pytest.raises(ValueError):
            structure_function(e, [33])


class TestDyadicWindow:
    def test_powers_of_two_up_to_an_eighth(self):
        assert dyadic_window(1024) == (1, 2, 4, 8, 16, 32, 64, 128)

    def test_small_grid(self):
        assert dyadic_window(64) == (1, 2, 4, 8)


class TestEstimateHolder:
    def test_rough_parametric_ensemble(self):
        m = fit.model_coefficients(ParametricModel(1.0, 1.0), 511)
        e = synthesis.sample_ensemble(m, 511, 1024, 500, 14)
        est = estimate_holder(e)
        assert 0.35 < est.exponent < 0.65
        assert est.flag is None

    def test_smooth_ensemble_saturates_and_flags(self):
        m = fit.model_coefficients(ParametricModel(1.0, 2.1), 511)
        e = synthesis.sample_ensemble(m, 511, 1024, 500, 15)
        est = estimate_holder(e)
        assert est.exponent >= 0.9
        assert est.raw_slope > 1.9
        assert est.flag == SATURATION_FLAG

    def test_heavy_spectrum_low_exponent(self):
        # decay exponent q = 1.2 predicts a Holder bound of 0.1
        c = SpectralCoefficients(0.0, tuple(k**-0.6 for k in range(1, 512)))
        e = synthesis.sample_ensemble(c, 511, 1024, 2000, 17)
        est = estimate_holder(e)
        assert 0.0 < est.exponent <= 0.2

    def test_report_capped_at_one(self):
        m = fit.model_coefficients(ParametricModel(1.0, 3.1), 511)
        e = synthesis.sample_ensemble(m, 511, 1024, 200, 19)
        est = estimate_holder(e)
        assert est.exponent <= 1.0

    def test_fortran_ordered_input_is_stored_c_contiguous_with_the_same_estimate(self):
        x = np.random.default_rng(23).standard_normal((8, 256)).cumsum(axis=1)
        e = PathEnsemble(256, np.asfortranarray(x))
        assert e.values.flags.c_contiguous
        assert estimate_holder(e) == estimate_holder(PathEnsemble(256, x))

    def test_window_needs_four_lags(self):
        e = PathEnsemble(16, np.random.default_rng(0).standard_normal((2, 16)))
        with pytest.raises(ValueError):
            estimate_holder(e)

    def test_constant_ensemble_rejected(self):
        e = PathEnsemble(1024, np.ones((2, 1024)))
        with pytest.raises(ValueError):
            estimate_holder(e)
