"""Random-series synthesis: truncation choice, paths, ensembles, estimators."""

import math

import numpy as np
import pytest
from scipy import stats

from periodicgp import bridge, dft, synthesis
from periodicgp.core import (
    AliasingError,
    DegenerateDataError,
    PathEnsemble,
    SpectralCoefficients,
    TailDecay,
)
from periodicgp.synthesis import (
    RngStream,
    empirical_covariogram,
    replicate_lag_products,
    sample_ensemble,
    sample_path,
    truncation_index,
)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(99, 1).generator().standard_normal(5)
        b = RngStream(99, 1).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(99, 0).generator().standard_normal(5)
        b = RngStream(99, 1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)


class TestTruncationIndex:
    def test_finite_support_needs_nothing_beyond_it(self):
        c = SpectralCoefficients(1.0, (0.0, 0.0))
        assert truncation_index(c, 0.5) == 0

    def test_one_over_k_at_one_percent(self):
        tail = TailDecay(q=2.0, const=1.0)
        c = SpectralCoefficients(0.0, tuple(1.0 / k for k in range(1, 201)),
                                 declared_tail=tail)
        assert truncation_index(c, 0.01) == 61

    def test_eps_zero_rejected(self):
        tail = TailDecay(q=2.0, const=1.0)
        c = SpectralCoefficients(0.0, (1.0,), declared_tail=tail)
        with pytest.raises(ValueError):
            truncation_index(c, 0.0)

    def test_matches_brute_force_suffix_sums(self):
        tail = TailDecay(q=2.6, const=0.49)  # const applies to squared coefficients
        c = SpectralCoefficients(0.3, tuple(0.7 * k**-1.3 for k in range(1, 400)),
                                 declared_tail=tail)
        K = truncation_index(c, 1e-3)
        total = c.squared_mass()
        tail_at = lambda m: 2 * 0.7**2 * np.sum(np.arange(m + 1, 10**6) ** -2.6)
        assert tail_at(K) <= 1e-3 * total
        assert tail_at(K - 1) > 1e-3 * total


class TestSamplePath:
    def test_zero_coefficients_give_zero_path(self):
        path = sample_path(SpectralCoefficients(0.0, ()), 0, 8, RngStream(0, 0))
        assert np.allclose(path.values, 0.0)

    def test_constant_mode_equals_single_draw(self):
        path = sample_path(SpectralCoefficients(1.0, ()), 0, 8, RngStream(5, 0))
        y0 = RngStream(5, 0).generator().standard_normal(1)[0]
        assert np.allclose(path.values, y0)

    def test_harmonic_amplitudes_carry_sqrt_two(self):
        c = SpectralCoefficients(0.0, (1.0,))
        path = sample_path(c, 1, 8, RngStream(21, 0))
        draws = RngStream(21, 0).generator().standard_normal(3)
        h = dft.analyze(path)
        assert h.sin_coef[0] == pytest.approx(math.sqrt(2) * draws[1], rel=1e-12)
        assert h.cos_coef[0] == pytest.approx(math.sqrt(2) * draws[2], rel=1e-12)

    def test_aliasing_rejected(self):
        c = SpectralCoefficients(0.0, tuple([0.1] * 4))
        with pytest.raises(AliasingError):
            sample_path(c, 4, 8, RngStream(0, 0))

    def test_deterministic(self):
        c = SpectralCoefficients(0.5, (0.3, 0.2, 0.1))
        a = sample_path(c, 3, 16, RngStream(42, 7))
        b = sample_path(c, 3, 16, RngStream(42, 7))
        assert np.array_equal(a.values, b.values)

    def test_truncation_prefix_shares_draws(self):
        # growing K must reuse the identical draws for the leading harmonics
        c = SpectralCoefficients(0.0, tuple(1.0 / k for k in range(1, 9)))
        small = dft.analyze(sample_path(c, 4, 64, RngStream(4, 0)))
        large = dft.analyze(sample_path(c, 8, 64, RngStream(4, 0)))
        assert np.allclose(small.sin_coef[:4], large.sin_coef[:4], atol=1e-12)
        assert np.allclose(small.cos_coef[:4], large.cos_coef[:4], atol=1e-12)

    def test_direct_sum_and_transform_route_agree(self):
        # every truncation takes the transform route; compare a short and a
        # longer one against a plain hand-written sum
        c = SpectralCoefficients(0.2, tuple(1.0 / k**1.5 for k in range(1, 41)))
        for K in (31, 40):
            path = sample_path(c, K, 128, RngStream(9, 0))
            draws = RngStream(9, 0).generator().standard_normal(1 + 2 * K)
            t = np.arange(128) / 128
            hand = np.full(128, 0.2 * draws[0])
            for k in range(1, K + 1):
                hand += math.sqrt(2) * c.c[k - 1] * (
                    draws[2 * k - 1] * np.sin(2 * np.pi * k * t)
                    + draws[2 * k] * np.cos(2 * np.pi * k * t))
            assert np.max(np.abs(path.values - hand)) < 1e-12


class TestSampleEnsemble:
    def test_single_replicate_reduces_to_stream_zero(self):
        c = SpectralCoefficients(0.0, (1.0, 0.5))
        e = sample_ensemble(c, 2, 16, 1, 77)
        path = sample_path(c, 2, 16, RngStream(77, 0))
        assert np.array_equal(e.values[0], path.values)

    def test_replicates_stable_under_extension(self):
        c = SpectralCoefficients(0.0, (1.0, 0.5))
        two = sample_ensemble(c, 2, 16, 2, 77)
        five = sample_ensemble(c, 2, 16, 5, 77)
        assert np.array_equal(two.values, five.values[:2])

    def test_rows_match_single_paths_across_chunks(self):
        # R spans several row chunks; every row must equal the one-path
        # function on its own stream, bit for bit, for every construction
        R, n = 600, 1024
        assert len(dft.row_chunks(R, n)) > 1 and len(dft.row_chunks(R, 2 * n)) > 1
        c = SpectralCoefficients(0.3, (0.8, 0.4, 0.2, 0.1))
        e = sample_ensemble(c, 4, n, R, 13)
        for r in range(R):
            assert np.array_equal(e.values[r], sample_path(c, 4, n, RngStream(13, r)).values)
        for variant in bridge.VARIANTS:
            e = bridge.bridge_ensemble(variant, R, n, 21, M=16)
            for r in range(R):
                alone = bridge.bridge_path(variant, n, M=16, rng=RngStream(21, r))
                assert np.array_equal(e.values[r], alone.values), (variant, r)

    def test_variance_identity_and_gaussian_marginals(self):
        # mean over t of E[x_t^2] equals the truncated squared mass
        coeffs = bridge.centered_bridge_coefficients()
        K, n, R = 100, 256, 8000
        e = sample_ensemble(coeffs, K, n, R, 12)
        target = coeffs.c0**2 + 2 * sum(coeffs.coefficient(k)**2
                                        for k in range(1, K + 1))
        per = (e.values**2).mean(axis=1)
        z = (per.mean() - target) / (per.std(ddof=1) / math.sqrt(R))
        assert abs(z) < 3
        # per-gridpoint normality, Bonferroni over 16 sampled columns
        cols = e.values[:, :: n // 16]
        pvals = [stats.normaltest(cols[:, j]).pvalue for j in range(16)]
        assert min(pvals) > 0.01 / 16
        # covariogram at the antipode agrees with the closed form
        est = empirical_covariogram(e, [n // 2])
        assert abs(est.value[0] - 1 / 24) < 3 * est.stderr[0]


class TestReplicateLagProducts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((3, 16))
        lags = [0, 1, 5, 8]
        got = replicate_lag_products(values, lags)
        for r in range(3):
            for i, d in enumerate(lags):
                brute = np.mean(values[r] * np.roll(values[r], -d))
                assert got[r, i] == pytest.approx(brute, rel=1e-12, abs=1e-14)


class TestEmpiricalCovariogram:
    def test_zero_ensemble(self):
        e = PathEnsemble(8, np.zeros((3, 8)), 0)
        est = empirical_covariogram(e, [0, 1, 4])
        assert np.allclose(est.value, 0.0)

    def test_constant_path_gives_square(self):
        e = PathEnsemble(8, np.full((1, 8), 3.0), 0)
        est = empirical_covariogram(e, [0, 2, 4])
        assert np.allclose(est.value, 9.0)
        assert np.all(np.isnan(est.stderr))  # one replicate: no spread estimate

    def test_circular_shift_leaves_estimator_unchanged(self):
        # the estimator averages over all circular offsets already
        rng = np.random.default_rng(8)
        values = rng.standard_normal((4, 32))
        e = PathEnsemble(32, values, 0)
        shifted = PathEnsemble(32, np.roll(values, 11, axis=1), 0)
        a = empirical_covariogram(e, [0, 3, 16])
        b = empirical_covariogram(shifted, [0, 3, 16])
        assert np.allclose(a.value, b.value, rtol=1e-12, atol=1e-14)

    def test_lag_bounds_checked(self):
        e = PathEnsemble(8, np.zeros((1, 8)), 0)
        with pytest.raises(ValueError):
            empirical_covariogram(e, [8])

    def test_delta_property(self):
        e = PathEnsemble(8, np.zeros((1, 8)), 0)
        est = empirical_covariogram(e, [0, 4])
        assert np.allclose(est.delta, [0.0, 0.5])
