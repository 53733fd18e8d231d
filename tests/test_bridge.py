"""Bridge constructions, their spectra, and the proof-side numeric identity."""

import math

import numpy as np
import pytest

from periodicgp import bridge, synthesis
from periodicgp.core import AliasingError, TailDecay
from periodicgp.synthesis import RngStream, empirical_covariogram


class TestClosedForms:
    def test_centered_bridge_values(self):
        g = bridge.centered_bridge_covariogram(64)
        assert g.at(0.0) == pytest.approx(1 / 6)
        assert g.at(0.25) == pytest.approx(7 / 96)
        assert g.at(0.5) == pytest.approx(1 / 24)

    def test_centralized_bridge_values(self):
        g = bridge.centralized_bridge_covariogram(64)
        assert g.at(0.0) == pytest.approx(1 / 12)
        assert g.at(0.25) == pytest.approx(-1 / 96)
        assert g.at(0.5) == pytest.approx(-1 / 24)

    def test_variants_differ_by_constant_twelfth(self):
        a = bridge.centered_bridge_covariogram(64)
        b = bridge.centralized_bridge_covariogram(64)
        for d in (0.0, 7 / 64, 23 / 64, 0.5):
            assert a.at(d) - b.at(d) == pytest.approx(1 / 12)

    @pytest.mark.parametrize("n", [4, 64, 4096])
    @pytest.mark.parametrize("make, shift", [
        (bridge.centered_bridge_covariogram, 1 / 24),
        (bridge.centralized_bridge_covariogram, -1 / 24),
    ], ids=["centered", "centralized"])
    def test_tabulated_bit_for_bit_on_the_grid(self, make, shift, n):
        g = make(n)
        assert g.n == n
        assert np.array_equal(g.values, (np.arange(n) / n - 0.5) ** 2 / 2 + shift)


class TestCenteredBridgeCoefficients:
    def test_known_values(self):
        c = bridge.centered_bridge_coefficients()
        assert c.c0**2 == pytest.approx(1 / 12)
        assert c.c[2] ** 2 == pytest.approx(1 / (36 * math.pi**2))
        assert c.declared_tail == TailDecay(q=2.0, const=1 / (4 * math.pi**2))

    def test_h_norm_closed_form(self):
        from periodicgp.core import h_norm
        assert h_norm(bridge.centered_bridge_coefficients()) == pytest.approx(
            math.sqrt(1 / 6), rel=1e-9)


class TestPlainBridge:
    def test_no_modes_means_zero_path(self):
        path = bridge.plain_bridge_path(64, M=0, rng=RngStream(0, 0))
        assert np.allclose(path.values, 0.0)

    def test_left_end_pinned_exactly(self):
        for seed in range(5):
            path = bridge.plain_bridge_path(256, rng=RngStream(seed, 0))
            assert path.values[0] == 0.0

    def test_transform_route_matches_direct_sum(self):
        # every M goes through the doubled-grid transform; check by hand
        n = 128
        for M in (40, 16):
            path = bridge.plain_bridge_path(n, M=M, rng=RngStream(3, 0))
            w = RngStream(3, 0).generator().standard_normal(M)
            t = np.arange(n) / n
            hand = np.zeros(n)
            for k in range(1, M + 1):
                hand += math.sqrt(2) * w[k - 1] * np.sin(np.pi * k * t) / (k * math.pi)
            assert np.max(np.abs(path.values - hand)) < 1e-12

    def test_midpoint_variance_is_quarter(self):
        e = bridge.bridge_ensemble("plain", 20000, 256, 5)
        x = e.values[:, 128]
        v = x.var(ddof=1)
        se = v * math.sqrt(2 / 20000)
        assert abs(v - 0.25) < 3 * se


class TestCenteredShift:
    def test_zero_shift_reduces_to_plain(self):
        # find a stream whose first uniform draw is the zero offset
        n = 64
        seed = next(s for s in range(1000)
                    if RngStream(s, 0).generator().integers(n) == 0)
        path = bridge.bridge_path("centered_shift", n, rng=RngStream(seed, 0))
        gen = RngStream(seed, 0).generator()
        gen.integers(n)  # consume the offset draw
        w = gen.standard_normal(n // 2)
        t = np.arange(n) / n
        hand = np.zeros(n)
        for k in range(1, n // 2 + 1):
            hand += math.sqrt(2) * w[k - 1] * np.sin(np.pi * k * t) / (k * math.pi)
        assert np.allclose(path.values, hand, atol=1e-12)

    def test_shifts_compose_as_a_group(self):
        path = bridge.bridge_path("centered_shift", 64, rng=RngStream(8, 0))
        v = path.values
        assert np.array_equal(np.roll(np.roll(v, 13), 21), np.roll(v, 34))

    def test_covariogram_at_antipode(self):
        e = bridge.bridge_ensemble("centered_shift", 20000, 256, 6)
        est = empirical_covariogram(e, [0, 64, 128])
        target = [1 / 6, 7 / 96, 1 / 24]
        for i in range(3):
            assert abs(est.value[i] - target[i]) < 3 * est.stderr[i]


class TestCentralizedBridge:
    def test_grid_mean_removed_exactly(self):
        e = bridge.bridge_ensemble("centralized", 50, 256, 7)
        assert np.max(np.abs(e.values.mean(axis=1))) < 1e-14

    def test_pointwise_variance_and_antipode(self):
        R, n = 20000, 512
        e = bridge.bridge_ensemble("centralized", R, n, 9)
        x = e.values[:, n // 3]
        v = x.var(ddof=1)
        assert abs(v - 1 / 12) < 3 * v * math.sqrt(2 / R)
        est = empirical_covariogram(e, [n // 2])
        assert abs(est.value[0] + 1 / 24) < 3 * est.stderr[0]


class TestBridgeDispatch:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            bridge.bridge_path("folded", 64, rng=RngStream(0, 0))

    def test_series_variant_uses_canonical_coefficients(self):
        a = bridge.bridge_path("centered_series", 64, rng=RngStream(4, 0))
        c = bridge.centered_bridge_coefficients()
        b = synthesis.sample_path(c, 31, 64, RngStream(4, 0))
        assert np.array_equal(a.values, b.values)

    def test_series_truncation_above_nyquist_raises(self):
        with pytest.raises(AliasingError):
            bridge.bridge_path("centered_series", 64, M=40, rng=RngStream(0, 0))

    def test_missing_stream_is_a_value_error(self):
        with pytest.raises(ValueError, match="RngStream"):
            bridge.plain_bridge_path(64)
        for variant in bridge.VARIANTS:
            with pytest.raises(ValueError, match="RngStream"):
                bridge.bridge_path(variant, 64)


class TestDecomposition:
    def test_smoke_at_moderate_scale(self):
        rep = bridge.decomposition_check(4000, 256, master_seed=0)
        assert rep.var_z_target == pytest.approx(1 / 12)
        assert rep.var_ok and rep.cov_ok and rep.corr_ok
        assert rep.passed
        # residual covariogram target at delta = 1/4 is the centralized value
        i = rep.lags.index(64)
        assert rep.residual_cov_target[i] == pytest.approx(-1 / 96)

    def test_band_parameter_respected(self):
        strict = bridge.decomposition_check(2000, 128, master_seed=1, band=1e-9)
        assert not strict.passed


class TestProofIdentity:
    def test_million_terms_close_gap_k1(self):
        out = bridge.proof_identity(1, 10**6)
        assert out.target == pytest.approx(1 / (4 * math.pi**2), rel=1e-15)
        assert out.gap < 1e-6

    def test_million_terms_close_gap_k2(self):
        out = bridge.proof_identity(2, 10**6)
        assert out.target == pytest.approx(1 / (16 * math.pi**2), rel=1e-15)
        assert out.gap < 1e-6

    def test_first_term_by_hand(self):
        # m = 0 term: (1/pi^4) (1/3 + 1)^2 = 16/(9 pi^4)
        out = bridge.proof_identity(1, 1)
        assert out.partial_sum == pytest.approx(16 / (9 * math.pi**4), rel=1e-14)
        assert out.gap == pytest.approx(1 / (4 * math.pi**2) - 16 / (9 * math.pi**4),
                                        rel=1e-12)

    def test_partial_sums_increase_and_stay_below_target(self):
        sums = [bridge.proof_identity(3, t).partial_sum for t in (1, 10, 100, 10000)]
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert all(s < 1 / (36 * math.pi**2) for s in sums)
