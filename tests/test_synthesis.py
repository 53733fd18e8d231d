"""Random-series synthesis: truncation choice, paths, ensembles, estimators."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from periodicgp import bridge, dft, fit, regularity, synthesis
from periodicgp.core import (
    AliasingError,
    DegenerateDataError,
    GridPath,
    ParametricModel,
    PathEnsemble,
    SpectralCoefficients,
    TailDecay,
)
from periodicgp.synthesis import (
    RngStream,
    empirical_covariogram,
    replicate_lag_products,
    replicate_mean,
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

    @pytest.mark.parametrize("seed, stream", [
        (1.5, 0), (1.0, 0), (np.float64(2.0), 0), (True, 0), (np.True_, 0), ("7", 0),
        (7, 0.5), (7, False),
    ])
    def test_non_integral_seed_or_stream_refused(self, seed, stream):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream)

    def test_integer_scalars_are_stored_as_ints(self):
        s = RngStream(np.uint64(2 ** 64 - 1), np.int64(3))
        assert type(s.master_seed) is int and type(s.stream_id) is int
        assert s == RngStream(2 ** 64 - 1, 3)
        want = np.random.default_rng([2 ** 64 - 1, 3]).standard_normal(4)
        assert np.array_equal(s.generator().standard_normal(4), want)

    def test_ensembles_refuse_a_float_seed(self):
        c = SpectralCoefficients(0.0, (1.0, 0.5))
        with pytest.raises(ValueError, match="master seed must be an integer"):
            sample_ensemble(c, 7, 16, 2, master_seed=1.5)
        with pytest.raises(ValueError, match="master seed must be an integer"):
            bridge.bridge_ensemble("plain", 2, 16, 1.5)


class TestBatchedSeeding:
    """Several streams of one seed are seeded in one batch, exactly as default_rng([seed, r])."""

    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 11, 2 ** 64 - 1,
             *np.random.default_rng(8128).integers(0, 2 ** 64, 58, dtype=np.uint64).tolist()]
    STREAM_IDS = [0, 1, 2, 255, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40,
                  2 ** 64 - 1, *range(1000, 1038)]

    def test_states_equal_default_rng_on_thousands_of_pairs(self):
        assert len(self.SEEDS) * len(self.STREAM_IDS) > 3000
        for seed in self.SEEDS:
            got = synthesis._seed_words(seed, self.STREAM_IDS)
            want = [np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
                    for r in self.STREAM_IDS]
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            assert np.array_equal(got, want), seed

    def test_self_check_passes_and_ensembles_take_the_batch(self):
        synthesis._seeding_self_check.cache_clear()
        assert synthesis._seeding_self_check() is True
        gens = synthesis.generators(5, range(3))
        assert all(type(g.bit_generator.seed_seq) is synthesis._SeedWords for g in gens)
        # one stream keeps default_rng
        (g,) = synthesis.generators(5, [0])
        assert type(g.bit_generator.seed_seq) is np.random.SeedSequence

    @pytest.mark.parametrize("seed", [0, 2 ** 32 + 7, 2 ** 64 - 1])
    def test_shared_generator_replays_every_stream(self, seed):
        # each stream takes a shift (a buffered 32-bit draw) and then normals
        ids = (0, 1, 2, 2 ** 32, 7)
        streams = [RngStream(seed, r) for r in ids]
        got = [(gen.integers(1024), gen.standard_normal(5).tobytes())
               for gen in synthesis.generators(seed, ids)]
        want = [(gen.integers(1024), gen.standard_normal(5).tobytes())
                for gen in (s.generator() for s in streams)]
        assert got == want

    def test_listed_batch_draws_in_any_order(self):
        streams = [RngStream(23, r) for r in range(5)]
        gens = synthesis.generators(23, range(5))
        assert len({id(g) for g in gens}) == 5
        got = {r: gens[r].standard_normal(4).tobytes() for r in reversed(range(5))}
        for r, s in enumerate(streams):
            assert got[r] == s.generator().standard_normal(4).tobytes(), r

    def test_strided_words_fail_the_self_check(self, monkeypatch):
        # PCG64 reads the raw buffer: a strided row would seed from other rows' words
        derive, check = synthesis._seed_words, synthesis._seeding_self_check
        monkeypatch.setattr(synthesis, "_seed_words",
                            lambda seed, ids: np.asfortranarray(derive(seed, ids)))
        check.cache_clear()
        try:
            assert check() is False
        finally:
            check.cache_clear()

    def test_corrupted_derivation_falls_back_to_default_rng(self, monkeypatch):
        derive, check = synthesis._seed_words, synthesis._seeding_self_check

        def corrupted(seed, ids):
            words = derive(seed, ids)
            words[:, 0] ^= np.uint64(1)  # one bit of each stream's state word
            return words

        monkeypatch.setattr(synthesis, "_seed_words", corrupted)
        check.cache_clear()
        try:
            assert check() is False
            R, n, c = 6, 64, SpectralCoefficients(0.3, (0.8, 0.4, 0.2))
            e = sample_ensemble(c, 3, n, R, 17)
            for r in range(R):
                assert np.array_equal(e.values[r], sample_path(c, 3, n, RngStream(17, r)).values)
            for variant in bridge.VARIANTS:
                b = bridge.bridge_ensemble(variant, R, n, 19, M=8)
                for r in range(R):
                    alone = bridge.bridge_path(variant, n, M=8, rng=RngStream(19, r))
                    assert np.array_equal(b.values[r], alone.values), (variant, r)
            # unguarded, the corrupted words would have changed the rows
            monkeypatch.setattr(synthesis, "_seeding_self_check", lambda: True)
            assert not np.array_equal(sample_ensemble(c, 3, n, R, 17).values, e.values)
        finally:
            check.cache_clear()


class TestTruncationIndex:
    def test_finite_support_needs_nothing_beyond_it(self):
        c = SpectralCoefficients(1.0, (0.0, 0.0))
        assert truncation_index(c, 0.5) == 0

    @pytest.mark.parametrize("tail", [None, TailDecay(q=2.0, const=0.0)])
    def test_all_zero_coefficients_need_no_harmonic(self, tail):
        c = SpectralCoefficients(0.0, (0.0, 0.0, 0.0), declared_tail=tail)
        assert c.squared_mass() == 0.0
        assert truncation_index(c, 1e-6) == 0

    def test_tail_exactly_at_the_budget_meets_it(self):
        # the tail beyond K = 1 holds 2 of the mass 4, exactly eps = 0.5 of it
        c = SpectralCoefficients(0.0, (1.0, 1.0))
        assert truncation_index(c, 0.5) == 1

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

    def test_declared_power_tail_equals_stored_coefficients_bit_for_bit(self):
        # the CLI samples a / k**p from model_coefficients(m, 1), whose declared tail
        # gives sqrt(a**2) * k**(-2p / 2) beyond k = 1: equal to storing all K of them
        rng = np.random.default_rng(2011)
        cases = [(1.5e-154, 0.9, 200), (1.6e-154, 4.0, 37), (1e150, 0.55, 255),
                 (9.7e149, 2.3, 90)]
        cases += [(10.0 ** rng.uniform(-153.8, 150.0), rng.uniform(0.501, 6.0),
                   int(rng.integers(0, 256))) for _ in range(200)]
        for seed, (a, p, K) in enumerate(cases):
            m = ParametricModel(a, p)
            short = sample_ensemble(fit.model_coefficients(m, 1), K, 512, 2, seed)
            full = sample_ensemble(fit.model_coefficients(m, max(K, 1)), K, 512, 2, seed)
            assert np.array_equal(short.values, full.values), (a, p, K)

    def test_variance_identity_and_gaussian_marginals(self):
        # mean over t of E[x_t^2] equals the truncated squared mass
        coeffs = bridge.centered_bridge_coefficients()
        K, n, R = 100, 256, 8000
        e = sample_ensemble(coeffs, K, n, R, 12)
        target = coeffs.c0**2 + 2 * np.sum(coeffs.materialize(K) ** 2)
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


class TestReplicateMean:
    def test_keeps_the_bits_of_numpy_mean_and_std(self):
        per = np.random.default_rng(4).standard_normal((9, 3)) * [1.0, 1e-3, 7e5]
        mean, se = replicate_mean(per)
        assert np.array_equal(mean, per.mean(axis=0))
        assert np.array_equal(se, per.std(axis=0, ddof=1) / 3.0)

    def test_near_the_float_range_neither_sum_nor_squares_overflow(self):
        per = np.array([[1.7e308, 1.0], [1.6e308, 2.0], [1.5e308, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = replicate_mean(per)
        assert mean == pytest.approx([1.6e308, 7 / 3], rel=1e-15)
        assert se == pytest.approx([1e307 / math.sqrt(3), per[:, 1].std(ddof=1) / math.sqrt(3)])


class TestEmpiricalCovariogram:
    def test_zero_ensemble(self):
        e = PathEnsemble(8, np.zeros((3, 8)))
        est = empirical_covariogram(e, [0, 1, 4])
        assert np.allclose(est.value, 0.0)

    def test_constant_path_gives_square(self):
        e = PathEnsemble(8, np.full((1, 8), 3.0))
        est = empirical_covariogram(e, [0, 2, 4])
        assert np.allclose(est.value, 9.0)
        assert np.all(np.isnan(est.stderr))  # one replicate: no spread estimate

    def test_circular_shift_leaves_estimator_unchanged(self):
        # the estimator averages over all circular offsets already
        rng = np.random.default_rng(8)
        values = rng.standard_normal((4, 32))
        e = PathEnsemble(32, values)
        shifted = PathEnsemble(32, np.roll(values, 11, axis=1))
        a = empirical_covariogram(e, [0, 3, 16])
        b = empirical_covariogram(shifted, [0, 3, 16])
        assert np.allclose(a.value, b.value, rtol=1e-12, atol=1e-14)

    def test_lag_bounds_checked(self):
        e = PathEnsemble(8, np.zeros((1, 8)))
        with pytest.raises(ValueError):
            empirical_covariogram(e, [8])

    def test_delta_property(self):
        e = PathEnsemble(8, np.zeros((1, 8)))
        est = empirical_covariogram(e, [0, 4])
        assert np.allclose(est.delta, [0.0, 0.5])



class TestReferenceLayout:
    """Rows filled in the transform buffer equal irfft of dft.spectrum, bit for bit."""

    N = 64
    STREAMS = [RngStream(2 ** 63 + 11, r) for r in range(3)]

    @pytest.mark.parametrize("K", [0, 1, N // 2 - 1])
    def test_series_rows(self, K):
        c = SpectralCoefficients(c0=0.8, c=tuple(1.0 / np.arange(1, K + 1) ** 1.6))
        draws = np.array([s.generator().standard_normal(1 + 2 * K) for s in self.STREAMS])
        amp = math.sqrt(2.0) * c.materialize(K)
        F = dft.spectrum(self.N, c.c0 * draws[:, 0], amp * draws[:, 1::2],
                         amp * draws[:, 2::2])
        want = np.fft.irfft(F, self.N, axis=1)
        gens = [s.generator() for s in self.STREAMS]
        assert synthesis._series_rows(c, K, self.N, gens).tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", ["plain", "centered_shift", "centralized"])
    @pytest.mark.parametrize("M", [0, 1, N - 1])
    def test_sine_rows(self, variant, M):
        n = self.N
        shifts, w = [], np.empty((len(self.STREAMS), M))
        for i, s in enumerate(self.STREAMS):
            gen = s.generator()  # the shift comes first, then the W block
            shifts.append(int(gen.integers(n)) if variant == "centered_shift" else 0)
            w[i] = gen.standard_normal(M)
        amp = math.sqrt(2.0) * w / (np.arange(1, M + 1) * np.pi)
        want = np.fft.irfft(dft.spectrum(2 * n, 0.0, amp, 0.0), 2 * n, axis=1)[:, :n]
        want[:, 0] = 0.0
        want = np.array([np.roll(x, shift) for x, shift in zip(want, shifts)])
        if variant == "centralized":
            want = want - want.mean(axis=1, keepdims=True)
        gens = [s.generator() for s in self.STREAMS]
        assert bridge._sine_rows(variant, n, M, gens).tobytes() == want.tobytes()

# SHA-256 of in-memory outputs at the benchmark's sizes: n = 4096 series
# ensembles of R = 250 and n = 1024 bridge ensembles of R = 2000, both
# spanning several row chunks.  Each case pins the rows, the covariogram
# estimate at dyadic lags and the Holder estimate computed from them.
SERIES_N, SERIES_R, BRIDGE_N, BRIDGE_R = 4096, 250, 1024, 2000
PINNED_ON_NUMPY = "2.4.6"  # rows depend on numpy's seeding, samplers and FFT

PINNED_ENSEMBLE_DIGESTS = {
    "series:2047": {
        "rows": "668f65953143ee71133b26c4f3b8d107ce24b9c5b82887447b0dfe2b4973c46c",
        "covariogram": "94810e2fba128ccaed800d513598a9691995bcb7fa1f3f5217eb208c193835ea",
        "holder": "2b5aab6bff00dfc561e621c00fdf90cf26887e9eba9e4790e3f2c12d90205a46",
    },
    "series:4": {
        "rows": "d147426ab0153cc562c2786b2b7698f8820f44eea3e5c85cb1508b38872c504a",
        "covariogram": "c7a1b9dc83d45be464ecc1d7316d8abee4429b6e3e83c29c869aa4e8d15a4c09",
        "holder": "fbb5b70cf744334289109e8fecd9ecd2f5b21f931375e1b4056ab26a6a1dd9a3",
    },
    "bridge:plain@default": {
        "rows": "ed452724f31a6e8ed6297a37ec31e11b45fccc679d92a35fcb643dd6b84bef5e",
        "covariogram": "68feda505715706a242b928a632c5b84891274acb6008a44d5ce090daf7ff383",
        "holder": "ee1d403c3a9f4f928fb0a8333600ca1dff03a53dc62676d1aaef9d3eb1763812",
    },
    "bridge:plain@16": {
        "rows": "b2f90aafa35c5162300bf37751b654bb41cbec3f4d4f1b1505efb18ba6015938",
        "covariogram": "1b329d5d53d101919396e7ecddc29a6bb5b1049a5cf177f6e486fc5f5e928633",
        "holder": "cccd5902293fe6a9d832d7021d6bd76050aa579d04af58da1bf09bcea3c045b5",
    },
    "bridge:centered_shift@default": {
        "rows": "b53033ee59166de9e977f839121db4fd3a51519bc55aec3583eabea30f94c9eb",
        "covariogram": "16cbb94533f6158fa8d1824f233cf8c378021b37546ea995a60f6be760621c7a",
        "holder": "2dabc36accd8a8612267e4e1ff86bf058d24dfb0b9631ec20404c5af6c99ee08",
    },
    "bridge:centered_shift@16": {
        "rows": "4a8ccaec4d1d5f50e90513d6e2954d85d99eb8e6f8f838efa5195f83210e2531",
        "covariogram": "cca5642896f25bd850a24b9dedc622a2c900e6eb92bf16d51e2bac4995670533",
        "holder": "888682ce3560875989e2940fa0f3f4572df2f751e66e30a07b1a6e9ad336a17b",
    },
    "bridge:centralized@default": {
        "rows": "af29021bc54c597502b1c35f7f156be299abc05cbd999d706ebac1acc0f22f52",
        "covariogram": "28c7909a5f9d9e0a712f566b64db643097b56d434f53a5e991ffeb1a89b181bd",
        "holder": "ee8f02f537f47ceb09db6cce0c825b1b9b8ef022b78256ae93b5830632aa0ba2",
    },
    "bridge:centralized@16": {
        "rows": "3808e41fc1dd8f80aacdd6febf49730cdfffdbce4fa5e6d09de6a846a10aa3e5",
        "covariogram": "da9a0c2d0a8dd92b55fe0fa70ce3816f5a9b18e0b4bb7601c68cb01bf0ac993c",
        "holder": "d2f918b96af0811a0c30cd068ba394abe786f56f234f734eed6d55d46574d876",
    },
    "bridge:centered_series@default": {
        "rows": "02ded1c9559cf94c17165dd0fef4e28305cddd62d905fe60921ea536d3daf252",
        "covariogram": "622cb57551b64662fbaf7b5022ec1c676880754c55d3ee1a5ecde01603e64afb",
        "holder": "7f6dee1b4d8f5acaf9f7fa91ca27fb43349e0588acbf8982f97adf0a45623557",
    },
    "bridge:centered_series@16": {
        "rows": "844dc472e558b00149bc9ca37e812bc77f71d393cb3b3695c09f4e1d614326a7",
        "covariogram": "212d41c96f3a9313f97662cad1ded42f1f55ca262c1d8cb92e62a762116415a1",
        "holder": "abc6ebd89694123e22ac2523fd4bb310a2ed224957e12c860b596de244f98bd8",
    },
}


def _pinned_case_ensemble(case: str):
    family, rest = case.split(":")
    if family == "series":
        K = int(rest)
        c = 1.0 / np.arange(1, K + 1) ** 1.6
        c[K // 3] = 0.0  # one zero coefficient
        coeffs = SpectralCoefficients(c0=0.8, c=tuple(c))
        return sample_ensemble(coeffs, K, SERIES_N, SERIES_R, 2718)
    variant, M = rest.split("@")
    return bridge.bridge_ensemble(variant, BRIDGE_R, BRIDGE_N, 31415,
                                  M=None if M == "default" else int(M))


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", [
    f"series:{SERIES_N // 2 - 1}", "series:4",
    *(f"bridge:{v}@{M}" for v in bridge.VARIANTS for M in ("default", "16")),
])
def test_benchmark_size_digests(case):
    e = _pinned_case_ensemble(case)
    lags = [0] + [2 ** i for i in range(int(math.log2(e.n)))]
    est = empirical_covariogram(e, lags)
    holder = regularity.estimate_holder(e)
    got = {"rows": _sha(e.values),
           "covariogram": _sha(est.value, est.stderr),
           "holder": _sha([holder.exponent, holder.stderr, holder.raw_slope])}
    assert got == PINNED_ENSEMBLE_DIGESTS[case], (
        f"digests pinned on numpy {PINNED_ON_NUMPY}; this is numpy {np.__version__}")


# SHA-256 of replicate_lag_products at every lag, for one chunk whose half spectrum
# lies below numpy's 256 KiB temporary-elision threshold (4 x 513 complex) and for
# chunks above it (128 x 2049 complex).  Above it numpy computes F * F.conj() as
# conj(F) F, which rounds differently from np.multiply(F, np.conjugate(F)).
PINNED_LAG_PRODUCT_DIGESTS = {
    (4, 1024): "c94f3cc8b4ddd2a5a2be5e69cc20fd829728f4cc208ede9468aba4ebc9f027e3",
    (250, 4096): "ca8a8fe786bbd21f9c21d228982921361e285d36f4b854f018247af000d7335d",
}


@pytest.mark.parametrize("R, n", sorted(PINNED_LAG_PRODUCT_DIGESTS))
def test_lag_product_digests_on_both_sides_of_elision(R, n):
    values = np.random.default_rng([R, n]).standard_normal((R, n))
    got = _sha(replicate_lag_products(values, np.arange(n)))
    assert got == PINNED_LAG_PRODUCT_DIGESTS[R, n], (
        f"digests pinned on numpy {PINNED_ON_NUMPY}; this is numpy {np.__version__}")


def _peak_mib(call) -> float:
    """Peak traced allocation of call(), in MiB, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestInPlaceEnsembles:
    """Samplers write their rows into the ensemble's own array and wrap it uncopied."""

    COEFFS = fit.model_coefficients(ParametricModel(1.0, 1.1), 2047)

    def test_series_ensemble_peak_is_one_ensemble_and_one_chunk(self):
        # 7.81 MiB of rows and a 4.0 MiB half spectrum per 128-row chunk
        peak = _peak_mib(lambda: sample_ensemble(self.COEFFS, 2047, 4096, 250, 5))
        assert peak <= 12.5

    def test_bridge_ensemble_peak(self):
        # 15.6 MiB of rows, and a 4.0 MiB half spectrum and 4.0 MiB doubled-grid
        # transform per 256-row chunk
        peak = _peak_mib(lambda: bridge.bridge_ensemble("centered_shift", 2000, 1024, 5))
        assert peak <= 25.5

    def test_sampler_outputs_are_readonly_contiguous_float64(self):
        outputs = [sample_ensemble(self.COEFFS, 7, 64, 3, 1).values,
                   sample_path(self.COEFFS, 7, 64, RngStream(1, 0)).values]
        for variant in bridge.VARIANTS:
            outputs.append(bridge.bridge_ensemble(variant, 3, 64, 1, M=8).values)
            outputs.append(bridge.bridge_path(variant, 64, 8, RngStream(1, 0)).values)
        for values in outputs:
            assert values.dtype == np.float64
            assert values.flags.c_contiguous and not values.flags.writeable

    def test_public_constructors_still_copy(self):
        a = np.arange(16.0).reshape(2, 8)
        e, path = PathEnsemble(8, a), GridPath(8, a[1])
        assert not np.shares_memory(e.values, a) and not np.shares_memory(path.values, a)
        assert a.flags.writeable
        a[1, 0] = -1.0
        assert e.values[1, 0] == 8.0 and path.values[0] == 8.0

    def test_adopt_keeps_the_array(self):
        a = np.arange(16.0).reshape(2, 8)
        assert PathEnsemble._adopt(8, a).values is a and not a.flags.writeable
        b = np.arange(8.0)
        assert GridPath._adopt(8, b).values is b and not b.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_adopt_refuses_non_finite_values(self, bad):
        rows = np.zeros((2, 8))
        rows[1, 3] = bad
        with pytest.raises(ValueError, match="ensemble values must be finite"):
            PathEnsemble._adopt(8, rows)
        with pytest.raises(ValueError, match="path values must be finite"):
            GridPath._adopt(8, rows[1].copy())

    def test_adopt_checks_shape_and_grid(self):
        with pytest.raises(ValueError, match=r"shape \(R, n\)"):
            PathEnsemble._adopt(8, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="grid size"):
            GridPath._adopt(6, np.zeros(6))
