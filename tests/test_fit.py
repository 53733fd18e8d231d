"""Profile-likelihood estimation of the power-law family and its diagnostics."""

import ast
import collections
import dataclasses
import gc
import hashlib
import math
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest, kstwo

from periodicgp import _kolmogorov, bridge, dft, fit, synthesis
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
    residual_report,
)


def _amplitude_sq(sin_coef, cos_coef, p, K):
    # a^2(p) = (1/(4K)) sum_{k<=K} T_k k^(2p), T_k = sin_k^2 + cos_k^2
    T = (np.asarray(sin_coef, float) ** 2 + np.asarray(cos_coef, float) ** 2)[:K]
    return fit._amplitude_sq(T, np.log(np.arange(1, K + 1, dtype=float)), p)


def _reference_residuals(path, result):
    # r_k = (sin_k^2 + cos_k^2) k^(2p) / (4 a^2) from a fresh analysis, in fit's operations
    h, K = dft.analyze(path), result.K_used
    T = h.sin_coef[:K] ** 2 + h.cos_coef[:K] ** 2
    return T * np.arange(1, K + 1, dtype=float) ** (2.0 * result.p_hat) / (4.0 * result.a_hat ** 2)


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
        assert _amplitude_sq(amp, amp, 1.0, K) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_harmonics_quadruples_energy(self):
        rng = np.random.default_rng(1)
        s, c = rng.standard_normal((2, 31))
        one = _amplitude_sq(s, c, 1.3, 16)
        four = _amplitude_sq(2 * s, 2 * c, 1.3, 16)
        assert four == pytest.approx(4 * one, rel=1e-12)

    def test_single_harmonic(self):
        s = np.zeros(31)
        s[0] = 2.0
        assert _amplitude_sq(s, np.zeros(31), 1.0, 1) == pytest.approx(1.0, rel=1e-12)


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

    def test_huge_upper_bound_is_refused_not_reported(self):
        # the solve stops at its evaluation cap with p_hat ~ 1.6e10, where
        # a^2(p) overflows; 1e30 stops at the cap too but stays finite
        t = np.arange(64) / 64
        tone = GridPath(64, np.sin(2 * np.pi * t))
        for hi in (1e40, 1e300):
            with pytest.raises(ValueError, match="p bounds"):
                fit_mle(tone, p_bounds=(0.55, hi))
        res = fit_mle(tone, p_bounds=(0.55, 1e30))
        assert not res.convergence.converged
        assert math.isfinite(res.a_hat) and math.isfinite(res.neg_log_likelihood)

    def test_constant_path_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="degenerate observation"):
            fit_mle(GridPath(256, np.full(256, 4.0)))

    def test_tiny_path_is_refused_not_degenerate(self):
        # every T_k is nonzero but below 1e-300: a units problem, not a constant path
        path = _noise_free_path(1.0, 1.5, 511, 1024)
        with pytest.raises(ValueError, match="rescale the path") as info:
            fit_mle(GridPath(1024, path.values * 2.0 ** -505))
        assert not isinstance(info.value, DegenerateDataError)

    def test_p_hat_is_the_same_down_to_the_energy_floor(self):
        path = _noise_free_path(1.0, 1.5, 511, 1024)
        small = fit_mle(GridPath(1024, path.values * 2.0 ** -480))
        assert small.p_hat == pytest.approx(fit_mle(path).p_hat, abs=1e-14)

    def test_p_hat_is_the_same_with_normal_energies_below_1e_300(self):
        # 105 of 256 energies lie in [tiny, 1e-300]: normal floats that carry weight in g'.
        # p_hat moves 2.3e-12; dropping them (keep = T > 1e-300 in _slope) moves it 0.334
        m = model_coefficients(ParametricModel(1.0, 4.0), 511)
        path = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(7, 1))
        small = GridPath(1024, path.values * 2.0 ** -470)
        T = fit._observe(small, 256)[1]
        assert np.sum(T <= 1e-300) == 105 and T.min() >= np.finfo(float).tiny
        assert fit_mle(small, K=256).p_hat == pytest.approx(fit_mle(path, K=256).p_hat, abs=1e-9)

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
        r = _reference_residuals(path, res)
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
        ks = kstest(_reference_residuals(path, res), "expon")
        assert rep.ks_statistic == ks.statistic
        assert rep.ks_pvalue == ks.pvalue


class TestSymmetries:
    """The law of a stationary process is invariant under a circular shift, the reflection
    j -> -j and negation, and the fit does not see the mean, so fitting and checking the
    transformed path gives the untransformed path's estimates and KS statistic.  Worst
    cases over these 45 transformed fits, against tolerances 1e-9 relative for p_hat and
    a_hat and 1e-8 absolute for D: shift 2.0e-12 and 2.1e-11, reflection 1.7e-12 and
    1.7e-11, constant 3.3e-12 and 3.5e-11; D 2.2e-12 or less (constant: 5.6e-12).
    Negation flips the sign of every harmonic and leaves T_k alone, so it is exact."""

    @staticmethod
    def _fit_and_check(values):
        path = GridPath(values.size, values)
        result = fit_mle(path, K=256)
        return result, goodness_of_fit(path, result)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("p", [0.75, 1.5, 3.0])
    def test_shift_reflection_constant_and_negation(self, p, seed):
        m = model_coefficients(ParametricModel(1.0, p), 511)
        x = synthesis.sample_path(m, 511, 1024, synthesis.RngStream(seed, 0)).values
        base, base_check = self._fit_and_check(x)
        for y in (np.roll(x, 1 + 97 * seed), np.roll(x[::-1], 1), x + 3.0):
            result, check = self._fit_and_check(y)
            assert result.p_hat == pytest.approx(base.p_hat, rel=1e-9)
            assert result.a_hat == pytest.approx(base.a_hat, rel=1e-9)
            assert check.ks_statistic == pytest.approx(base_check.ks_statistic, abs=1e-8)
        result, check = self._fit_and_check(-x)
        assert result.path_mean == -base.path_mean
        assert repr(dataclasses.replace(result, path_mean=base.path_mean)) == repr(base)
        assert repr(check) == repr(base_check)


# sha256 over a_hat, p_hat, neg_log_likelihood, iterations and the GoodnessReport floats of
# 40 paths at n = 1024, K = 256, cycling through the fits benchmark's models (p = 0.75, 1.5,
# 3, 7 and the plain bridge); pinned on numpy 2.4.6 and scipy 1.17.1
LIBRARY_FIT_DIGEST = "e7986d28fe3d163ec40bf841617b3ad9ade2c95ddb84ad674319292ce9c6cdb2"


class TestSharedAnalysis:
    """fit_mle and goodness_of_fit on one GridPath share one harmonic analysis."""

    MODELS = (0.75, 1.5, 3.0, 7.0, None)  # None: the plain bridge

    @classmethod
    def _path(cls, i):
        p, rng = cls.MODELS[i % len(cls.MODELS)], synthesis.RngStream(2012, i)
        if p is None:
            return bridge.plain_bridge_path(1024, None, rng)
        return synthesis.sample_path(model_coefficients(ParametricModel(1.0, p), 511),
                                     511, 1024, rng)

    def test_library_fit_path_digest(self):
        h = hashlib.sha256()
        for i in range(40):
            path = self._path(i)
            res = fit_mle(path, K=256)
            rep = goodness_of_fit(path, res)
            h.update(np.float64([res.a_hat, res.p_hat, res.neg_log_likelihood,
                                 res.convergence.iterations, rep.residual_mean, rep.dispersion,
                                 rep.ks_statistic, rep.ks_pvalue, rep.threshold]).tobytes())
        assert h.hexdigest() == LIBRARY_FIT_DIGEST

    def test_fit_and_check_analyze_a_path_once(self, monkeypatch):
        calls = []
        analyze = dft.analyze
        monkeypatch.setattr(dft, "analyze", lambda path: calls.append(path) or analyze(path))
        path = self._path(1)
        goodness_of_fit(path, fit_mle(path, K=256))
        assert calls == [path]

    def test_check_of_another_path_analyzes_that_path(self):
        path_a, path_b = self._path(1), self._path(6)
        result_a = fit_mle(path_a, K=256)
        got = goodness_of_fit(path_b, result_a)
        want = residual_report(_reference_residuals(path_b, result_a))
        assert repr(got) == repr(want)  # repr keeps every bit of each float
        assert got != goodness_of_fit(path_a, result_a)

    def test_memo_holds_the_last_path_only(self):
        # the bound _observe's docstring states: one path and its analysis, no more
        path = self._path(1)
        fit_mle(path, K=256)
        last = weakref.ref(path)
        del path
        gc.collect()
        assert last() is not None  # the last path fitted stays in the memo
        fit_mle(self._path(2), K=256)
        gc.collect()
        assert last() is None


def _around(d):
    return [np.nextafter(d, 0.0), d, np.nextafter(d, 1.0), d * (1 - 1e-6), d * (1 + 1e-6)]


class TestKsPvalueKernel:
    # residual_report reads the p-value from scipy's private exact kernel
    # (_kolmogn, Simard & L'Ecuyer 2011); these pin it, bit for bit, to the
    # public kstwo.sf that wraps it, on every branch the kernel selects
    N = (4, 5, 7, 16, 100, 139, 140, 141, 256, 511, 1000, 4095,
         20000, 100000, 100001, 131071)

    @staticmethod
    def _statistics(n, rng):
        # every threshold of the kernel where it applies, with its neighbours:
        # t = nD at 0.5, 1 and n - 1, D = 0.5; for n <= 140 nD^2 at 0.754693
        # and 4; above, nD^2 at 2.2, 18 and 370 and nD^1.5 = 1.4.  For n >
        # 4095 smirnov and the Durbin matrix cost O(n) per call in scipy, so
        # only t = 1.5 (Durbin up to n = 100000, Pelz-Good past it) reaches them
        root = lambda c: math.sqrt(c / n)  # D with nD^2 = c
        D = [0.0, 1.0, 1.0 / n, np.nextafter(1.0 / n, 0.0), 1.5 / n,
             *_around(0.5 / n), *_around((n - 1.0) / n), *_around(0.5)]
        if n <= 140:
            D += [*_around(root(0.754693)), *_around(root(4.0))]
        elif n <= 4095:
            D += [*_around(root(2.2)), *_around(root(18.0)), *_around(root(370.0)),
                  *_around((1.4 / n) ** (2.0 / 3.0))]
        else:
            D += [root(370.0), np.nextafter(root(370.0), 1.0), *_around(root(0.754693))]
        nD2 = (0.01, 500.0) if n <= 4095 else (0.06, 2.2)  # the latter Pelz-Good only
        D += list(np.sqrt(np.exp(rng.uniform(*np.log(nD2), 30)) / n))
        D += list(rng.uniform(0.5, 1.0, 35) / n) + list(rng.uniform(0.5, 1.0, 35))
        return [float(d) for d in D if 0.0 <= d <= 1.0]

    def test_equals_kstwo_sf_on_every_branch(self):
        rng = np.random.default_rng(8)
        pairs = [(n, D) for n in self.N for D in self._statistics(n, rng)]
        assert len(pairs) >= 2000
        n, D = np.array(pairs).T
        # one broadcast kstwo.sf call evaluates the kernel once per pair
        expected = np.clip(kstwo.sf(D, n), 0.0, 1.0).tolist()
        mismatched = [(k, d, want) for (k, d), want in zip(pairs, expected)
                      if fit._ks_pvalue(d, k) != want]
        assert not mismatched, mismatched[:10]

    def test_pairs_reach_every_branch_of_the_port(self, monkeypatch):
        # every statement of _kolmogorov runs on the differential pairs above, and
        # each return of sf is taken, so every branch is compared with kstwo.sf;
        # scipy's cdf = 1 at nD^2 >= 18 is not a branch of sf: nD^2 >= 2.2 returns first
        called = []
        for name in ("_durbin_cdf", "_pomeranz_cdf", "_pelz_good_cdf", "smirnov"):
            def counted(*args, kernel=getattr(_kolmogorov, name), name=name):
                called.append(name)
                return kernel(*args)
            monkeypatch.setattr(_kolmogorov, name, counted)
        sf, path = _kolmogorov.sf.__code__, _kolmogorov.__file__
        lines, branches = set(), collections.defaultdict(set)  # sf's return line -> kernels

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            if event == "return" and frame.f_code is sf:
                branches[frame.f_lineno].update(called)
            return local

        rng = np.random.default_rng(8)
        pairs = [(n, D) for n in self.N for D in self._statistics(n, rng)]
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path
                     else None)
        try:
            for n, D in pairs:
                called.clear()
                _kolmogorov.sf(n, D)
        finally:
            sys.settrace(previous)
        functions = [node for node in ast.parse(Path(path).read_text()).body
                     if isinstance(node, ast.FunctionDef)]
        statements = {node.lineno for f in functions for part in f.body[1:]  # not docstrings
                      for node in ast.walk(part) if isinstance(node, ast.stmt)}
        assert statements <= lines, sorted(statements - lines)
        returns = {node.lineno for f in functions if f.name == "sf"
                   for node in ast.walk(f) if isinstance(node, ast.Return)}
        assert set(branches) == returns and len(returns) == 13
        reached = collections.Counter(k for kernels in branches.values() for k in kernels)
        # smirnov: D >= 0.5, Miller for n <= 140, nD^2 >= 2.2 past 140; Durbin on both sides
        assert reached == {"smirnov": 3, "_durbin_cdf": 2, "_pomeranz_cdf": 1,
                           "_pelz_good_cdf": 1}

    @pytest.mark.parametrize("n", [4, 5, 7, 16, 139, 141, 256, 1000, 4095])
    @pytest.mark.parametrize("scale", [1.0, 1.3, 4.0])
    def test_residual_report_equals_kstest(self, n, scale):
        r = scale * np.random.default_rng(n).exponential(size=n)
        rep = residual_report(r)
        ks = kstest(r, "expon")  # exact mode: kstwo.sf at these sizes
        assert (rep.ks_statistic, rep.ks_pvalue) == (ks.statistic, ks.pvalue)
