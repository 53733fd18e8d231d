"""Core types: coefficient validation, norms, covariograms, file formats."""

import _imp
import decimal
import importlib.util
import itertools
import json
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from periodicgp import bridge, core, dft, fit, regularity, spectral, synthesis
from periodicgp.core import (
    AliasingError,
    Covariogram,
    GridPath,
    ParametricModel,
    PathEnsemble,
    RegularityReport,
    SpectralCoefficients,
    SpectrumError,
    TailDecay,
    h_norm,
    read_coefficients,
    read_paths_csv,
    validate_coefficients,
    write_coefficients,
    write_json,
    write_paths_csv,
)
from periodicgp.regularity import structure_function
from periodicgp.synthesis import RngStream, empirical_covariogram, sample_ensemble, sample_path


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

    def test_entry_at_the_tolerance_is_clamped(self):
        # the bound is inclusive: -1e-9 of the largest |entry| is clamped, a step past refused
        c = validate_coefficients((2.0, 0.5, -2e-9))
        assert np.array_equal(c.c, (0.5, 0.0))
        with pytest.raises(SpectrumError, match="negative spectral mass"):
            validate_coefficients((2.0, 0.5, -np.nextafter(2e-9, 1.0)))

    @pytest.mark.parametrize("raw, refused", [((1.0, -2e-9), True), ((1e6, -500.0), True),
                                              ((0.0, 1.0, -5e-10), False),
                                              ((1.0, -5e-10), False)],
                             ids=["c0-1-refused", "c0-1e6-refused", "c0-0-clamped",
                                  "c0-1-clamped"])
    def test_decision_is_the_same_at_every_scale(self, raw, refused):
        # the tolerance is 1e-9 of the largest |entry|, so a power-of-two scale moves it
        # exactly with the input: one decision, and the same clamped values once unscaled
        for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
            scaled = [scale * x for x in raw]
            if refused:
                with pytest.raises(SpectrumError, match="negative spectral mass"):
                    validate_coefficients(scaled)
            else:
                c = validate_coefficients(scaled)
                assert c.c0 / scale == raw[0]
                assert np.array_equal(c.c / scale, np.maximum(raw[1:], 0.0))

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

    @pytest.mark.parametrize("k", [0, 1, 7, 511, 2 ** 40, 2 ** 62 - 1])
    def test_mass_beyond_is_scipy_special_zeta_bit_for_bit(self, k):
        for q, const in ((1.1, 0.3), (2.0, 1.0 / (4.0 * math.pi ** 2)), (7.5, 2.0)):
            want = 2.0 * const * float(scipy.special.zeta(q, k + 1))
            assert TailDecay(q, const).mass_beyond(k) == want


class TestScipyUfuncs:
    # core._scipy_ufuncs: scipy's compiled ufuncs without the scipy.special package
    def test_a_loaded_scipy_special_lends_its_extension(self, monkeypatch):
        def no_search(name):
            raise AssertionError(f"searched for {name}")

        monkeypatch.setattr(importlib.util, "find_spec", no_search)
        core._scipy_ufuncs.cache_clear()
        try:
            assert core._scipy_ufuncs() is scipy.special._ufuncs
        finally:
            core._scipy_ufuncs.cache_clear()
        assert sys.modules["scipy.special"] is scipy.special  # no stub over the package

    def test_the_extension_loads_under_a_locked_stub_that_is_removed(self, without_scipy_special,
                                                                      monkeypatch):
        seen = []
        import_module = importlib.import_module

        def watched(name):
            stub = sys.modules["scipy.special"]
            seen.append((name, stub.__spec__.name, list(stub.__path__),
                         hasattr(stub, "expm1"), _imp.lock_held()))
            return import_module(name)

        monkeypatch.setattr(importlib, "import_module", watched)
        u = core._scipy_ufuncs()
        path = importlib.util.find_spec("scipy.special").submodule_search_locations
        # a bare package (its __init__ never ran) under the import lock, then gone
        assert seen == [("scipy.special._ufuncs", "scipy.special", path, False, True)]
        assert "scipy.special" not in sys.modules and not _imp.lock_held()
        assert u is sys.modules["scipy.special._ufuncs"]
        assert core._scipy_ufuncs() is u and len(seen) == 1  # cached
        # the package imported afterwards holds the very same ufuncs
        special = import_module("scipy.special")
        assert special.expm1 is u.expm1 and special.smirnov is u.smirnov
        assert special._ufuncs._zeta is u._zeta

    def test_another_threads_import_waits_out_the_stub(self, without_scipy_special, monkeypatch):
        # a second thread importing scipy.special while the stub is in sys.modules blocks on
        # the import lock, then imports the package itself rather than take the bare stub
        import_module = importlib.import_module
        got = []
        thread = threading.Thread(target=lambda: got.append(import_module("scipy.special")))

        def racing(name):
            thread.start()
            time.sleep(0.1)
            assert thread.is_alive()  # waiting for the lock
            return import_module(name)

        monkeypatch.setattr(importlib, "import_module", racing)
        core._scipy_ufuncs()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert got[0] is sys.modules["scipy.special"] and hasattr(got[0], "expm1")

    def test_another_threads_from_import_gets_the_package_name(self, without_scipy_special,
                                                               monkeypatch):
        # `from scipy.special import expm1` takes the stub out of sys.modules before it waits
        # on the import lock, then reads expm1 off that stub: the stub forwards to the package
        import_module = importlib.import_module
        got, stubs = [], []

        def take_expm1():
            try:
                from scipy.special import expm1
                got.append(expm1)
            except ImportError as exc:
                got.append(exc)

        thread = threading.Thread(target=take_expm1)

        def racing(name):
            if name == "scipy.special._ufuncs":
                stubs.append(sys.modules["scipy.special"])
                thread.start()
                time.sleep(0.3)
                assert thread.is_alive()  # waiting for the lock
            return import_module(name)

        monkeypatch.setattr(importlib, "import_module", racing)
        u = core._scipy_ufuncs()
        thread.join(timeout=30)
        assert not thread.is_alive()
        special = sys.modules["scipy.special"]
        assert got == [special.expm1] and special.expm1 is u.expm1
        # once out of sys.modules, the stub forwards in this thread too
        assert stubs[0] is not special and stubs[0].expm1 is special.expm1

    def test_a_failed_stub_import_falls_back_to_the_package(self, without_scipy_special,
                                                            monkeypatch):
        def no_spec(name):
            raise ImportError(f"no spec for {name}")

        with monkeypatch.context() as patch:
            patch.setattr(importlib.util, "find_spec", no_spec)
            u = core._scipy_ufuncs()
        assert not _imp.lock_held()
        assert sys.modules["scipy.special"]._ufuncs is u  # imported whole
        assert u is sys.modules["scipy.special._ufuncs"]


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


class TestCovariogram:
    def test_at_takes_lags_modulo_one(self):
        g = Covariogram(1 + np.cos(2 * np.pi * np.arange(8) / 8))
        assert g.at(1.25) == g.at(0.25) == g.at(-0.75) == g.values[2]

    def test_at_huge_whole_lags_read_lag_zero(self):
        # 1e300 is a whole number, so it lies on the grid: C(0), without a warning
        g = bridge.centered_bridge_covariogram(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.at(1e300) == g.at(-1e300) == g.values[0]
            assert np.array_equal(g.at([0.25, 1e300]), g.values[[4, 0]])

    def test_asymmetric_table_rejected(self):
        v = np.cos(2 * np.pi * np.arange(8) / 8)
        v[3] += 0.1
        with pytest.raises(SpectrumError, match="asymmetric"):
            Covariogram(v)

    def test_asymmetry_of_a_millionth_of_the_scale_rejected(self):
        v = 1 + np.cos(2 * np.pi * np.arange(8) / 8)
        v[3] += 1e-6 * np.max(np.abs(v))
        with pytest.raises(SpectrumError, match="asymmetric"):
            Covariogram(v)

    def test_lag_zero_dominance_enforced(self):
        delta = np.arange(8) / 8
        v = -np.cos(2 * np.pi * delta)  # peak at delta = 1/2, not 0
        with pytest.raises(SpectrumError, match="lag zero"):
            Covariogram(v)

    def test_table_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Covariogram(np.ones(6))

    def test_sampled_at_on_grid(self):
        v = 1 + np.cos(2 * np.pi * np.arange(16) / 16)
        g = Covariogram(v)
        assert g.at(3 / 16) == pytest.approx(v[3])

    def test_sampled_at_off_grid_rejected(self):
        g = Covariogram(np.ones(8))
        with pytest.raises(ValueError):
            g.at(0.17)


class TestGridPath:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridPath(6, np.zeros(6))

    def test_values_read_only(self):
        p = GridPath(8, np.zeros(8))
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="path values must be finite"):
            GridPath(8, [0.0, bad, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


class TestPathEnsemble:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PathEnsemble(8, np.zeros((3, 7)))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.zeros((2, 8))
        values[1, 3] = bad
        with pytest.raises(ValueError, match="ensemble values must be finite"):
            PathEnsemble(8, values)

    def test_path_accessor(self):
        e = PathEnsemble(8, np.arange(16.0).reshape(2, 8))
        assert e.R == 2


# every public entry that takes a grid size n, each called with valid other arguments
GRID_ENTRIES = {
    "GridPath": lambda n: GridPath(n, np.zeros(n)),
    "PathEnsemble": lambda n: PathEnsemble(n, np.zeros((2, n))),
    "centered_bridge_covariogram": bridge.centered_bridge_covariogram,
    "centralized_bridge_covariogram": bridge.centralized_bridge_covariogram,
    "sample_path": lambda n: sample_path(SpectralCoefficients(1.0, ()), 0, n, RngStream(0)),
    "sample_ensemble": lambda n: sample_ensemble(SpectralCoefficients(1.0, ()), 0, n, 2, 0),
    **{f"bridge_path:{v}": (lambda n, v=v: bridge.bridge_path(v, n, rng=RngStream(0)))
       for v in bridge.VARIANTS},
    **{f"bridge_ensemble:{v}": (lambda n, v=v: bridge.bridge_ensemble(v, 2, n, 0))
       for v in bridge.VARIANTS},
    "coeffs_to_covariogram":
        lambda n: spectral.coeffs_to_covariogram(SpectralCoefficients(1.0, ()), n),
}


@pytest.mark.parametrize("n", [0, 2, 3, 24])
@pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
def test_every_entry_taking_n_applies_the_one_grid_rule(entry, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            GRID_ENTRIES[entry](n)
    assert type(info.value) is ValueError
    assert str(info.value) == f"grid size must be a power of two, n >= 4, got {n}"


# refusals that only a library caller reaches: (call, exact class, exact message)
LIBRARY_REFUSALS = {
    "SpectralCoefficients-nan": (lambda: SpectralCoefficients(math.nan, []),
                                 SpectrumError, "coefficients must be finite"),
    "validate_coefficients-empty": (lambda: validate_coefficients([]), ValueError,
                                    "need at least the lag-zero coefficient c0"),
    "validate_coefficients-nested": (lambda: validate_coefficients([[1.0, 2.0]]), ValueError,
                                     "coefficients must form a flat sequence"),
    "Covariogram-2d": (lambda: Covariogram(np.ones((4, 4))), ValueError,
                       "covariogram values must be a flat array"),
    "GridPath-short": (lambda: GridPath(8, np.zeros(4)), ValueError,
                       "values must be a flat array of length n"),
    "RegularityReport-negative-m": (lambda: RegularityReport(3.0, -1, 0.5), ValueError,
                                    "derivative count must be nonnegative"),
    "RegularityReport-zero-bound": (lambda: RegularityReport(3.0, 0, 0.0), ValueError,
                                    "holder_bound must lie in (0, 1]"),
    "model_coefficients-K0": (lambda: fit.model_coefficients(ParametricModel(1.0, 1.5), 0),
                              ValueError, "need at least one harmonic"),
    "proof_identity-k0": (lambda: bridge.proof_identity(0, 10), ValueError,
                          "harmonic index k must be >= 1"),
    "structure_function-no-lag": (lambda: structure_function(_small_ensemble(), []),
                                  ValueError, "need at least one lag"),
    "RngStream-negative-stream": (lambda: RngStream(0, -1), ValueError,
                                  "stream id must be nonnegative"),
    "empirical_covariogram-no-lag": (lambda: empirical_covariogram(_small_ensemble(), []),
                                     ValueError, "need at least one lag"),
    # a lag is an integer: floats, bools and strings are refused, not rounded or converted
    **{f"{name}-lag-{lag!r}": (lambda call=call, lag=lag: call([lag]), ValueError,
                               f"lag must be an integer, got {lag!r}")
       for name, call in (
           ("replicate_lag_products",
            lambda lags: synthesis.replicate_lag_products(_small_ensemble().values, lags)),
           ("empirical_covariogram", lambda lags: empirical_covariogram(_small_ensemble(), lags)),
           ("structure_function", lambda lags: structure_function(_small_ensemble(), lags)))
       for lag in (0.5, 1.9, True, "2")},
    # NaN and infinite lags lie on no grid point
    **{f"Covariogram.at-{delta}": (
        lambda delta=delta: bridge.centered_bridge_covariogram(16).at(delta), ValueError,
        "covariogram evaluated off its grid") for delta in (math.nan, math.inf, -math.inf)},
    # the sampler's arguments are checked before its 2^40 rows are allocated
    "sample_ensemble-aliased-before-allocation": (
        lambda: sample_ensemble(fit.model_coefficients(ParametricModel(1.0, 1.5), 1), 600, 1024,
                                2 ** 40, 0),
        AliasingError, "harmonic 600 is aliased on a grid of size 1024"),
    "bridge_ensemble-M-before-allocation": (
        lambda: bridge.bridge_ensemble("plain", 2 ** 40, 1024, 0, M=1024), ValueError,
        "sine truncation must satisfy 0 <= M < n"),
    "bridge_ensemble-variant-before-allocation": (
        lambda: bridge.bridge_ensemble("nope", 2 ** 40, 64, 0), ValueError,
        "unknown bridge variant 'nope'"),
    # the samplers' R, K and M are integers, as seeds and lags are
    "bridge_ensemble-R-2.5": (lambda: bridge.bridge_ensemble("plain", 2.5, 64, 0), ValueError,
                              "replicate count R must be an integer, got 2.5"),
    "sample_ensemble-R-True": (lambda: sample_ensemble(_series(), 3, 64, True, 0), ValueError,
                               "replicate count R must be an integer, got True"),
    "sample_ensemble-K-2.0": (lambda: sample_ensemble(_series(), 2.0, 64, 2, 0), ValueError,
                              "harmonic count K must be an integer, got 2.0"),
    "sample_ensemble-K-True": (lambda: sample_ensemble(_series(), True, 64, 2, 0), ValueError,
                               "harmonic count K must be an integer, got True"),
    "sample_path-K-3.0": (lambda: sample_path(_series(), 3.0, 64, RngStream(1)), ValueError,
                          "harmonic count K must be an integer, got 3.0"),
    "bridge_ensemble-M-3.0": (lambda: bridge.bridge_ensemble("plain", 4, 64, 0, M=3.0),
                              ValueError, "sine truncation M must be an integer, got 3.0"),
    "bridge_path-M-True": (
        lambda: bridge.bridge_path("centered_series", 64, True, RngStream(1)), ValueError,
        "sine truncation M must be an integer, got True"),
    # every other count is an integer too: dft.check_harmonics or core._as_int refuses it
    **{f"fit_mle-K-{K!r}": (
        lambda K=K: fit.fit_mle(GridPath(64, np.cos(np.arange(64.0))), K=K), ValueError,
        f"harmonic count K must be an integer, got {K!r}") for K in (8.5, "8")},
    "covariogram_to_coeffs-K-2.5": (
        lambda: spectral.covariogram_to_coeffs(bridge.centered_bridge_covariogram(16), 2.5),
        ValueError, "harmonic count K must be an integer, got 2.5"),
    "empirical_coeffs-K-2.5": (lambda: spectral.empirical_coeffs(_small_ensemble(), 2.5),
                               ValueError, "harmonic count K must be an integer, got 2.5"),
    "materialize-K-2.5": (lambda: _series().materialize(2.5), ValueError,
                          "harmonic count K must be an integer, got 2.5"),
    "fit_decay-k_min-1.5": (lambda: regularity.fit_decay(_series(), 1.5, 8), ValueError,
                            "k_min must be an integer, got 1.5"),
    "proof_identity-k-1.5": (lambda: bridge.proof_identity(1.5, 10), ValueError,
                             "harmonic index k must be an integer, got 1.5"),
    "proof_identity-terms-2.5": (lambda: bridge.proof_identity(1, 2.5), ValueError,
                                 "term count must be an integer, got 2.5"),
    "model_coefficients-K-2.5": (
        lambda: fit.model_coefficients(ParametricModel(1.0, 1.5), 2.5), ValueError,
        "harmonic count K must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_REFUSALS))
def test_each_library_refusal_raises_its_class_and_message(name):
    call, cls, message = LIBRARY_REFUSALS[name]
    with warnings.catch_warnings(), pytest.raises(ValueError) as info:
        warnings.simplefilter("error")
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


class TestParametricModel:
    def test_p_must_exceed_half(self):
        with pytest.raises(ValueError, match="exceed 1/2"):
            ParametricModel(1.0, 0.5)

    def test_amplitude_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ParametricModel(0.0, 1.5)

    def test_every_accepted_amplitude_has_a_finite_stored_mass(self):
        # the largest a with 2a^2 finite is accepted and stores; the next float is refused
        a = math.sqrt(sys.float_info.max / 2)
        while 2.0 * a * a == math.inf:
            a = math.nextafter(a, 0.0)
        c = fit.model_coefficients(ParametricModel(a, 1.5), 1)
        assert c.c[0] == a
        for bad in (math.nextafter(a, math.inf), 1e154, 1.3e154):
            with pytest.raises(ValueError, match="finite square"):
                ParametricModel(bad, 1.5)


def _small_ensemble():
    return PathEnsemble(16, np.cos(np.arange(32.0)).reshape(2, 16))


def _series():
    return fit.model_coefficients(ParametricModel(1.0, 1.5), 8)


# value types holding arrays: == and hash fall back to identity
ARRAY_HOLDERS = {
    "GridPath": lambda: GridPath(8, np.zeros(8)),
    "PathEnsemble": _small_ensemble,
    "Covariogram": lambda: Covariogram(np.ones(8)),
    "HarmonicDecomposition": lambda: dft.analyze(GridPath(8, np.arange(8.0))),
    "LagEstimate": lambda: empirical_covariogram(_small_ensemble(), [0, 1]),
    "CoefficientEstimate": lambda: spectral.empirical_coeffs(_small_ensemble(), 2),
    "DecompositionReport": lambda: bridge.decomposition_check(4, 16, M=4, master_seed=1),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_values_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and a != b and not (b == a)
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


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

    @staticmethod
    def _exact_ties(rng, count):
        """Doubles whose exact decimal expansion has 18 significant digits, the last a 5.

        a / 2**b with a odd has the digits of a * 5**b, so a is drawn where
        that product has 18 digits; b = 2..21 puts the exponent in -4..15.
        """
        ties = []
        while len(ties) < count:
            b = int(rng.integers(2, 22))
            a = int(rng.integers(-(-10 ** 17 // 5 ** b), min(10 ** 18 // 5 ** b, 2 ** 53))) | 1
            x = a / 2.0 ** b
            digits = decimal.Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x if rng.random() < 0.5 else -x)
        return np.array(ties)

    def test_table_csv_bytes_are_joined_format_float_cells(self, tmp_path):
        # differential guard for the vectorized formatter: over a million cells,
        # every byte of write_table_csv equals format_float joined by ',' and '\n'
        rng = np.random.default_rng(9)
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                 np.nextafter(np.nextafter(powers, 0), 0)])
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                            1.7976931348623157e308, -1.7976931348623157e308,
                            math.nan, math.inf, -math.inf, 1e-4, 1e17, 99999999999999984.0])
        ties = self._exact_ties(rng, 1500)
        pool = np.concatenate([
            rng.standard_normal(780_000) * 10.0 ** rng.integers(-6, 19, 780_000),
            rng.integers(-10 ** 6, 10 ** 6, 60_000).astype(float),
            np.rint(rng.standard_normal(60_000) * 1e6) / 10.0 ** rng.integers(0, 9, 60_000),
            rng.integers(-2 ** 20, 2 ** 20, 60_000) / 2.0 ** rng.integers(0, 34, 60_000),
            rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64),
            ties, np.tile(np.concatenate([powers, -powers, special]), 60),
        ])
        assert pool.size >= 1_000_000
        pool = rng.permutation(pool)
        for ncols, part in zip((1, 2, 4, 101), np.array_split(pool, 4)):
            table = part[:part.size - part.size % ncols].reshape(-1, ncols)
            table[::97, -1] = special[np.arange(len(table[::97])) % special.size]  # row ends
            f = tmp_path / f"t{ncols}.csv"
            core.write_table_csv("h", list(table.T), f)
            cells = map(core.format_float, table.ravel().tolist())
            seps = ([","] * (ncols - 1) + ["\n"]) * len(table)
            expected = "h\n" + "".join(itertools.chain.from_iterable(zip(cells, seps)))
            assert f.read_bytes() == expected.encode()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_size_never_changes_bytes(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(10)
        columns = [np.arange(300) / 300, rng.standard_normal(300),
                   rng.standard_normal(300) * 1e-6, np.round(rng.standard_normal(300), 2)]
        columns[1][::13] = 0.0
        columns[3][::17] = -math.inf
        expected = tmp_path / "reference.csv"
        core.write_table_csv("a,b,c,d", columns, expected)
        monkeypatch.setattr(core, "BLOCK_VALUES", block)
        f = tmp_path / "blocked.csv"
        # rows of a 2-D entry are columns: all three values at once, or one and then two
        for table in (columns, [columns[0], np.array(columns[1:])],
                      [columns[0], np.array(columns[1:2]), np.array(columns[2:])]):
            core.write_table_csv("a,b,c,d", table, f)
            assert f.read_bytes() == expected.read_bytes()

    def test_blank_and_comment_lines_before_data_are_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("t,x\n\n# note\n0,1.5\n0.25,-2\n0.5,3\n0.75,-4\n")
        t, values = read_paths_csv(f)
        assert np.array_equal(t, [0.0, 0.25, 0.5, 0.75])
        assert np.array_equal(values, [[1.5, -2.0, 3.0, -4.0]])

    def test_one_column_read_matches_the_full_read(self, tmp_path):
        f = tmp_path / "p.csv"
        write_paths_csv(np.random.default_rng(4).standard_normal((3, 16)), f)
        t, values = read_paths_csv(f)
        for c in range(3):
            tc, vc = read_paths_csv(f, c)
            assert np.array_equal(tc, t) and np.array_equal(vc, values[c:c + 1])

    @pytest.mark.parametrize("column", [0, 1, 26, 27, 49, 98, 99])
    def test_one_column_of_a_wide_table_matches_the_full_read(self, tmp_path, column):
        # columns near the left are read from each row's leading fields alone
        f = tmp_path / "p.csv"
        write_paths_csv(np.random.default_rng(4).standard_normal((100, 64)) * 1e3, f)
        lines = f.read_text().splitlines(keepends=True)
        lines[5] = lines[5].rstrip("\n") + "# note, with a comma\n"
        f.write_text("".join(lines[:3] + ["# comment\n", "\n"] + lines[3:]))
        t, values = read_paths_csv(f)
        tc, vc = read_paths_csv(f, column)
        assert tc.tobytes() == t.tobytes() and vc.tobytes() == values[column:column + 1].tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_reads_a_path_csv_from_a_pipe(self, tmp_path):
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text,
                                  args=("t,x\n0,1.5\n0.25,-2\n0.5,3\n0.75,-4\n",),
                                  daemon=True)  # never blocks the test run on a failed read
        writer.start()
        t, values = read_paths_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(values, [[1.5, -2.0, 3.0, -4.0]])

    def test_json_output_is_canonical(self, tmp_path):
        f = tmp_path / "m.json"
        write_json({"b": 1, "a": [1.5, None]}, f)
        text = f.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1.5, None], "b": 1}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                       np.array([1.0, math.inf])])
    def test_json_refuses_non_finite_before_opening(self, tmp_path, value):
        f = tmp_path / "m.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_json({"ok": 1.0, "bad": value}, f)
        assert not f.exists()

    def test_json_refuses_an_unserializable_object_before_opening(self, tmp_path):
        f = tmp_path / "m.json"
        with pytest.raises(TypeError) as info:
            write_json({"x": object()}, f)
        assert str(info.value) == "object is not JSON serializable"
        assert not f.exists()

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=100, deadline=None)
    def test_format_float_round_trips_doubles(self, x):
        assert float(core.format_float(x)) == x
