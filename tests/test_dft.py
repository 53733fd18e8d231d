import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodicgp.core import AliasingError, GridPath
from periodicgp.dft import (
    HarmonicDecomposition,
    analyze,
    cosine_table,
    synthesize,
)


def _path(values):
    v = np.asarray(values, dtype=float)
    return GridPath(v.size, v)


def test_constant_path_is_pure_mean():
    h = analyze(_path(np.full(8, 5.0)))
    assert h.mean == pytest.approx(5.0)
    assert np.allclose(h.sin_coef, 0) and np.allclose(h.cos_coef, 0)
    assert h.nyquist == pytest.approx(0.0)


def test_pure_sine_lands_in_one_bin():
    j = np.arange(16)
    h = analyze(_path(np.sin(2 * np.pi * 3 * j / 16)))
    assert h.sin_coef[2] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(h.sin_coef, 2)
    assert np.max(np.abs(others)) < 1e-12
    assert np.max(np.abs(h.cos_coef)) < 1e-12


def test_mixed_tone_quadrature():
    j = np.arange(8)
    x = np.cos(2 * np.pi * j / 8) + 2 * np.sin(2 * np.pi * 2 * j / 8)
    h = analyze(_path(x))
    assert h.cos_coef[0] == pytest.approx(1.0, abs=1e-12)
    assert h.sin_coef[1] == pytest.approx(2.0, abs=1e-12)
    assert h.mean == pytest.approx(0.0, abs=1e-15)


def test_tiny_grid_rejected():
    with pytest.raises(ValueError):
        analyze(GridPath(2, np.zeros(2)))


def test_synthesize_zero_decomposition():
    h = HarmonicDecomposition(8, 0.0, np.zeros(3), np.zeros(3), 0.0)
    assert np.allclose(synthesize(h).values, 0.0)


def test_synthesize_mean_only():
    h = HarmonicDecomposition(8, 1.0, np.zeros(3), np.zeros(3), 0.0)
    assert np.allclose(synthesize(h).values, 1.0)


def test_round_trip_random_path():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(64)
    h = analyze(_path(x))
    back = synthesize(h)
    assert np.max(np.abs(back.values - x)) < 1e-10 * np.max(np.abs(x))


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_parseval_holds_for_every_analysis(exp, data):
    n = 8 << (exp % 3)
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-100, max_value=100), min_size=n, max_size=n)))
    h = analyze(_path(x))
    lhs = np.mean(x * x)
    rhs = h.mean**2 + 0.5 * np.sum(h.sin_coef**2 + h.cos_coef**2) + h.nyquist**2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=40, deadline=None)
def test_analysis_is_linear(alpha, beta):
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, 32))
    hx, hy, hz = analyze(_path(x)), analyze(_path(y)), analyze(_path(alpha * x + beta * y))
    assert np.allclose(hz.sin_coef, alpha * hx.sin_coef + beta * hy.sin_coef, atol=1e-12)
    assert np.allclose(hz.cos_coef, alpha * hx.cos_coef + beta * hy.cos_coef, atol=1e-12)
    assert hz.mean == pytest.approx(alpha * hx.mean + beta * hy.mean, abs=1e-12)


class TestCosineQuadrature:
    def test_constant_at_zero_frequency(self):
        assert cosine_table(np.ones(16), 0)[0] == pytest.approx(1.0)

    def test_constant_orthogonal_to_higher_harmonics(self):
        assert cosine_table(np.ones(16), 3)[3] == pytest.approx(0.0, abs=1e-15)

    def test_bridge_covariogram_second_harmonic(self):
        # smooth periodic integrand: value 1/(16 pi^2) to quadrature accuracy
        s = np.arange(4096) / 4096
        f = (s - 0.5) ** 2 / 2 + 1 / 24
        target = 1 / (16 * np.pi**2)
        assert cosine_table(f, 2)[2] == pytest.approx(target, abs=1e-7)

    def test_aliased_frequency_rejected(self):
        with pytest.raises(AliasingError):
            cosine_table(np.ones(16), 8)

    def test_negative_harmonic_count_is_not_aliasing(self):
        with pytest.raises(ValueError, match="nonnegative") as info:
            cosine_table(np.ones(16), -1)
        assert not isinstance(info.value, AliasingError)

    def test_consistency_with_analyze(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(32)
        h = analyze(_path(x))
        assert cosine_table(x, 0)[0] == pytest.approx(h.mean, rel=1e-12)
        for k in (1, 5, 11):
            assert cosine_table(x, k)[k] == pytest.approx(h.cos_coef[k - 1] / 2,
                                                          rel=1e-10, abs=1e-14)

    def test_table_matches_per_harmonic_calls(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        table = cosine_table(x, 10)
        for k in range(11):  # every shorter table is a prefix of the longer one
            assert table[k] == pytest.approx(cosine_table(x, k)[k], rel=1e-12, abs=1e-15)
