"""Exact, seed-free second moments of the samplers.

Each row builder is linear in its Gaussian draws, so pushing the unit draws
e_0, ..., e_{m-1} of an m-draw block through it gives the rows of a matrix L
with Cov(x) = L^T L exactly.  FFT synthesis of a circulant law is exact
(Dietrich & Newsam, SIAM J. Sci. Comput. 18(4), 1997), so the series sampler
truncated at K must reproduce the circulant of the K-truncated covariogram,
and each sine bridge the M-mode sine sum, summed here directly.  The row
builders draw only from the generators they are handed, so the stand-ins
below go straight in.
"""

import numpy as np
import pytest

from periodicgp import bridge, spectral, synthesis
from periodicgp.core import SpectralCoefficients, TailDecay


class _UnitDraws:
    """A generator stand-in: its block of standard normals is the unit vector e_i,
    and its uniform integer is a fixed offset."""

    def __init__(self, i: int, offset: int = 0):
        self.i, self.offset = i, offset

    def standard_normal(self, out):
        out[:] = 0.0
        out[self.i] = 1.0
        return out

    def integers(self, n):
        return self.offset


def _unit_gens(m: int, offset: int = 0) -> list:
    return [_UnitDraws(i, offset) for i in range(m)]


def _circulant(values: np.ndarray) -> np.ndarray:
    n = len(values)
    j = np.arange(n)
    return values[(j[:, None] - j[None, :]) % n]


def _assert_exact(L: np.ndarray, target: np.ndarray, scale: float):
    assert np.max(np.abs(L.T @ L - target)) <= 1e-13 * scale


# c0 > 0, a zero coefficient among the stored ones, and a declared tail that
# materialize extends beyond the three stored harmonics
COEFFS = SpectralCoefficients(0.7, (0.5, 0.0, 0.3), TailDecay(q=2.2, const=0.09))


def _series_target(c: SpectralCoefficients, K: int, n: int) -> np.ndarray:
    truncated = SpectralCoefficients(c.c0, c.materialize(K))
    return spectral.coeffs_to_covariogram(truncated, n).values


class TestSeriesSampler:
    @pytest.mark.parametrize("K, n", [(0, 4), (1, 4), (0, 64), (1, 64), (31, 64)])
    def test_covariance_is_the_circulant_of_the_truncated_covariogram(self, K, n):
        L = synthesis._series_rows(COEFFS, K, n, _unit_gens(1 + 2 * K))
        C = _series_target(COEFFS, K, n)
        _assert_exact(L, _circulant(C), C[0])

    def test_the_cases_reach_the_zero_and_the_declared_tail(self):
        c = COEFFS.materialize(31)
        assert c[1] == 0.0 and COEFFS.support < 31 and np.all(c[COEFFS.support:] > 0)


def _plain_target(n: int, M: int) -> np.ndarray:
    """sum_{k<=M} 2 sin(pi k s) sin(pi k t) / (k pi)^2 on s, t = j/n."""
    k = np.arange(1, M + 1)
    S = np.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(n) / n, k)) / (k * np.pi)
    return S @ S.T


CASES = [(n, M) for n in (4, 16, 64) for M in (1, n // 2, n - 1)]


class TestSineBridges:
    @pytest.mark.parametrize("n, M", CASES)
    def test_plain(self, n, M):
        target = _plain_target(n, M)
        L = bridge._sine_rows("plain", n, M, _unit_gens(M))
        _assert_exact(L, target, target.diagonal().max())

    @pytest.mark.parametrize("n, M", CASES)
    def test_centered_shift_averaged_over_offsets(self, n, M):
        plain = _plain_target(n, M)
        j = np.arange(n)
        cov = np.zeros((n, n))
        target = np.zeros((n, n))
        for offset in range(n):
            L = bridge._sine_rows("centered_shift", n, M, _unit_gens(M, offset))
            cov += L.T @ L / n
            rolled = (j - offset) % n
            target += plain[np.ix_(rolled, rolled)] / n
        scale = target.diagonal().max()
        assert np.max(np.abs(cov - target)) <= 1e-13 * scale
        assert np.max(np.abs(cov - _circulant(cov[:, 0]))) <= 1e-13 * scale

    @pytest.mark.parametrize("n, M", CASES)
    def test_centralized(self, n, M):
        P = np.eye(n) - np.full((n, n), 1.0 / n)
        target = P @ _plain_target(n, M) @ P
        L = bridge._sine_rows("centralized", n, M, _unit_gens(M))
        _assert_exact(L, target, target.diagonal().max())


class TestCenteredSeries:
    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("K", [1, None])
    def test_circulant_of_the_truncated_bridge_coefficients(self, n, K):
        K = bridge.resolve_truncation("centered_series", n, K)
        c = bridge.centered_bridge_coefficients()
        L = synthesis._series_rows(c, K, n, _unit_gens(1 + 2 * K))
        C = _series_target(c, K, n)
        _assert_exact(L, _circulant(C), C[0])
