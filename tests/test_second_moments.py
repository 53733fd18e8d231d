"""Exact, seed-free second moments of the samplers.

Each row builder is linear in its Gaussian draws, so pushing the unit draws
e_0, ..., e_{m-1} of an m-draw block through it gives the rows of a matrix L
with Cov(x) = L^T L exactly.  FFT synthesis of a circulant law is exact
(Dietrich & Newsam, SIAM J. Sci. Comput. 18(4), 1997), so the series sampler
truncated at K must reproduce the circulant of the K-truncated covariogram.
"""

import numpy as np
import pytest

from periodicgp import spectral, synthesis
from periodicgp.core import SpectralCoefficients, TailDecay
from periodicgp.synthesis import sample_ensemble


class _UnitDraws:
    """A generator stand-in whose block of standard normals is the unit vector e_i."""

    def __init__(self, i: int):
        self.i = i

    def standard_normal(self, out):
        out[:] = 0.0
        out[self.i] = 1.0
        return out


@pytest.fixture
def unit_draws(monkeypatch):
    """Stream r draws e_r, whatever its master seed."""
    monkeypatch.setattr(synthesis, "generators",
                        lambda streams: [_UnitDraws(rng.stream_id) for rng in streams])


def _circulant(values: np.ndarray) -> np.ndarray:
    n = len(values)
    j = np.arange(n)
    return values[(j[:, None] - j[None, :]) % n]


# c0 > 0, a zero coefficient among the stored ones, and a declared tail that
# materialize extends beyond the three stored harmonics
COEFFS = SpectralCoefficients(0.7, (0.5, 0.0, 0.3), TailDecay(q=2.2, const=0.09))


class TestSeriesSampler:
    @pytest.mark.parametrize("K, n", [(0, 4), (1, 4), (0, 64), (1, 64), (31, 64)])
    def test_covariance_is_the_circulant_of_the_truncated_covariogram(self, unit_draws,
                                                                      K, n):
        L = sample_ensemble(COEFFS, K, n, 1 + 2 * K, 12345).values
        truncated = SpectralCoefficients(COEFFS.c0, COEFFS.materialize(K))
        C = spectral.coeffs_to_covariogram(truncated, n).values
        assert np.max(np.abs(L.T @ L - _circulant(C))) <= 1e-13 * C[0]

    def test_the_cases_reach_the_zero_and_the_declared_tail(self):
        c = COEFFS.materialize(31)
        assert c[1] == 0.0 and COEFFS.support < 31 and np.all(c[COEFFS.support:] > 0)
