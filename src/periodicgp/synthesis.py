"""Sample-path generation as truncated random trigonometric series.

Reproducibility contract: every draw flows from an RngStream, a
(master_seed, stream_id) pair feeding numpy's seed-sequence machinery.
A path consumes one block of 1 + 2K standard normals laid out as

    Y'0, Y_1, Y'_1, Y_2, Y'_2, ...

so that two runs with the same stream but different truncations share the
draws of every common harmonic.  The block is drawn straight into the float
view of the half spectrum F, from Im F_0 on (Y_k, Y'_k land in Re F_k, Im F_k),
and scaled there in place.  Replicate r of an ensemble always uses stream r;
adding replicates never disturbs earlier ones, and the chunk size bounds
memory and never changes a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dft
from .core import (
    AliasingError,
    GridPath,
    PathEnsemble,
    SpectralCoefficients,
    is_power_of_two,
)

SQRT2 = math.sqrt(2.0)

DEFAULT_EPS = 1e-4


@dataclass(frozen=True)
class RngStream:
    """Deterministic, independent Gaussian stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2 ** 64):
            raise ValueError("master seed must be a 64-bit nonnegative integer")
        if int(self.stream_id) < 0:
            raise ValueError("stream id must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([int(self.master_seed), int(self.stream_id)])

    @property
    def tag(self) -> str:
        return f"{self.master_seed}:{self.stream_id}"


def generators(streams) -> list:
    """One numpy generator per stream; a missing stream is a usage error."""
    if any(rng is None for rng in streams):
        raise ValueError("sample paths need an RngStream")
    return [rng.generator() for rng in streams]


def truncation_index(c: SpectralCoefficients, eps: float = DEFAULT_EPS) -> int:
    """Smallest K whose tail energy 2 sum_{k>K} c_k^2 is <= eps of the total mass.

    The declared tail supplies the analytic remainder, so the search is exact
    even when the optimal K lies beyond the stored support.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie strictly between 0 and 1")
    total = c.squared_mass()
    if total == 0.0:
        return 0
    budget = eps * total
    sq = np.square(c.c)
    beyond_support = c.declared_tail.mass_beyond(c.support) if c.declared_tail else 0.0
    # tail energy at each K <= support, largest stored harmonics summed first
    suffix = 2.0 * np.concatenate((np.cumsum(sq[::-1])[::-1], [0.0])) + beyond_support
    hits = np.nonzero(suffix <= budget)[0]
    if hits.size:
        return int(hits[0])
    if c.declared_tail is None:  # unreachable: suffix at K = support is then zero
        raise ValueError("tail unknown: cannot truncate an unbounded spectrum")
    tail = c.declared_tail
    lo = c.support  # mass_beyond(lo) > budget here
    hi = max(2 * lo, 2)
    while tail.mass_beyond(hi) > budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail.mass_beyond(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def _series_rows(c: SpectralCoefficients, K: int, n: int, streams) -> np.ndarray:
    """Rows of the series truncated at harmonic K on j/n, one per stream.

    Each stream draws its own 1 + 2K block into its row of the half spectrum,
    and one inverse transform runs over the rows, so no row sees its neighbours.
    """
    if not is_power_of_two(n) or n < 4:
        raise ValueError("grid size must be a power of two, n >= 4")
    if K < 0:
        raise ValueError("truncation must be nonnegative")
    if K >= n // 2:
        raise AliasingError(f"truncation K={K} aliases on a grid of size {n}")
    F = np.zeros((len(streams), n // 2 + 1), dtype=complex)
    flat = F.view(float)
    for i, gen in enumerate(generators(streams)):
        gen.standard_normal(out=flat[i, 1:2 + 2 * K])
    F[:, 0] = n * (c.c0 * F[:, 0].imag)
    F[:, 1:K + 1] *= -0.5j * n * (SQRT2 * c.materialize(K))  # n (c_k Y'_k - i c_k Y_k) / sqrt2
    return np.fft.irfft(F, n, axis=1)


def sample_path(c: SpectralCoefficients, K: int, n: int, rng: RngStream) -> GridPath:
    """One trajectory of the series truncated at harmonic K, on the grid j/n."""
    return GridPath(n, _series_rows(c, K, n, [rng])[0], seed_tag=rng.tag)


def sample_ensemble(c: SpectralCoefficients, K: int, n: int, R: int,
                    master_seed: int) -> PathEnsemble:
    """R independent paths; replicate r always draws from stream r."""
    if R < 1:
        raise ValueError("need at least one replicate")
    rows = np.empty((R, n))
    for lo, hi in dft.row_chunks(R, n):
        streams = [RngStream(master_seed, r) for r in range(lo, hi)]
        rows[lo:hi] = _series_rows(c, K, n, streams)
    return PathEnsemble(n, rows, master_seed=master_seed)


def replicate_lag_products(values: np.ndarray, lags) -> np.ndarray:
    """Per-replicate circular products (1/n) sum_j x_j x_{j+d}, one column per lag.

    Computed with the FFT correlation identity in replicate chunks to bound
    memory; estimator plumbing shared by covariogram and structure-function
    estimates.
    """
    v = np.atleast_2d(np.asarray(values, dtype=float))
    R, n = v.shape
    d = np.asarray(lags, dtype=int)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("need at least one lag")
    if np.any(d < 0) or np.any(d >= n):
        raise ValueError("lags must satisfy 0 <= d < n")
    out = np.empty((R, d.size))
    for lo, hi in dft.row_chunks(R, n):
        F = np.fft.rfft(v[lo:hi], axis=1)
        out[lo:hi] = np.fft.irfft(F * F.conj(), n, axis=1)[:, d] / n
    return out


def replicate_mean(per: np.ndarray):
    """Mean over replicates (axis 0) and its standard error std / sqrt(R), NaN when R = 1."""
    R = per.shape[0]
    mean = per.mean(axis=0)
    if R == 1:
        return mean, np.full(np.shape(mean), np.nan)
    return mean, per.std(axis=0, ddof=1) / math.sqrt(R)


@dataclass(frozen=True)
class CovariogramEstimate:
    """Monte Carlo covariogram estimate at chosen grid lags, with standard errors."""

    n: int
    lags: tuple
    value: np.ndarray
    stderr: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return np.asarray(self.lags, dtype=float) / self.n


def empirical_covariogram(e: PathEnsemble, lags) -> CovariogramEstimate:
    """Estimate C(d/n) by circular averaging over the grid and the replicates."""
    d = np.asarray(lags, dtype=int)
    value, stderr = replicate_mean(replicate_lag_products(e.values, d))
    return CovariogramEstimate(e.n, tuple(int(x) for x in d), value, stderr)
