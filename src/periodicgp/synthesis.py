"""Sample-path generation as truncated random trigonometric series.

Reproducibility contract: every draw comes from stream r of master seed s,
np.random.default_rng([s, r]), and row builders draw only from the generators
they are handed.  The streams of an ensemble chunk take their SeedSequence words
from one vectorized pass, and numpy's PCG64 seeds each stream's Generator from
them; a bit-for-bit check against default_rng, once per process, falls back to it.
A path consumes one block of 1 + 2K standard normals laid out as

    Y'0, Y_1, Y'_1, Y_2, Y'_2, ...

so that two runs with the same stream but different truncations share the draws of every
common harmonic.  The block is drawn straight into the float view of the half spectrum F,
from Im F_0 on (Y_k, Y'_k land in Re F_k, Im F_k), scaled there in place and inverse
transformed into the ensemble's one array, then wrapped read-only without a copy.  Replicate
r always uses stream r, so adding replicates never disturbs earlier ones.  The chunk size
bounds memory; row ranges on up to one thread per usable CPU (no option sets the count) fill
disjoint rows of buffers allocated before the split.  Neither changes a byte.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import dft
from .core import (
    AliasingError,
    GridPath,
    PathEnsemble,
    SpectralCoefficients,
    _as_int,
    check_grid,
)

SQRT2 = math.sqrt(2.0)
# grid values per batched transform: enough rows to amortize per-call
# overhead, few enough that a chunk's temporaries stay at a few MB
ROW_BUDGET = 2 ** 19
# fewest rows per thread: shorter ranges trade the GIL between many short draws and lose
MIN_RANGE_ROWS = 32


@dataclass(frozen=True)
class RngStream:
    """Deterministic, independent Gaussian stream keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if type(self.master_seed) is not int or type(self.stream_id) is not int:
            object.__setattr__(self, "master_seed", _as_int(self.master_seed, "master seed"))
            object.__setattr__(self, "stream_id", _as_int(self.stream_id, "stream id"))
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master seed must be a 64-bit nonnegative integer")
        if self.stream_id < 0:
            raise ValueError("stream id must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.stream_id])


# numpy's SeedSequence (O'Neill's seed_seq_fe) hashes a pool of four 32-bit words: hash
# call i xors h_i = a m^i mod 2^32, multiplies by h_{i+1} and xorshifts by 16
_MIX_H, _OUT_H = (np.array([a * pow(m, i, 2 ** 32) % 2 ** 32 for i in range(17)],
                           dtype=np.uint32)[:, None]
                  for a, m in ((0x43b0d7e5, 0x931e8875), (0x8b51f9dd, 0x58f38ded)))


def _hash(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _seed_words(master_seed: int, stream_ids) -> np.ndarray:
    """SeedSequence([master_seed, r]).generate_state(4, np.uint64), a C-contiguous row per r."""
    r = np.asarray(stream_ids, dtype=np.uint64)
    pool = np.array(np.broadcast_arrays(master_seed & 0xFFFFFFFF, master_seed >> 32,
                                        r & 0xFFFFFFFF, r >> 32), dtype=np.uint32)
    # the 32-bit words of [seed, r], zero-padded to the pool of 4: a one-word seed moves
    # r's words up, and r's high word is zero exactly when it would be padding
    if master_seed < 2 ** 32:
        pool = pool[[0, 2, 3, 1]]
    with np.errstate(over="ignore"):
        pool = _hash(pool, _MIX_H[:5])
        for src in range(4):  # every other word mixes in a hash of word src
            dst = [d for d in range(4) if d != src]
            h = _hash(pool[src], _MIX_H[3 * src + 4:3 * src + 8])  # one call per dst
            v = pool[dst] * 0xca01f9dd - h * 0x4973f715
            pool[dst] = v ^ (v >> 16)
        out = _hash(np.tile(pool, (2, 1)), _OUT_H[:9]).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


class _SeedWords:  # registered as an ISeedSequence on first use: numpy.random loads lazily
    """A row of _seed_words as PCG64's seed: PCG64 reads the raw buffer of 4 uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, np.uint64)
        return self.words


@functools.cache  # settled once per process, by the first batched call
def _seeding_self_check() -> bool:
    """PCG64 seeded from batched words is in default_rng's state, on batches of 3 streams."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    pairs = ((0, 0), (2 ** 32 + 7, 5), (2 ** 63 + 11, 2), (2 ** 64 - 1, 1), (99, 2 ** 32 + 3))
    for seed, r in pairs:
        ids = (r, 2 * r + 1, 0)
        for words, i in zip(_seed_words(seed, ids), ids):
            state = np.random.PCG64(_SeedWords(words)).state
            if state != RngStream(seed, i).generator().bit_generator.state:
                return False
    return True


def generators(master_seed: int, stream_ids) -> list:
    """One numpy Generator per stream id of master_seed, in order.  Two or more
    streams are seeded from one vectorized pass, a single one by RngStream.generator."""
    if len(stream_ids) > 1 and _seeding_self_check():
        words = _seed_words(master_seed, stream_ids)
        return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]
    return [RngStream(master_seed, r).generator() for r in stream_ids]


def _fill_ranges(rows: int, fill) -> None:
    """fill(lo, hi) over contiguous row ranges, one per usable CPU but none under MIN_RANGE_ROWS
    unless alone: the last here, each other in a thread under a copy of this context (numpy's
    errstate too).  All end before the first error, in range order, is raised.  fill calls
    only numpy: a tracer keeps one stack of spans."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = max(1, min(cpus or 1, rows // MIN_RANGE_ROWS))
    edges, errors, threads = [rows * i // k for i in range(k + 1)], [None] * k, []

    def run(i):
        try:
            fill(edges[i], edges[i + 1])
        except BaseException as exc:
            errors[i] = exc

    try:
        for i in range(k - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            thread.start()
            threads.append(thread)
        run(k - 1)
    finally:
        for thread in threads:
            thread.join()
    for exc in filter(None, errors):
        raise exc


def truncation_index(c: SpectralCoefficients, eps: float) -> int:
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
    tail = c.declared_tail  # without one the suffix at K = support is 0 <= budget
    lo = c.support  # mass_beyond(lo) > budget here
    hi = max(2 * lo, 2)
    while tail.mass_beyond(hi) > budget:
        if 2 * hi + 1 > sys.float_info.max:  # zeta takes K + 1 as a float
            raise AliasingError(f"eps {eps:g} is not met by any truncation K < {float(hi):.3g}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail.mass_beyond(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def _series_rows(c: SpectralCoefficients, K: int, n: int, gens, out=None) -> np.ndarray:
    """Rows of the series truncated at harmonic K on j/n, one per generator, in out if given.

    Each generator draws its own 1 + 2K block into its row of the half spectrum, and
    each range of rows is transformed on its own, so no row sees its neighbours.
    """
    check_grid(n)
    K = dft.check_harmonics(K, n)
    F = np.zeros((len(gens), n // 2 + 1), dtype=complex)
    out = np.empty((len(gens), n)) if out is None else out
    scale = -0.5j * n * (SQRT2 * c.materialize(K))  # n (c_k Y'_k - i c_k Y_k) / sqrt2

    def fill(lo, hi):
        for i in range(lo, hi):  # row by row: a 2-D product would allocate ufunc buffers
            gens[i].standard_normal(out=F.view(float)[i, 1:2 + 2 * K])
            F[i, 1:K + 1] *= scale
        F[lo:hi, 0] = n * (c.c0 * F[lo:hi, 0].imag)
        np.fft.irfft(F[lo:hi], n, axis=1, out=out[lo:hi])

    _fill_ranges(len(gens), fill)
    return out


def _path(rows, n: int, rng: RngStream) -> GridPath:
    """One path on j/n from rows([the generator of rng]); a missing stream is a usage error."""
    if rng is None:
        raise ValueError("sample paths need an RngStream")
    return GridPath._adopt(n, rows([rng.generator()])[0])


def sample_path(c: SpectralCoefficients, K: int, n: int, rng: RngStream) -> GridPath:
    """One trajectory of the series truncated at harmonic K, on the grid j/n."""
    return _path(functools.partial(_series_rows, c, K, n), n, rng)


def _ensemble(rows, R: int, n: int, master_seed: int, width: int) -> PathEnsemble:
    """R paths on j/n, replicate r from stream r.  rows(generators, out) writes each chunk of
    replicates into its rows; a chunk holds as many (at least one) as rows of width values fit
    ROW_BUDGET.  R and the seed are checked here, the rest by rows([]) before any sizing."""
    R = _as_int(R, "replicate count R")
    if R < 1:
        raise ValueError("need at least one replicate")
    master_seed = RngStream(master_seed).master_seed
    rows([])
    values = np.empty((R, n))
    step = max(1, ROW_BUDGET // width)
    for lo in range(0, R, step):
        rows(generators(master_seed, range(lo, min(lo + step, R))), values[lo:lo + step])
    return PathEnsemble._adopt(n, values)


def sample_ensemble(c: SpectralCoefficients, K: int, n: int, R: int,
                    master_seed: int) -> PathEnsemble:
    """R independent paths; replicate r always draws from stream r."""
    return _ensemble(functools.partial(_series_rows, c, K, n), R, n, master_seed, n)


def lag_array(lags, lo: int, hi: int) -> np.ndarray:
    """lags as a flat int array, each an integer (not a float, bool or string) in lo..hi."""
    d = [_as_int(x, "lag") for x in lags] if np.ndim(lags) == 1 else []
    if not d:
        raise ValueError("need at least one lag")
    if min(d) < lo or max(d) > hi:
        raise ValueError(f"lags must satisfy {lo} <= d <= {hi}")
    return np.array(d)


def replicate_lag_products(values: np.ndarray, lags) -> np.ndarray:
    """Per-replicate circular products (1/n) sum_j x_j x_{j+d}, one column per lag.

    Summed by their definition, two dot products per row and lag (one each side of
    the wrap) at O(R n L) for L lags, so each row's products depend on it alone.
    """
    v = np.ascontiguousarray(np.atleast_2d(values), dtype=float)
    R, n = v.shape
    d = lag_array(lags, 0, n - 1)
    out = np.empty((R, d.size))

    def fill(lo, hi):  # plain einsum, not @ or np.dot: BLAS orders sums by build and threads
        for i, lag in enumerate(d.tolist()):
            out[lo:hi, i] = (np.einsum("ij,ij->i", v[lo:hi, :n - lag], v[lo:hi, lag:])
                             + np.einsum("ij,ij->i", v[lo:hi, n - lag:], v[lo:hi, :lag])) / n

    with np.errstate(over="ignore", invalid="ignore"):
        _fill_ranges(R, fill)
    if not np.all(np.isfinite(out)):
        raise ValueError("lag products overflow: a sum of x_j x_{j+d} exceeds the float range")
    return out


def replicate_mean(per: np.ndarray):
    """Mean over replicates (axis 0) and its standard error std / sqrt(R), NaN when R = 1.
    Both are taken on each column scaled by one power of two, so that neither the sum nor
    a squared deviation overflows: the scaling is exact, so both keep their bits."""
    R = per.shape[0]
    e = -np.frexp(np.abs(per).max(axis=0))[1]
    scaled = np.ldexp(per, e)
    mean = np.ldexp(scaled.mean(axis=0), -e)
    if R == 1:
        return mean, np.full(np.shape(mean), np.nan)
    return mean, np.ldexp(scaled.std(axis=0, ddof=1), -e) / math.sqrt(R)


@dataclass(frozen=True, eq=False)
class LagEstimate:
    """Monte Carlo covariogram or structure function at grid lags, with standard errors."""

    n: int
    lags: tuple
    value: np.ndarray
    stderr: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return np.asarray(self.lags, dtype=float) / self.n


def empirical_covariogram(e: PathEnsemble, lags) -> LagEstimate:
    """Estimate C(d/n) by circular averaging over the grid and replicates, O(R n L) for L lags."""
    value, stderr = replicate_mean(replicate_lag_products(e.values, lags))  # checks the lags
    return LagEstimate(e.n, tuple(map(int, lags)), value, stderr)
