"""Real-input harmonic analysis and periodic quadrature on power-of-two grids.

For samples x_j at t = j/n the decomposition conventions are

    mean    = (1/n) sum_j x_j
    sin_k   = (2/n) sum_j x_j sin(2 pi k j / n)     k = 1 .. n/2 - 1
    cos_k   = (2/n) sum_j x_j cos(2 pi k j / n)
    nyquist = (1/n) sum_j x_j (-1)^j

exact for trigonometric polynomials of degree below n/2, with Parseval

    (1/n) sum x_j^2 = mean^2 + (1/2) sum_k (sin_k^2 + cos_k^2) + nyquist^2.

cosine_table(f, K)[k] = (1/n) sum f_j cos(2 pi k j / n) is the rectangle
rule for integral f(s) cos(2 pi k s) ds, spectrally accurate for smooth
periodic f and O(n^-2) when f has a kink on a grid point.

Batched transforms run over stacked rows, ROW_BUDGET grid values at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AliasingError, GridPath, check_grid

# grid values per batched transform: enough rows to amortize per-call
# overhead, few enough that a chunk's temporaries stay at a few MB
ROW_BUDGET = 2 ** 19


@dataclass(frozen=True, eq=False)
class HarmonicDecomposition:
    n: int
    mean: float
    sin_coef: np.ndarray  # k = 1 .. n/2 - 1
    cos_coef: np.ndarray
    nyquist: float


def harmonics(F: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin_k, cos_k) of rfft bins F of a length-n grid, in the convention above."""
    return -2.0 * F.imag / n, 2.0 * F.real / n


def analyze(path: GridPath) -> HarmonicDecomposition:
    """Project a grid path onto the discrete trigonometric basis."""
    n = path.n  # GridPath has checked the grid
    F = np.fft.rfft(path.values)
    sin_coef, cos_coef = harmonics(F[1:n // 2], n)
    return HarmonicDecomposition(
        n=n,
        mean=float(F[0].real) / n,
        sin_coef=sin_coef,
        cos_coef=cos_coef,
        nyquist=float(F[n // 2].real) / n,
    )


def row_chunks(R: int, n: int) -> list:
    """(lo, hi) replicate ranges whose rows of length n fit ROW_BUDGET together."""
    step = max(1, ROW_BUDGET // n)
    return [(lo, min(lo + step, R)) for lo in range(0, R, step)]


def spectrum(n: int, mean, sin_coef, cos_coef, nyquist=0.0) -> np.ndarray:
    """Half spectrum whose irfft along the last axis is the analyze convention inverted.

    sin_coef and cos_coef hold harmonics k = 1..K (K < n/2) along their last
    axis, higher ones are zero; mean and nyquist hold one value per row.
    Scalars broadcast, so a zero cosine part can be passed as 0.0.
    """
    sin_c = np.asarray(sin_coef, dtype=float)
    K = sin_c.shape[-1]
    F = np.zeros(sin_c.shape[:-1] + (n // 2 + 1,), dtype=complex)
    F[..., 0] = n * np.asarray(mean, dtype=float)
    F[..., 1:K + 1] = n * (cos_coef - 1j * sin_c) / 2.0
    F[..., n // 2] = n * np.asarray(nyquist, dtype=float)
    return F


def synthesize(h: HarmonicDecomposition) -> GridPath:
    """Inverse of analyze: rebuild the path from its harmonics."""
    n = h.n
    check_grid(n)
    sin_c = np.asarray(h.sin_coef, dtype=float)
    cos_c = np.asarray(h.cos_coef, dtype=float)
    if sin_c.shape != (n // 2 - 1,) or cos_c.shape != (n // 2 - 1,):
        raise ValueError("harmonic arrays must have length n/2 - 1")
    return GridPath(n, np.fft.irfft(spectrum(n, h.mean, sin_c, cos_c, h.nyquist), n))


def check_harmonics(K: int, n: int) -> None:
    """Harmonics 0..K on an n-point grid: K < 0 is a ValueError, K >= n/2 aliases."""
    if K < 0:
        raise ValueError(f"harmonic count K must be nonnegative, got {K}")
    if K >= n // 2:
        raise AliasingError(f"harmonic {K} is aliased on a grid of size {n}")


def cosine_table(samples, K: int) -> np.ndarray:
    """Rectangle-rule cosine integrals (1/n) sum f_j cos(2 pi k j / n), k = 0..K."""
    f = np.asarray(samples, dtype=float)
    n = f.size
    if f.ndim != 1:
        raise ValueError("quadrature needs a flat sample grid")
    check_grid(n)
    check_harmonics(K, n)
    return np.fft.rfft(f)[:K + 1].real / n
