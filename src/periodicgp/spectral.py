"""Covariogram <-> coefficient transforms and empirical coefficient extraction.

The two directions form an isometry pair: c_k^2 is the k-th cosine
integral of the covariogram, and the covariogram is rebuilt as
C(d) = c0^2 + 2 sum c_k^2 cos(2 pi k d).  On a power-of-two grid both
directions are single real FFTs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dft
from .core import (
    Covariogram,
    PathEnsemble,
    SpectralCoefficients,
    SpectrumError,
    check_grid,
    read_grid_csv,
    write_table_csv,
)
from .synthesis import replicate_mean

DEFAULT_QUADRATURE_GRID = 4096


def covariogram_to_coeffs(g: Covariogram, K: int) -> SpectralCoefficients:
    """Extract coefficients c_0..c_K from a covariogram by cosine quadrature.

    Parameters
    ----------
    g : Covariogram
        The table whose grid is the quadrature grid.
    K : int
        Largest harmonic to extract; must stay below g.n/2.

    Returns
    -------
    SpectralCoefficients
        c_k = sqrt(max(0, mass_k)), where mass_k = (1/n) sum_j C(j/n) cos(2 pi k j / n)
        is the rectangle rule for the k-th cosine integral: spectrally accurate
        for smooth periodic C, O(n^-2) when C has a kink on a grid point.
        Mass at any harmonic 0..n/2, not only up to K, below
        -tol = -max(1e-9 c0^2, 1e-12 C(0)) aborts: the input cannot be a
        covariance function.  tol scales with the table, as rounding does, so
        neither the decision nor the coefficients depend on its units.
    """
    K = dft.check_harmonics(K, g.n)
    mass = np.fft.rfft(g.values).real / g.n  # k = 0..n/2
    tol = max(1e-9 * float(mass[0]), 1e-12 * abs(float(g.values[0])))
    worst = float(np.min(mass))
    if worst < -tol:
        raise SpectrumError(
            f"input is not positive semidefinite: cosine mass {worst:.3e} at "
            f"harmonic {int(np.argmin(mass))}")
    if worst < -0.1 * tol:
        warnings.warn(
            f"clamped negative cosine mass down to {worst:.3e}; "
            "input sits close to the tolerance boundary", stacklevel=2)
    # symmetric snap: quadrature noise is +-tol regardless of sign, and the
    # square root would amplify a noise-level positive into a visible c_k
    mass = np.where(np.abs(mass) < tol, 0.0, mass)[:K + 1]
    clamped = np.sqrt(np.clip(mass, 0.0, None))
    return SpectralCoefficients(float(clamped[0]), clamped[1:])


def coeffs_to_covariogram(c: SpectralCoefficients, n: int) -> Covariogram:
    """Rebuild the covariogram C(j/n) = c0^2 + 2 sum c_k^2 cos(2 pi k j / n).

    Only the explicitly stored harmonics enter; a declared tail cannot be
    folded onto a finite grid without aliasing, so the reconstruction is
    the truncated one.  Support must stay below n/2.
    """
    check_grid(n)
    K = dft.check_harmonics(c.support, n)
    spec = np.zeros(n // 2 + 1)
    spec[0] = c.c0 ** 2
    spec[1:K + 1] = np.square(c.c)
    F = n * spec.astype(complex)
    values = np.fft.irfft(F, n)
    # grid symmetry can be off by one rounding step; restore it exactly
    values = (values + np.concatenate(([values[0]], values[:0:-1]))) / 2.0
    return Covariogram(values)


@dataclass(frozen=True, eq=False)
class CoefficientEstimate:
    """Squared-coefficient estimates from an ensemble, with jackknife errors."""

    R: int
    c0_sq: float
    c0_sq_stderr: float
    c_sq: np.ndarray  # k = 1..K
    c_sq_stderr: np.ndarray


def empirical_coeffs(e: PathEnsemble, K: int) -> CoefficientEstimate:
    """Estimate c_k^2 from replicate harmonics.

    For paths built by synthesis the harmonics satisfy
    E[sin_k^2 + cos_k^2] = 4 c_k^2 and E[mean^2] = c0^2, which pins the
    normalization: the per-replicate statistic is (sin_k^2 + cos_k^2) / 4.
    Standard errors are jackknife ones, which for a plain mean reduce to
    std / sqrt(R).
    """
    K = dft.check_harmonics(K, e.n)
    n = e.n
    with np.errstate(over="ignore"):
        F = np.fft.rfft(e.values, axis=1)
        mean_stat = (F[:, 0].real / n) ** 2
        sin_c, cos_c = dft.harmonics(F[:, 1:K + 1], n)
        c_stat = (sin_c ** 2 + cos_c ** 2) / 4.0
    if not (np.isfinite(mean_stat).all() and np.isfinite(c_stat).all()):
        raise ValueError("harmonic energies overflow: a squared DFT term exceeds the float range")
    c0_sq, c0_se = replicate_mean(mean_stat)
    c_sq, c_se = replicate_mean(c_stat)
    return CoefficientEstimate(
        R=e.R,
        c0_sq=float(c0_sq),
        c0_sq_stderr=float(c0_se),
        c_sq=c_sq,
        c_sq_stderr=c_se,
    )


def write_covariogram_csv(g: Covariogram, path) -> None:
    """Write one period as delta,value rows."""
    write_table_csv("delta,value", [np.arange(g.n) / g.n, g.values], path)


def read_covariogram_csv(path) -> Covariogram:
    """Read a delta,value table into a user covariogram (validated)."""
    data = read_grid_csv(path, lambda h: h == "delta,value", "header 'delta,value'")
    try:
        return Covariogram(data[:, 1])
    except ValueError as exc:  # keeps the class: a SpectrumError still exits 4
        raise type(exc)(f"{path}: {exc}") from exc
