"""Brownian bridge constructions on the circle and their exact spectra.

The plain bridge pinned at both ends is the sine series

    x_t = sqrt(2) sum_{k>=1} W_k sin(pi k t) / (k pi),   Var x_t = t (1 - t).

Randomizing its starting point uniformly over the circle yields a
stationary process, the centered bridge, with covariogram

    C(d) = (|d| - 1/2)^2 / 2 + 1/24

and coefficients c0 = 1/sqrt(12), c_k = 1/(2 pi k).  Subtracting the path
mean instead gives the centralized bridge, whose covariogram is the same
expression with -1/24; the two differ by an independent mean offset Z of
variance 1/12.  decomposition_check verifies that split empirically, and
proof_identity evaluates the series identity

    (1/(k^2 pi^4)) sum_{m>=0} (1/(2k+2m+1) + 1/(2k-2m-1))^2 = 1/(4 k^2 pi^2)

behind the Gaussianity of the centered construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (Covariogram, GridPath, PathEnsemble, SpectralCoefficients, TailDecay,
                   _as_int, check_grid)
from .synthesis import (
    SQRT2,
    RngStream,
    _ensemble,
    _fill_ranges,
    _path,
    _series_rows,
    replicate_lag_products,
    replicate_mean,
)

VARIANTS = ("plain", "centered_shift", "centralized", "centered_series")

DEFAULT_COEFF_SUPPORT = 512


def _bridge_covariogram(n: int, shift: float) -> Covariogram:
    """(d - 1/2)^2 / 2 + shift tabulated on the grid j/n."""
    check_grid(n)
    return Covariogram((np.arange(n) / n - 0.5) ** 2 / 2.0 + shift)


def centered_bridge_covariogram(n: int) -> Covariogram:
    """The centered bridge's covariogram on j/n.  The kink at d = 0 sits on a grid
    point, so 4096 points resolve its cosine coefficients to about 5e-9 each."""
    return _bridge_covariogram(n, 1.0 / 24.0)


def centralized_bridge_covariogram(n: int) -> Covariogram:
    """The centralized bridge's covariogram on j/n: the centered one less 1/12."""
    return _bridge_covariogram(n, -1.0 / 24.0)


def centered_bridge_coefficients() -> SpectralCoefficients:
    """c0 = 1/sqrt(12), c_k = 1/(2 pi k) stored to DEFAULT_COEFF_SUPPORT, with the exact
    k^-2 tail declared beyond; materialize(K) gives any longer prefix."""
    k = np.arange(1, DEFAULT_COEFF_SUPPORT + 1, dtype=float)
    return SpectralCoefficients(
        c0=1.0 / math.sqrt(12.0),
        c=1.0 / (2.0 * math.pi * k),
        declared_tail=TailDecay(q=2.0, const=1.0 / (4.0 * math.pi ** 2)),
    )


def resolve_truncation(variant: str, n: int, M: int | None = None) -> int:
    """M if given, else n/2 sine modes, or n/2 - 1 harmonics for the series variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown bridge variant {variant!r}")
    if M is not None:
        return _as_int(M, "sine truncation M")
    return n // 2 - 1 if variant == "centered_series" else n // 2


def _sine_rows(variant: str, n: int, M: int | None, gens, out=None) -> np.ndarray:
    """Bridge rows of the variant on j/n, one per generator: centered_series truncates the
    series of centered_bridge_coefficients at M harmonics, the other variants are sine series
    through inverse transforms, each generator drawing the centered_shift offset first, then its
    W block.  sin(pi k j / n) is an integer-frequency sine on the doubled grid 2n: Im F_k of
    its half spectrum is -n sqrt2 W_k / (k pi).  Into out (or new rows), centered_shift
    rotates them by their offsets, centralized subtracts row means."""
    check_grid(n)
    M = resolve_truncation(variant, n, M)
    if variant == "centered_series":
        return _series_rows(centered_bridge_coefficients(), M, n, gens, out)
    if M < 0 or M >= n:
        raise ValueError("sine truncation must satisfy 0 <= M < n")
    w = np.empty((len(gens), M))
    F = np.zeros((len(gens), n + 1), dtype=complex)
    doubled = np.empty((len(gens), 2 * n))
    out = np.empty((len(gens), n)) if out is None else out

    def fill(lo, hi):  # streams are independent: all offsets of the range first, then all W
        shifts = [gens[i].integers(n) for i in range(lo, hi) if variant == "centered_shift"]
        for i in range(lo, hi):
            gens[i].standard_normal(out=w[i])
        amp = np.multiply(SQRT2, w[lo:hi], out=w[lo:hi])  # -n sqrt2 W_k / (k pi), in order
        amp /= np.arange(1, M + 1) * np.pi
        np.multiply(amp, -n, out=F.imag[lo:hi, 1:M + 1])
        values = np.fft.irfft(F[lo:hi], 2 * n, axis=1, out=doubled[lo:hi])[:, :n]
        values[:, 0] = 0.0  # sin(0) = 0; pin the fixed end against transform rounding
        if variant == "centered_shift":
            for row, x, s in zip(out[lo:hi], values, shifts):
                row[s:], row[:s] = x[:n - s], x[n - s:]
        elif variant == "centralized":
            np.subtract(values, values.mean(axis=1, keepdims=True), out=out[lo:hi])
        else:
            out[lo:hi] = values

    _fill_ranges(len(gens), fill)
    return out


def plain_bridge_path(n: int, M: int | None = None, rng: RngStream = None) -> GridPath:
    """Brownian bridge on j/n from M sine modes; both ends pinned at zero."""
    return bridge_path("plain", n, M, rng)


def bridge_path(variant: str, n: int, M: int | None = None, rng: RngStream = None) -> GridPath:
    """One bridge path of the given variant on j/n, drawn from stream rng."""
    return _path(functools.partial(_sine_rows, variant, n, M), n, rng)


def bridge_ensemble(variant: str, R: int, n: int, master_seed: int,
                    M: int | None = None) -> PathEnsemble:
    """R replicate bridge paths, one stream per replicate as in synthesis."""
    return _ensemble(functools.partial(_sine_rows, variant, n, M), R, n, master_seed, 2 * n)


class IdentityCheck(NamedTuple):
    partial_sum: float
    target: float
    gap: float


def proof_identity(k: int, terms: int) -> IdentityCheck:
    """Partial sum of the Gaussianity series identity against 1/(4 k^2 pi^2).

    Partial sums increase monotonically in the number of terms and stay
    below the closed form, so the gap is a one-sided convergence measure.
    """
    if _as_int(k, "harmonic index k") < 1:
        raise ValueError("harmonic index k must be >= 1")
    if _as_int(terms, "term count") < 1:
        raise ValueError("need at least one term")
    m = np.arange(terms, dtype=float)
    series = (1.0 / (2 * k + 2 * m + 1) + 1.0 / (2 * k - 2 * m - 1)) ** 2
    partial = float(series.sum()) / (k * k * np.pi ** 4)
    target = 1.0 / (4.0 * k * k * np.pi ** 2)
    return IdentityCheck(partial, target, abs(target - partial))


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Empirical check that the centered bridge splits as mean offset + centralized part."""

    R: int
    n: int
    var_z: float
    var_z_stderr: float
    var_z_target: float
    lags: tuple
    residual_cov: np.ndarray
    residual_cov_stderr: np.ndarray
    residual_cov_target: np.ndarray
    gridpoints: tuple
    correlation: np.ndarray
    correlation_stderr: float
    var_ok: bool
    cov_ok: bool
    corr_ok: bool

    @property
    def passed(self) -> bool:
        return self.var_ok and self.cov_ok and self.corr_ok


def decomposition_check(R: int, n: int, M: int | None = None,
                        master_seed: int = 0) -> DecompositionReport:
    """Split centered-shift paths into grid mean Z and residual, verify the law.

    Checks Var(Z) = 1/12, the residual covariogram against the centralized
    closed form at 8 lags, and the Z-residual correlation at 8 gridpoints,
    all within 3 standard errors.
    """
    if R < 2:
        raise ValueError("decomposition check needs R >= 2 replicates for a variance")
    if n < 16:
        raise ValueError("decomposition check needs n >= 16 for 8 distinct lags")
    if M is not None and M < 1:
        raise ValueError("decomposition check needs M >= 1 sine modes; "
                         "with none every path is zero")
    e = bridge_ensemble("centered_shift", R, n, master_seed, M=M)
    z = e.values.mean(axis=1)
    resid = e.values - z[:, None]

    z_sq = z ** 2  # E[Z] = 0 by stationarity, so mean(Z^2) estimates the variance
    var_z, var_z_se = map(float, replicate_mean(z_sq))

    lags = tuple(int(n * j / 16) for j in range(1, 9))
    cov, cov_se = replicate_mean(replicate_lag_products(resid, np.asarray(lags)))
    target = centralized_bridge_covariogram(n).at(np.asarray(lags) / n)

    gridpoints = tuple(int(n * j / 8) for j in range(8))
    cols = resid[:, list(gridpoints)]
    zc = z - z.mean()
    rc = cols - cols.mean(axis=0)
    denom = (R - 1) * np.std(z, ddof=1) * cols.std(axis=0, ddof=1)
    corr = (zc @ rc) / denom
    corr_se = 1.0 / math.sqrt(R)  # null standard error of a sample correlation

    band = 3.0  # standard errors
    var_ok = abs(var_z - 1.0 / 12.0) <= band * var_z_se
    cov_ok = bool(np.all(np.abs(cov - target) <= band * cov_se))
    corr_ok = bool(np.all(np.abs(corr) <= band * corr_se))
    return DecompositionReport(
        R=R, n=n,
        var_z=var_z, var_z_stderr=var_z_se, var_z_target=1.0 / 12.0,
        lags=lags, residual_cov=cov, residual_cov_stderr=cov_se,
        residual_cov_target=np.asarray(target),
        gridpoints=gridpoints, correlation=corr, correlation_stderr=corr_se,
        var_ok=var_ok, cov_ok=cov_ok, corr_ok=corr_ok,
    )
