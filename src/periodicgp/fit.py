"""Maximum likelihood for the power-law family c_k = a / k^p from one path.

Under the series convention the observed harmonics of a model path are
independent zero-mean Gaussians,

    sin_k, cos_k ~ N(0, sigma_k^2),    sigma_k^2 = 2 a^2 / k^(2p),

so the likelihood factors over harmonics and the amplitude profiles out in
closed form:

    a^2(p) = (1/(4K)) sum_{k<=K} (sin_k^2 + cos_k^2) k^(2p).

What remains is the one-dimensional criterion, the Whittle periodogram
likelihood specialised to this family,

    g(p) = K log a^2(p) - 2 p sum_{k<=K} log k      (+ constants),

which is convex in p (a log-sum-exp of linear functions minus a linear
term).  With weights w_k proportional to T_k k^(2p), T_k = sin_k^2 + cos_k^2,

    g'(p) = 2K E_w[log k] - 2 sum_{k<=K} log k,    g''(p) = 4K Var_w[log k],

so g' is increasing.  Its signs at the search bounds decide whether the
minimizer is a bound (flag "boundary") or the single interior root of g';
fit_mle finds that root by Newton steps on g', replacing any step that
leaves the current sign-change bracket by the bracket's midpoint.  The
reported p is a stationary point to machine precision rather than a
bracket midpoint, and since rescaling the data only shifts log T_k by a
constant, which the normalized weights do not see, the estimate is
invariant under it to well below 1e-9.

The path mean plays no role in the model (c0 = 0); it is removed by the
harmonic analysis and reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expm1

from . import dft
from .core import (
    AliasingError,
    DegenerateDataError,
    GridPath,
    ParametricModel,
    SpectralCoefficients,
    TailDecay,
)

DEFAULT_P_BOUNDS = (0.55, 6.0)
_MAX_SLOPE_EVALUATIONS = 100
DISPERSION_THRESHOLD = 2.0
_ENERGY_FLOOR = 1e-300


def model_coefficients(model: ParametricModel, K: int) -> SpectralCoefficients:
    """Coefficients a/k^p for k <= K, with the exact power tail declared."""
    if K < 1:
        raise ValueError("need at least one harmonic")
    k = np.arange(1, K + 1, dtype=float)
    return SpectralCoefficients(
        c0=0.0,
        c=model.a * k ** (-model.p),
        declared_tail=TailDecay(q=2.0 * model.p, const=model.a ** 2),
    )


def _harmonic_energy(h: dft.HarmonicDecomposition, K: int) -> np.ndarray:
    if K < 1:
        raise ValueError("need at least one harmonic")
    if K > h.sin_coef.size:
        raise AliasingError(f"only {h.sin_coef.size} harmonics available below Nyquist")
    T = h.sin_coef[:K] ** 2 + h.cos_coef[:K] ** 2
    if not np.any(T > _ENERGY_FLOOR):
        raise DegenerateDataError("degenerate observation: no harmonic energy")
    return T


def profile_amplitude(h: dft.HarmonicDecomposition, p: float, K: int) -> float:
    """Closed-form profile maximizer a^2(p) = (1/(4K)) sum T_k k^(2p)."""
    T = _harmonic_energy(h, K)
    logk = np.log(np.arange(1, K + 1, dtype=float))
    return float(np.sum(T * np.exp(2.0 * p * logk))) / (4.0 * K)


def _slope(T: np.ndarray):
    """p -> (g'(p), g''(p)) of the profiled criterion, from one weighted pass over T.

    The weights T_k k^(2p) are taken as exp(e - max e), e = log T_k + 2p log k:
    g' and g'' are ratios of weighted sums, so the common factor drops out,
    and no exponent can overflow whatever the bounds or the data scale.
    """
    K = T.size
    logk = np.log(np.arange(1, K + 1, dtype=float))
    two_S = 2.0 * float(logk.sum())
    keep = T > 0.0  # zero energies carry zero weight
    logT, logk = np.log(T[keep]), logk[keep]
    logk_sq = logk * logk

    def slope(p: float):
        e = logT + 2.0 * p * logk
        w = np.exp(e - e.max())
        A = float(w.sum())
        m = float(w @ logk) / A
        return 2.0 * K * m - two_S, 4.0 * K * (float(w @ logk_sq) / A - m * m)

    return slope


def _minimize(slope, lo: float, hi: float):
    """Minimizer of a convex criterion on [lo, hi], given p -> (g', g'').

    g' is increasing: if it has one sign over the bounds the minimizer is
    the bound it points to; otherwise Newton steps on g' converge to its
    root, and a step leaving the sign-change bracket is replaced by the
    bracket's midpoint.  Returns (p, g' evaluations, bracket, converged).
    """
    if slope(lo)[0] >= 0.0:
        return lo, 1, (lo, hi), True
    if slope(hi)[0] <= 0.0:
        return hi, 2, (lo, hi), True
    a, b = lo, hi
    p = 0.5 * (lo + hi)
    for evaluations in range(3, _MAX_SLOPE_EVALUATIONS + 1):
        d, dd = slope(p)
        if d == 0.0:
            return p, evaluations, (a, b), True
        if d < 0.0:
            a = p
        else:
            b = p
        p_next = p - d / dd if dd > 0.0 else math.nan
        if not a < p_next < b:
            p_next = 0.5 * (a + b)
        if abs(p_next - p) <= 1e-12 * max(1.0, abs(p)):
            return p_next, evaluations, (a, b), True
        p = p_next
    return p, _MAX_SLOPE_EVALUATIONS, (a, b), False


@dataclass(frozen=True)
class Convergence:
    converged: bool
    iterations: int
    bracket: tuple
    flag: str  # "interior" or "boundary"


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    p_hat: float
    neg_log_likelihood: float
    K_used: int
    convergence: Convergence
    path_mean: float


def fit_mle(path: GridPath, K: int | None = None,
            p_bounds: tuple = DEFAULT_P_BOUNDS) -> FitResult:
    """Fit (a, p) to one observed path by profile likelihood.

    K defaults to n/4: safely below Nyquist while the truncation bias,
    O(K^(1-2p)), stays negligible.  A minimizer pinned at a search bound
    is reported with the "boundary" convergence flag, not an error; single
    tones push p to the upper bound this way.
    """
    h = dft.analyze(path)
    n = path.n
    if K is None:
        K = n // 4
    if K < 4:
        raise ValueError("need at least 4 harmonics to identify (a, p)")
    if K >= n // 2:
        raise AliasingError(f"K={K} aliases on a grid of size {n}")
    lo, hi = float(p_bounds[0]), float(p_bounds[1])
    if not (0.5 < lo < hi < math.inf):
        raise ValueError("p bounds must satisfy 1/2 < lo < hi < inf")
    T = _harmonic_energy(h, K)
    p_hat, iterations, bracket, converged = _minimize(_slope(T), lo, hi)
    flag = "interior" if lo < p_hat < hi else "boundary"

    a_sq = profile_amplitude(h, p_hat, K)
    k = np.arange(1, K + 1, dtype=float)
    sigma_sq = 2.0 * a_sq * k ** (-2.0 * p_hat)
    nll = float(np.sum(T / (2.0 * sigma_sq) + np.log(sigma_sq))) + K * math.log(2.0 * math.pi)
    return FitResult(
        a_hat=math.sqrt(a_sq),
        p_hat=float(p_hat),
        neg_log_likelihood=nll,
        K_used=K,
        convergence=Convergence(converged, iterations, tuple(float(b) for b in bracket), flag),
        path_mean=h.mean,
    )


@dataclass(frozen=True)
class GoodnessReport:
    """Exponential residual diagnostics for a fitted path.

    Well-specified data gives residual_mean 1 (exactly, at an interior
    optimum) and dispersion near 1; misspecified spectra, such as the
    half-integer frequencies of a plain bridge, inflate the dispersion.
    """

    residual_mean: float
    dispersion: float
    ks_statistic: float
    ks_pvalue: float
    flagged: bool
    threshold: float


def standardized_residuals(h: dft.HarmonicDecomposition, result: FitResult) -> np.ndarray:
    """Residuals r_k = (sin_k^2 + cos_k^2) k^(2p) / (4 a^2), Exp(1) under the fitted model."""
    T = _harmonic_energy(h, result.K_used)
    k = np.arange(1, result.K_used + 1, dtype=float)
    return T * k ** (2.0 * result.p_hat) / (4.0 * result.a_hat ** 2)


def residual_report(r: np.ndarray) -> GoodnessReport:
    """Dispersion and one-sample two-sided KS test of residuals against Exp(1).

    The KS statistic and its exact p-value are those of
    scipy.stats.kstest(r, "expon"), computed without its argument handling.
    """
    from scipy.stats import kstwo  # lazy: scipy.stats is most of the CLI's import time

    n = r.size
    mean = float(r.mean())
    dispersion = float(r.var(ddof=1)) / mean ** 2
    cdf = -expm1(-np.sort(r))
    D = float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))
    return GoodnessReport(
        residual_mean=mean,
        dispersion=dispersion,
        ks_statistic=D,
        ks_pvalue=float(np.clip(kstwo.sf(D, n), 0.0, 1.0)),
        flagged=dispersion > DISPERSION_THRESHOLD,
        threshold=DISPERSION_THRESHOLD,
    )


def goodness_of_fit(path: GridPath, result: FitResult) -> GoodnessReport:
    """residual_report of the path's harmonic residuals under the fit."""
    return residual_report(standardized_residuals(dft.analyze(path), result))
