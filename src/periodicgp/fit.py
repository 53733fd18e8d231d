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
harmonic analysis and reported separately.  The public route is fit_mle, then
goodness_of_fit or residual_report.  A fit and its check of one path share one
analysis: _observe keeps the last path, its analysis and T (~2n + K floats).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dft
from .core import (
    DegenerateDataError,
    GridPath,
    ParametricModel,
    SpectralCoefficients,
    TailDecay,
    _as_int,
    _scipy_ufuncs,
)

DEFAULT_P_BOUNDS = (0.55, 6.0)
_MAX_SLOPE_EVALUATIONS = 100
DISPERSION_THRESHOLD = 2.0
_ENERGY_FLOOR = 1e-300


def model_coefficients(model: ParametricModel, K: int) -> SpectralCoefficients:
    """Coefficients a/k^p for k <= K, with the exact power tail declared."""
    if _as_int(K, "harmonic count K") < 1:
        raise ValueError("need at least one harmonic")
    k = np.arange(1, K + 1, dtype=float)
    return SpectralCoefficients(
        c0=0.0,
        c=model.a * k ** (-model.p),
        declared_tail=TailDecay(q=2.0 * model.p, const=model.a ** 2),
    )


@functools.lru_cache(maxsize=1)  # safe: a GridPath is read-only, hashes by identity, is held here
def _observe(path: GridPath, K: int):
    """dft.analyze(path) and its T_k, k <= K, shared by a fit and its check.  Until the next
    path, the one entry holds this path, h and T: ~2n + K floats, 18.0 MiB at n = 2^20."""
    h = dft.analyze(path)
    K = dft.check_harmonics(K, h.n)
    with np.errstate(over="ignore"):
        T = h.sin_coef[:K] ** 2 + h.cos_coef[:K] ** 2
    if not np.all(np.isfinite(T)):
        raise ValueError("harmonic energy sin_k^2 + cos_k^2 overflows the float range")
    if not np.any(T > _ENERGY_FLOOR):
        # a constant path has no harmonic; a tiny one's energies lie below the floor or at 0
        if np.any(h.sin_coef[:K]) or np.any(h.cos_coef[:K]):
            raise ValueError(f"every harmonic energy is below {_ENERGY_FLOOR:g}; rescale the path")
        raise DegenerateDataError("degenerate observation: no harmonic energy")
    return h, T


def _amplitude_sq(T: np.ndarray, logk: np.ndarray, p: float) -> float:
    return float(np.sum(T * np.exp(2.0 * p * logk))) / (4.0 * T.size)


def _slope(T: np.ndarray, logk: np.ndarray):
    """p -> (g'(p), g''(p)) of the profiled criterion, from one weighted pass over T.

    The weights T_k k^(2p) are taken as exp(e - max e), e = log T_k + 2p log k:
    g' and g'' are ratios of weighted sums, so the common factor drops out,
    and no exponent can overflow whatever the bounds or the data scale.
    """
    K = T.size
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
    K = _as_int(path.n // 4 if K is None else K, "harmonic count K")
    if K < 4:
        raise ValueError("need at least 4 harmonics to identify (a, p)")
    lo, hi = float(p_bounds[0]), float(p_bounds[1])
    if not (0.5 < lo < hi < math.inf):
        raise ValueError("p bounds must satisfy 1/2 < lo < hi < inf")
    h, T = _observe(path, K)
    logk = np.log(np.arange(1, K + 1, dtype=float))  # shared by g' and a^2(p)
    p_hat, iterations, bracket, converged = _minimize(_slope(T, logk), lo, hi)
    flag = "interior" if lo < p_hat < hi else "boundary"

    def amplitude_nll(p: float):  # inf or nan where a^2(p) or the likelihood overflows
        with np.errstate(all="ignore"):
            a_sq = _amplitude_sq(T, logk, p)
            sigma_sq = 2.0 * a_sq * np.arange(1, K + 1, dtype=float) ** (-2.0 * p)
            return a_sq, (float(np.sum(T / (2.0 * sigma_sq) + np.log(sigma_sq)))
                          + K * math.log(2.0 * math.pi))

    a_sq, nll = amplitude_nll(p_hat)
    if not (math.isfinite(a_sq) and math.isfinite(nll)):
        at_lo = all(map(math.isfinite, amplitude_nll(lo)))  # a^2(p) is least at p-min
        hint = (f"narrow the p bounds ({lo:g}, {hi:g})" if at_lo else
                f"the path's scale is out of range even at p-min={lo:g}; rescale the path")
        raise ValueError(f"no finite amplitude or likelihood at p={p_hat:g}; {hint}")
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


def _residuals(T: np.ndarray, result: FitResult) -> np.ndarray:  # Exp(1) under the fit
    k = np.arange(1, result.K_used + 1, dtype=float)
    return T * k ** (2.0 * result.p_hat) / (4.0 * result.a_hat ** 2)


def _ks_pvalue(D: float, n: int) -> float:
    """P(D_n >= D), the exact two-sided Kolmogorov tail that kstwo.sf computes."""
    from . import _kolmogorov  # lazy: it loads scipy's ufunc extension

    return min(max(float(_kolmogorov.sf(n, D)), 0.0), 1.0)  # a NaN passes, as in np.clip


def residual_report(r: np.ndarray) -> GoodnessReport:
    """Dispersion and one-sample two-sided KS test of residuals against Exp(1).

    The KS statistic and its exact p-value are those of scipy.stats.kstest(r, "expon"),
    computed without scipy.stats.  The p-value comes from _kolmogorov, a port of scipy's
    exact Kolmogorov kernel (Simard & L'Ecuyer, J. Stat. Softw. 39(11), 2011), pinned bit
    for bit against kstwo.sf by a differential test in tests/test_fit.py.  expm1 is
    scipy's ufunc, loaded on the first call by core._scipy_ufuncs, so that no other
    command pays for it.
    """
    n = r.size
    mean = float(r.mean())
    dispersion = float(r.var(ddof=1)) / mean ** 2
    cdf = -_scipy_ufuncs().expm1(-np.sort(r))
    D = float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))
    return GoodnessReport(
        residual_mean=mean,
        dispersion=dispersion,
        ks_statistic=D,
        ks_pvalue=_ks_pvalue(D, n),
        flagged=dispersion > DISPERSION_THRESHOLD,
        threshold=DISPERSION_THRESHOLD,
    )


def goodness_of_fit(path: GridPath, result: FitResult) -> GoodnessReport:
    """residual_report of the path's harmonic residuals under the fit."""
    return residual_report(_residuals(_observe(path, result.K_used)[1], result))
