"""Path regularity: predicted from coefficient decay, estimated from paths.

Decay c_k^2 = O(k^-q) with q > 1 guarantees m = max{j : 2j + 1 < q}
derivatives whose last one is Holder continuous of every order below
alpha/2, alpha = min(1, q - 1 - 2m).  The empirical side inverts the
structure function S(h) = E (x_{t+h} - x_t)^2 = 2 (C(0) - C(h)): its
log-log slope over small lags, halved, estimates the Holder exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DegenerateDataError,
    PathEnsemble,
    RegularityReport,
    SpectralCoefficients,
    _as_int,
)
from .synthesis import LagEstimate, lag_array, replicate_lag_products, replicate_mean

# beyond this raw structure-function slope the method saturates: the paths
# are consistent with differentiability and the halved slope is reported as 1
SATURATION_SLOPE = 1.9
SATURATION_FLAG = "possibly differentiable; analyze derivative spectrum"


def predict_regularity(q: float) -> RegularityReport:
    """Guaranteed regularity for coefficient decay c_k^2 = O(k^-q).

    Requires q > 1 (summable mass, hence a continuous covariogram).  At the
    integer boundaries q = 2m + 1 the derivative count steps down so the
    Holder increment stays strictly positive: the guarantee is conservative
    rather than sharp there.
    """
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError("not guaranteed continuous by this criterion (need q > 1)")
    half = (q - 1.0) / 2.0
    m = int(math.floor(half))
    if m == half:
        m -= 1
    alpha = min(1.0, q - 1.0 - 2.0 * m)
    return RegularityReport(q=float(q), m=m, holder_bound=alpha / 2.0)


class DecayFit(NamedTuple):
    q: float
    constant: float
    residual: float


def fit_decay(c: SpectralCoefficients, k_min: int = 1, k_max: int | None = None) -> DecayFit:
    """Least-squares power law c_k^2 ~ constant * k^-q over log-log axes."""
    k_max = c.support if k_max is None else k_max
    if not (1 <= _as_int(k_min, "k_min") < _as_int(k_max, "k_max") <= c.support):
        raise ValueError("need 1 <= k_min < k_max <= support")
    if k_max - k_min + 1 < 4:
        raise ValueError("need at least 4 coefficients in the fit window")
    ck = c.c[k_min - 1:k_max]
    if np.any(ck == 0.0):
        raise DegenerateDataError("zero spectral mass in fit window")
    x = np.log(np.arange(k_min, k_max + 1, dtype=float))
    y = 2.0 * np.log(ck)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return DecayFit(q=float(-slope), constant=float(np.exp(intercept)),
                    residual=float(np.sqrt(np.mean(resid ** 2))))


def structure_function(e: PathEnsemble, lags) -> LagEstimate:
    """Mean squared increment S(d/n), circularly averaged over t and replicates."""
    d = lag_array(lags, 1, e.n // 2)
    per = replicate_lag_products(e.values, np.concatenate(([0], d)))
    tiny = np.finfo(float).tiny  # below it lag products are subnormal or 0
    if np.all(per[:, 0] < tiny) and e.values.any():
        raise ValueError(f"every path's mean square is below {tiny:.3g}; rescale the ensemble")
    value, stderr = replicate_mean(2.0 * (per[:, :1] - per[:, 1:]))
    return LagEstimate(e.n, tuple(d.tolist()), value, stderr)


@dataclass(frozen=True)
class HolderEstimate:
    """Estimated path Holder exponent from structure-function scaling."""

    exponent: float
    stderr: float
    raw_slope: float
    raw_slope_stderr: float
    flag: str | None
    lags: tuple


def dyadic_window(n: int) -> tuple:
    """Dyadic lags 2^j with 1/n <= 2^j/n <= 1/8, the estimation window."""
    return tuple(2 ** j for j in range(int(n).bit_length() - 3))


def estimate_holder(e: PathEnsemble) -> HolderEstimate:
    """Half the log-log slope of S(h) over the window dyadic_window(e.n).

    The report is capped at 1.0: increments of a differentiable path scale
    as h^2 no matter how smooth the path is, so the method cannot resolve
    anything above exponent one.  Raw slopes beyond SATURATION_SLOPE set
    the saturation flag.
    """
    window = dyadic_window(e.n)
    if len(window) < 4:
        raise ValueError("need at least 4 window lags")
    sf = structure_function(e, window)
    if np.any(sf.value <= 0.0):
        raise DegenerateDataError("nonpositive structure function in window")
    x, y = np.log(sf.delta), np.log(sf.value)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope_se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    flagged = slope > SATURATION_SLOPE
    return HolderEstimate(
        exponent=min(1.0, float(slope) / 2.0),
        stderr=slope_se / 2.0,
        raw_slope=float(slope),
        raw_slope_stderr=slope_se,
        flag=SATURATION_FLAG if flagged else None,
        lags=window,
    )
