"""Exact upper tail P(D_n >= d) of the two-sided one-sample Kolmogorov–Smirnov statistic.

A port of the survival-function path of scipy 1.17.1's
``scipy.stats._ksstats._kolmogn(n, d, cdf=False)`` (BSD-3-Clause, Copyright
the SciPy developers), with the same numpy operations in the same order, so
that ``sf`` equals ``scipy.stats.kstwo.sf`` bit for bit without importing
``scipy.stats``, or ``scipy.special``: ``smirnov`` is scipy's own ufunc from
``core._scipy_ufuncs``.  Only the ``cdf`` argument and checks that this path
cannot reach are dropped.  The method and its cut-offs are those of

    Simard R, L'Ecuyer P (2011).  Computing the two-sided Kolmogorov-Smirnov
    distribution.  J. Stat. Softw. 39(11), 1-18.

Branches of ``sf``, with t = n d:
    t <= 1 or t >= n - 1    Ruben-Gambino closed forms (both ends)
    d >= 0.5                2 smirnov(n, d), exact there
    n <= 140                Durbin's matrix for n d^2 <= 0.754693, Pomeranz's
                            recursion for n d^2 <= 4, Miller's 2 smirnov above
    n > 140                 0 for n d^2 >= 370, 2 smirnov for n d^2 >= 2.2, else
                            1 - CDF by Durbin's matrix (n <= 100000 and
                            n d^1.5 <= 1.4) or the Pelz-Good series

References: Durbin J (1968), Ann. Math. Stat. 39, 398-411; Marsaglia G,
Tsang WW, Wang J (2003), J. Stat. Softw. 8(18), 1-4; Pomeranz J (1974),
Algorithm 487, CACM 17(12), 703-704; Pelz W, Good IJ (1976), JRSS B 38(2),
152-156.
"""

import numpy as np

from .core import _scipy_ufuncs

smirnov = _scipy_ufuncs().smirnov
_E128 = 128
_EP128, _EM128 = np.ldexp(np.longdouble(1), _E128), np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI, _LOG_2PI, _SQRT3 = np.sqrt(2 * np.pi), np.log(2 * np.pi), np.sqrt(3)
_MIN_LOG = -708
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi ** 2, np.pi ** 4, np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1 (B_m Bernoulli numbers)
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3, -1.9175269175269175269e-3,
                    8.4175084175084175084e-4, -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_nfactorial_div_n_pow_n(n):
    """log(n!/n^n) by Stirling's series, with n log n removed up front."""
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _durbin_cdf(n, d):
    """P(D_n <= d), 1/n < d < 1/2, by Durbin's matrix in the Marsaglia-Tsang-Wang form: with
    d = (k - h)/n, entry (k, k) of (n!/n^n) H^n for an m x m matrix H, m = 2k - 1, powered
    by squaring and rescaled by 2^128 as needed."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v: first column and (reversed) last row of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr = np.eye(np.shape(H)[0])
    nn, expnt, Hexpnt = n, 0, 0  # expnt, Hexpnt: the 2^128 scalings of Hpwr and H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the nonzero entries of row i of Pomeranz's recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n, x):
    """P(D_n <= x) by Pomeranz's recursion: n! times the last entry of 2n + 2 rows, each the
    last convolved with one of three unnormalized Poisson weight vectors.  Only two rows and
    their nonzero windows are kept, rescaled by 2^128 against underflow."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf, roundf = (1 if f > 0 else 0), (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    # (g/n)^m/m!, (2g/n)^m/m! and ((1-2g)/n)^m/m!
    gpower, twogpower, onem2gpower = np.empty(npwrs), np.empty(npwrs), np.empty(npwrs)
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m
    V0, V1 = np.zeros([npwrs]), np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        pwrs = gpower if i == 1 or i == 2 * n + 1 else (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _pelz_good_cdf(n, x):
    """Pelz-Good approximation to P(D_n <= x): the Li-Chien/Korolyuk expansion
    K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = x sqrt(n), with each K_i
    rewritten by the Jacobi theta functional equation into a series for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0
    q = np.exp(qlog)

    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd i
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0, k1a + k1b*msquared, k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k of K2, (pi^2 k^2) q^(k^2), and of K3,
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2), summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared, sqrt3z, kspi = ks ** 2, _SQRT3 * z, np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)  # powers of n
    return sum(K0to3)


def sf(n: int, d: float):
    """P(D_n >= d) for n >= 1 and 0 <= d <= 1, unclipped as in scipy: clip it to [0, 1]."""
    if d >= 1.0:
        return 0.0
    if d <= 0.0:
        return 1.0
    t = n * d
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= d <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - d)**n
    if d >= 0.5:  # exact: 2 smirnov
        return 2 * smirnov(n, d)
    nxsquared = t * d
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _durbin_cdf(n, d)
        if nxsquared <= 4:
            return 1.0 - _pomeranz_cdf(n, d)
        return 2 * smirnov(n, d)  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * smirnov(n, d)
    if n <= 100000 and n * d**1.5 <= 1.4:
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)
