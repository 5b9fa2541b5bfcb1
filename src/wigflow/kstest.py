"""The two-sided two-sample Kolmogorov-Smirnov test of equal-size samples.

A port of scipy 1.17's `scipy.stats.ks_2samp(method="auto")`, kept to the
branches two finite samples of equal size reach, with each operation in
scipy's form and order: its statistic and p-value are scipy's floats, and
no run imports `scipy.stats`.  From scipy/stats/_stats_py.py and _ksstats.py,
(c) 2001-2002 Enthought, Inc., 2003-2024 SciPy Developers, BSD 3-Clause License.
"""

import numpy as np
from scipy.special import smirnov

_MAX_EXACT = 10000   # scipy's MAX_AUTO_N: larger samples take the asymptotic path
_MIN_SIZE = 282   # smaller ones may need kolmogn's branches for n <= 140, not ported
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_2samp(sample, reference) -> tuple:
    """(statistic, p-value) of two equal-size samples, as numpy floats."""
    data1, data2 = np.sort(sample), np.sort(reference)
    n = data1.shape[0]
    if data1.ndim != 1 or data2.shape != (n,) or n < _MIN_SIZE:
        raise ValueError(f"two samples of {_MIN_SIZE} or more values, of equal size, "
                         f"needed; got shapes {data1.shape} and {data2.shape}")
    data_all = np.concatenate([data1, data2])
    if not np.all(np.isfinite(data_all)):
        raise ValueError("the samples hold a non-finite value")
    cdf1 = np.searchsorted(data1, data_all, side="right") / n
    cdf2 = np.searchsorted(data2, data_all, side="right") / n
    cddiffs = cdf1 - cdf2
    minS = np.clip(-cddiffs[np.argmin(cddiffs)], 0, 1)
    maxS = cddiffs[np.argmax(cddiffs)]
    d = minS if minS > maxS else maxS
    if n <= _MAX_EXACT:
        h = int(np.round(d * n))   # n is the lcm of the sizes
        d = h * 1.0 / n
        if h == 0:
            return np.float64(d), np.clip(1.0, 0, 1)
        # scipy's guard: at equal sizes every factor is below 1, so it never
        # raises; if it ever does, the error propagates
        with np.errstate(invalid="raise", over="raise"):
            prob = _prob_outside_square(n, h)
        # at small h it can round above 1; then, as in scipy (which also
        # warns), the asymptotic path decides
        if 0 <= prob <= 1:
            return np.float64(d), np.clip(prob, 0, 1)
    # kstwo.sf returns float64, though DMTW may scale its result in long double
    return np.float64(d), np.clip(np.float64(_kstwo_sf(d, round(n / 2))), 0, 1)


def _prob_outside_square(n, h):
    # Pr(D_{n,n} >= h/n) = 2 (binom(2n, n-h) - binom(2n, n-2h) + ...) / binom(2n, n)
    # in Horner form 2 A0 (1 - A1 (1 - A2 (1 - ...))), against cancellation
    P = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return 2 * P


def _kstwo_sf(d, n):
    # kstwo.sf(d, n) for n > 140: its support edges, then kolmogn(n, x, cdf=False)
    x = np.asarray(d, dtype=np.float64)   # the 0-d array kolmogn iterates over
    t = n * x
    if d <= 0.5 / n or t <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if t <= 1.0:   # Ruben-Gambino, with log(n!/n^n) by Stirling less n log n
        rn = 1.0 / n
        lfac = np.log(n) / 2 - n + np.log(2 * np.pi) / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)
        return np.clip(1.0 - np.exp(lfac + n * np.log(2 * t - 1)), 0.0, 1.0)
    if t >= n - 1:   # Ruben-Gambino
        return np.clip(2 * (1.0 - x)**n, 0.0, 1.0)
    if x >= 0.5:   # exact
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return np.clip(1.0 - cdfprob, 0.0, 1.0)


def _kolmogn_DMTW(n, d):
    # Pr(D_n <= d), d = (k - h)/n, as the k-th diagonal entry of (n!/n^n) H^n
    # (Durbin; Marsaglia, Tsang and Wang), scaled by 2^128 against over- and underflow
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm   # the first column of H, and reversed its last row
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0   # the scaling of Hpwr
    Hexpnt = 0   # the scaling of H
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
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogn_PelzGood(n, x):
    # Pr(D_n <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = x sqrt(n)
    # (Li-Chien, Korolyuk), each K by Jacobi's theta transform for small z (Pelz, Good)
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:   # z below about 0.0417
        return 0.0
    q = np.exp(qlog)
    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = np.pi ** 6 * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):   # Horner over the odd m = 2k - 1 of sum c_m q^(m^2)
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
    q = np.exp(-_PI_SQUARED / 2 / zsquared)   # the rest of K2 and K3, over every k
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = np.sqrt(3) * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
