"""Closed forms at 60 significant digits, for tests that state a relative tolerance.

Stdlib and ``mpmath`` only; nothing here calls ``cedrf``.  Inputs are
floats (or anything ``mpmath.mpf`` accepts) and are taken as exact, so a
test passes a model's own ``gram.values`` and ``sigma2`` and compares what
the library returns for them.  Results are ``mpmath.mpf``.

Rate conventions are the library's: rates in bits, the k-th active count on
``(R_k, R_{k+1}]``, ``R = 0`` with one active component; thresholds are
compared exactly, with no boundary slack.
"""

from mpmath import mp, mpf

#: Decimal digits of every computation here.
DPS = 60


@mp.workdps(DPS)
def thresholds(values):
    """``R_k = (1/2) sum_{l<=k} log2(v_l / v_k)`` of a positive non-increasing spectrum, then ``inf``."""
    v = [mpf(x) for x in values]
    return [mp.fsum(mp.log(a / v[k - 1], 2) for a in v[:k]) / 2
            for k in range(1, len(v) + 1)] + [mp.inf]


@mp.workdps(DPS)
def water_level(values, R):
    """Active count ``k`` and water level ``theta = (prod_{l<=k} v_l)^{1/k} 2^{-2R/k}``."""
    R = mpf(R)
    k = max(1, sum(1 for t in thresholds(values) if t < R))
    v = [mpf(x) for x in values[:k]]
    return k, mp.exp(mp.fsum(mp.log(a) for a in v) / k) * mp.power(2, -2 * R / k)


@mp.workdps(DPS)
def ce_drf(gram, sigma2, M, R):
    """Compress-and-estimate distortion for the gram spectrum ``gram`` (length L) at rate ``R``.

    Water-filling over ``lam + s2``; then
    ``1 - (1/M) sum_{l<=k} lam_l/(lam_l+s2) + (theta/M) sum_{l<=k} lam_l/(lam_l+s2)^2``.
    """
    s2 = mpf(sigma2)
    lam = [mpf(x) for x in gram]
    k, theta = water_level([a + s2 for a in lam], R)
    kept = mp.fsum(a / (a + s2) for a in lam[:k])
    weighted = mp.fsum(a / (a + s2) ** 2 for a in lam[:k])
    return 1 - kept / M + theta * weighted / M
