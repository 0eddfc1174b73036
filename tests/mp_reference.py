"""Closed forms at 60 significant digits, for tests that state a relative tolerance.

Stdlib and ``mpmath`` only; nothing here calls ``cedrf``.  Inputs are
floats (or anything ``mpmath.mpf`` accepts) and are taken as exact, so a
test passes a model's own ``gram.values`` and ``sigma2`` and compares what
the library returns for them.  Results are ``mpmath.mpf``.

Rate conventions are the library's: rates in bits, the k-th active count on
``(R_k, R_{k+1}]``, ``R = 0`` with one active component; thresholds are
compared exactly, as the library compares them.
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


def active_count(values, R):
    """Components of a positive non-increasing spectrum active at rate ``R``: at least 1."""
    return max(1, sum(1 for t in thresholds(values) if t < mpf(R)))


@mp.workdps(DPS)
def water_level(values, R):
    """Active count ``k`` and water level ``theta = (prod_{l<=k} v_l)^{1/k} 2^{-2R/k}``."""
    k = active_count(values, R)
    v = [mpf(x) for x in values[:k]]
    return k, mp.exp(mp.fsum(mp.log(a) for a in v) / k) * mp.power(2, -2 * mpf(R) / k)


@mp.workdps(DPS)
def idrf(gram, sigma2, M, R):
    """The optimal scheme's distortion for the gram spectrum ``gram`` at rate ``R``.

    Water-filling over the positive ``c = lam/(lam+s2)``; then
    ``1 - (1/M) sum_{l<=k} c_l + (k/M) theta``, or 1 when no ``lam`` is positive.
    """
    s2 = mpf(sigma2)
    cond = [mpf(a) / (mpf(a) + s2) for a in gram if a > 0]
    if not cond:
        return mpf(1)
    k, theta = water_level(cond, R)
    return 1 - (mp.fsum(cond[:k]) - k * theta) / M


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


@mp.workdps(DPS)
def mmse_floor(gram, sigma2, M):
    """Both curves' limit ``1 - (1/M) sum lam/(lam+s2)`` for the gram spectrum ``gram``."""
    s2 = mpf(sigma2)
    return 1 - mp.fsum(mpf(a) / (mpf(a) + s2) for a in gram) / M


@mp.workdps(DPS)
def gap(gram, sigma2, M, R):
    """``ce_drf - idrf`` for the gram spectrum ``gram`` at rate ``R``: the floor cancels here."""
    return ce_drf(gram, sigma2, M, R) - idrf(gram, sigma2, M, R)


@mp.workdps(DPS)
def sums(gram, sigma2, M, R):
    """``(S_i, S_c)``: ``M`` times ``idrf`` and ``ce_drf`` past ``mmse_floor``, the sums of
    non-negative terms whose difference is ``M`` times the gap."""
    floor = mmse_floor(gram, sigma2, M)
    return M * (idrf(gram, sigma2, M, R) - floor), M * (ce_drf(gram, sigma2, M, R) - floor)


def _f(lam, s2):
    """``sqrt(lam) / (lam + s2)``, the term whose difference the gap's lower bound squares."""
    return mp.sqrt(lam) / (lam + s2)


@mp.workdps(DPS)
def gap_upper_bound(gram, sigma2, M, R):
    """``(L/M) (lam_1 + s2)/(4 s2) 2^{-2R/L}`` for the gram spectrum ``gram`` of length L."""
    s2, L = mpf(sigma2), len(gram)
    return mpf(L) / M * (mpf(gram[0]) + s2) / (4 * s2) * mp.power(2, -2 * mpf(R) / L)


@mp.workdps(DPS)
def gap_lower_bound(gram, sigma2, M, R):
    """``(lam_L+s2)/M (f(lam_1) - f(lam_2))^2 2^{-2R/L}`` where the bound applies, else 0.

    It applies when ``L >= 2``, some ``lam`` is positive, the observation
    spectrum ``lam + s2`` has at least two active components and the
    estimate spectrum ``lam/(lam+s2)`` (its positive values) at least as many.
    """
    s2 = mpf(sigma2)
    lam = [mpf(x) for x in gram]
    cond = [a / (a + s2) for a in lam if a > 0]
    if len(lam) < 2 or not cond:
        return mpf(0)
    k_ce = active_count([a + s2 for a in lam], R)
    if k_ce < 2 or active_count(cond, R) < k_ce:
        return mpf(0)
    decay = mp.power(2, -2 * mpf(R) / len(lam))
    return (lam[-1] + s2) / M * (_f(lam[0], s2) - _f(lam[1], s2)) ** 2 * decay


@mp.workdps(DPS)
def max_gap_2d(lambda1, lambda2, sigma2):
    """``((1/2) log2(o_1/o_2), (1/2) o_2 (f(lam_1) - f(lam_2))^2)`` with ``o = lam + s2``."""
    s2, lam1, lam2 = mpf(sigma2), mpf(lambda1), mpf(lambda2)
    o1, o2 = lam1 + s2, lam2 + s2
    return mp.log(o1 / o2, 2) / 2, o2 * (_f(lam1, s2) - _f(lam2, s2)) ** 2 / 2
