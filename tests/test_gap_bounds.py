"""The gap bounds and ``max_gap_2d`` against 60-digit references, overflow and subnormal ranges included."""

import math
import sys
import warnings

import numpy as np
import pytest

import mp_reference

from cedrf import drf
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel, Spectrum

EPS = sys.float_info.epsilon
#: the smallest subnormal: a result below the normal range is also allowed this absolute error
TINY = 2.0 ** -1074


def _bound_family(rng, n):
    """Models with ``M, L`` in 1..5, singular values log-uniform in 1e±4 and random rotations.

    ``sigma2`` is log-uniform in [1e-6, 1e3]; every fifth model is scaled to
    ``(cA, c² sigma2)``, ``c = 10^U(-150, 150)``, and every seventh takes a
    ``sigma2`` in [1e-323, 1e-300], so prefactors overflow and results
    reach the subnormal range.
    """
    for i in range(n):
        l_dim, m = (int(v) for v in rng.integers(1, 6, size=2))
        r = min(l_dim, m)
        u = np.linalg.qr(rng.standard_normal((l_dim, l_dim)))[0]
        v = np.linalg.qr(rng.standard_normal((m, m)))[0]
        a = (u[:, :r] * 10.0 ** rng.uniform(-4.0, 4.0, size=r)) @ v[:, :r].T
        sigma2 = 10.0 ** rng.uniform(-6.0, 3.0)
        if i % 5 == 0:
            c = 10.0 ** rng.uniform(-150.0, 150.0)
            a, sigma2 = c * a, c * c * sigma2
        if i % 7 == 0:
            sigma2 = 10.0 ** rng.uniform(-323.0, -300.0)
        yield ObservationModel(Matrix(a), sigma2)


def _close(got, want, rtol):
    """``got`` within ``rtol`` of the 60-digit ``want``; inf exactly where ``want`` overflows.

    Below the normal range ``got`` may also be off by one subnormal step.
    """
    if math.isinf(float(want)):
        return got == math.inf
    return abs(got - want) <= rtol * want + TINY


def _cancellation(lam, obs):
    """``(|f_1| + |f_2|) / |f_1 - f_2|``, ``f = sqrt(lam)/obs``, ``obs = lam + s2``: the condition
    number of the lower bound's ``f_1 - f_2``."""
    f1, f2 = math.sqrt(lam[0]) / obs[0], math.sqrt(lam[1]) / obs[1]
    return math.inf if f1 == f2 else (f1 + f2) / abs(f1 - f2)


def test_gap_bounds_match_the_60_digit_reference():
    # upper bound: x = -2R/L rounds once, which 2^x turns into |x| ln2 u relative
    # (u = EPS/2), and lam_1 + s2, the prefactor, 2^frac(x) and their product add
    # at most 6u.  Lower bound: f = sqrt(lam)/(lam + s2) rounds by 3u, so (f_1 - f_2)^2
    # by 6u times the cancellation plus 3u; the prefactor and 2^x add 5u and
    # |x| ln2 u, |x| <= 40 where L is not a power of two: within 24 EPS times the cancellation
    rng = np.random.default_rng(36)
    for i, model in enumerate(_bound_family(rng, 300)):
        rates = [0.0, *np.sort(rng.uniform(0.0, 60.0, 10)).tolist()]
        gram, s2, M, L = model.gram.values.tolist(), model.sigma2, model.M, model.L
        o = model.observation.values.tolist()
        lower_tol = 24.0 * EPS * _cancellation(gram, o) if L > 1 else 0.0
        for pt in drf.sweep(model, rates):
            want = mp_reference.gap_upper_bound(gram, s2, M, pt.R)
            assert _close(pt.gap_ub, want, (4.0 + pt.R / L) * EPS), (i, pt.R, pt.gap_ub, want)
            want = mp_reference.gap_lower_bound(gram, s2, M, pt.R)
            assert _close(pt.gap_lb, want, lower_tol), (i, pt.R, pt.gap_lb, want)


def test_gap_lower_bound_keeps_its_bits_past_a_subnormal_prefactor():
    # lam_4 + s2 = s2 = 1e-320 keeps 11 bits; divided by M = 3 first, it lost
    # 5e-4 of the bound, which is about 1e-11 here
    a = np.zeros((4, 3))
    a[0, 0], a[1, 1], a[2, 2] = 1e-155, 5e-156, 3e-156
    with np.errstate(over="ignore"):  # spectra's weight 1/1e-320 overflows, which no bound reads
        model = ObservationModel(Matrix(a), 1e-320)
    gram = model.gram.values.tolist()
    tol = 24.0 * EPS * _cancellation(gram, model.observation.values.tolist())
    for pt in drf.sweep(model, [2.0, 5.0, 20.0]):
        want = mp_reference.gap_lower_bound(gram, model.sigma2, model.M, pt.R)
        assert pt.gap_lb > 0.0 and _close(pt.gap_lb, want, tol), (pt.R, pt.gap_lb, want)


def test_max_gap_2d_matches_the_60_digit_reference():
    # the value is the lower bound's prefactor at M = L = 2: 6u times the cancellation
    # plus 5u (u = EPS/2); the rate is the observation threshold (1/2) log2(o_1 / o_2)
    # by spectral._log2_ratio.  Rounding o_1 and o_2 costs u / ln2 each in the log (a
    # subnormal o is exact: a sum in the subnormal range does not round); up to
    # o_1 = 2 o_2 the log1p form errs by about 5u relative, at most 5u r with r <= 1/2,
    # and above it the mantissa quotient costs u / ln2, its log2 u and adding the
    # exponents half an ulp of the sum 2r, so |r - want| <= EPS (2 + r / 2), at any scale
    rng = np.random.default_rng(37)
    for i in range(300):  # lam1 >= max(lam2, s2^2 / lam2): the pair meets the condition
        s2, t2 = (float(v) for v in 10.0 ** rng.uniform([-3.0, -3.0], [3.0, 1.0]))
        t1 = max(t2, 1.0 / t2) * 10.0 ** rng.uniform(0.0, 3.0)
        c2 = 10.0 ** rng.uniform(-290.0, 290.0) if i % 3 == 0 else 1.0
        pair = (t1 * s2 * c2, t2 * s2 * c2, s2 * c2)
        if i % 7 == 0:  # subnormal sigma2, lam1 of any size: (f_1 - f_2)^2 may overflow
            s2 = 10.0 ** rng.uniform(-323.0, -308.0)
            pair = (10.0 ** rng.uniform(-3.0, 3.0), max(t2, 1.0) * s2, s2)
        with np.errstate(over="ignore"):  # spectra's second weight may overflow (next test)
            r_star, g_star = drf.max_gap_2d(*pair)
        want_r, want_g = mp_reference.max_gap_2d(*pair)
        obs = (pair[0] + pair[2], pair[1] + pair[2])
        tol = 3.0 * EPS * (_cancellation(pair, obs) + 1.0)
        assert _close(g_star, want_g, tol), (i, pair, g_star, want_g)
        assert abs(r_star - want_r) <= EPS * (2.0 + r_star / 2.0), (i, pair, r_star, want_r)


def test_max_gap_2d_is_finite_at_a_subnormal_pair():
    # f_2 = sqrt(1e-310) / 2e-310 = 5e154: (f_1 - f_2)^2 overflows a double, the
    # maximum (1/2) o_2 (f_1 - f_2)^2 is 0.25 less 1e-155.  The second weight
    # 0.5 / 2e-310 overflows to inf in Python floats, which warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_star, g_star = drf.max_gap_2d(1.0, 1e-310, 1e-310)
    assert r_star == Spectrum((1.0 + 1e-310, 2e-310)).thresholds[1]
    assert math.isfinite(r_star) and r_star == pytest.approx(514.3988547075412, rel=4.0 * EPS)
    assert abs(g_star - 0.25) <= 4.0 * math.ulp(0.25)
