import math
import sys

import numpy as np
import pytest

import mp_reference
from support import R2_COND, R2_OBS

from cedrf import drf
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel, Spectrum, _log2_ratio
from cedrf.waterfill import (
    _exp2,
    _levels,
    _split,
    active_count,
    rate_allocation,
    rate_thresholds,
    water_level,
)

EPS = sys.float_info.epsilon
TINY = 2.0 ** -1074


def spec(*values):
    return Spectrum(tuple(float(v) for v in values))


def test_thresholds_hand_cases():
    assert rate_thresholds(spec(4.0, 1.0)) == [0.0, 1.0, math.inf]
    assert rate_thresholds(spec(21.0, 1.5))[1] == pytest.approx(R2_OBS, abs=1e-12)
    assert rate_thresholds(spec(20.0 / 21.0, 1.0 / 3.0))[1] == pytest.approx(
        R2_COND, abs=1e-12
    )


def test_thresholds_non_decreasing_and_empty():
    thr = rate_thresholds(spec(8.0, 4.0, 4.0, 0.5))
    assert thr[0] == 0.0 and thr[-1] == math.inf
    assert all(b >= a for a, b in zip(thr, thr[1:]))
    assert rate_thresholds(Spectrum((0.0,))) == [0.0]  # no component ever becomes active


def test_active_count_half_open_intervals():
    s = spec(4.0, 1.0)
    assert active_count(s, 0.5) == 1
    assert active_count(s, 1.0) == 1  # threshold hit belongs to the lower interval
    assert active_count(s, 1.0 + 1e-9) == 2
    assert active_count(spec(21.0, 1.5), 2.0) == 2
    assert active_count(s, 0.0) == 1
    with pytest.raises(ValueError):
        active_count(s, -0.1)


def test_equal_eigenvalues_activate_together():
    s = spec(1.0, 1.0)
    assert active_count(s, 1e-6) == 2
    tied = spec(3.0, 3.0, 0.5)
    assert active_count(tied, 1e-6) == 2


def test_water_level_hand_cases():
    assert water_level(spec(4.0), 1.0) == (1, 1.0)
    k, theta = water_level(spec(21.0, 1.5), 0.0)
    assert (k, theta) == (1, 21.0)
    # continuity through the second activation: both branch formulas meet at 1.5
    k, theta = water_level(spec(21.0, 1.5), R2_OBS)
    assert k == 1 and theta == pytest.approx(1.5, abs=1e-12)
    k, theta = water_level(spec(21.0, 1.5), R2_OBS + 1e-9)
    assert k == 2 and theta == pytest.approx(1.5, abs=1e-8)


def test_water_level_within_bracket():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vals = tuple(sorted(rng.uniform(0.05, 30.0, size=4), reverse=True))
        s = Spectrum(vals)
        r = float(rng.uniform(0.0, 10.0))
        k, theta = water_level(s, r)
        hi = vals[k - 1]
        lo = vals[k] if k < 4 else 0.0
        assert lo - 1e-9 <= theta <= hi + 1e-9


def test_rate_allocation_hand_cases():
    got = rate_allocation(spec(4.0, 1.0), 1.0)
    assert got.k == 1 and got.theta == 1.0
    assert got.rates == (1.0, 0.0)
    assert got.distortions == (1.0, 1.0)

    got = rate_allocation(spec(4.0, 1.0), 2.0)
    assert got.k == 2 and got.theta == pytest.approx(0.5, abs=1e-15)
    assert got.rates == pytest.approx((1.5, 0.5), abs=1e-12)
    assert got.distortions == pytest.approx((0.5, 0.5), abs=1e-15)

    got = rate_allocation(spec(9.0, 2.0, 0.3), 0.0)
    assert got.rates == (0.0, 0.0, 0.0)
    assert got.distortions == (9.0, 2.0, 0.3)


def test_zero_eigenvalues_get_nothing():
    s = Spectrum((4.0, 0.0))
    assert rate_thresholds(s) == [0.0, math.inf]
    got = rate_allocation(s, 3.0)
    assert got.rates[1] == 0.0
    assert got.distortions[1] == 0.0
    assert got.rates[0] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_rates_sum_to_total(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(1, 6))
    vals = tuple(sorted(rng.uniform(0.01, 50.0, size=n), reverse=True))
    s = Spectrum(vals)
    for r in rng.uniform(0.0, 12.0, size=8):
        got = rate_allocation(s, float(r))
        assert math.fsum(got.rates) == pytest.approx(float(r), abs=1e-9)
        assert got.distortions == tuple(min(v, got.theta) for v in vals)


def test_rate_allocation_is_the_python_float_formula():
    # rank 0, ties, a zero value, a wide range and (1e300, 1e-300), whose value ratio overflows
    # a double; rates on both sides of every threshold, each finite, summing to R in rounding
    spectra = [spec(0.0, 0.0), spec(3.0, 3.0, 1.0), spec(9.0, 2.0, 0.0), spec(1e150, 1.0, 1e-150),
               spec(1e300, 1e-300)]
    for s in spectra:
        grid = [0.0, 0.3, 40.0, 1e4]
        for t in s.thresholds[:-1]:
            grid += [max(0.0, math.nextafter(t, -math.inf)), math.nextafter(t, math.inf)]
        ks, thetas, _ = _levels(s, np.array(grid))
        for x, k, theta in zip(grid, ks.tolist(), thetas.tolist()):
            got = rate_allocation(s, x)
            assert (got.k, got.theta) == (k, theta), (s, x)
            excess = (x - s.thresholds[k - 1]) / k if k else 0.0
            py = [0.5 * _log2_ratio(v, s.values[k - 1]) + excess for v in s.values[:k]]
            assert got.rates == tuple(py + [0.0] * (len(s.values) - k)), (s, x)
            assert got.distortions == tuple(min(v, theta) for v in s.values), (s, x)
            assert all(math.isfinite(r) for r in got.rates), (s, x)
            if k:  # one ulp of R per active rate, or one subnormal step
                assert abs(math.fsum(got.rates) - x) <= k * EPS * x + TINY, (s, x)


def test_monotonicity_in_rate():
    rng = np.random.default_rng(11)
    vals = tuple(sorted(rng.uniform(0.1, 20.0, size=5), reverse=True))
    s = Spectrum(vals)
    grid = np.linspace(0.0, 10.0, 200)
    ks, thetas = zip(*(water_level(s, float(r)) for r in grid))
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert all(b < a for a, b in zip(thetas, thetas[1:]))


def test_positive_rates_exactly_for_active_components():
    rng = np.random.default_rng(12)
    vals = tuple(sorted(rng.uniform(0.1, 20.0, size=5), reverse=True))
    s = Spectrum(vals)
    thr = rate_thresholds(s)
    for k in range(1, 6):
        lo = thr[k - 1]
        hi = min(thr[k], lo + 4.0)
        r = 0.5 * (lo + hi)  # strictly inside the k-th interval
        got = rate_allocation(s, r)
        assert got.k == k
        assert all(x > 0 for x in got.rates[:k])
        assert all(x == 0.0 for x in got.rates[k:])


def test_theta_continuous_at_thresholds():
    rng = np.random.default_rng(13)
    vals = tuple(sorted(rng.uniform(0.1, 20.0, size=5), reverse=True))
    s = Spectrum(vals)
    thr = rate_thresholds(s)
    for k in range(2, 6):
        rk = thr[k - 1]
        # the two branch formulas agree exactly at the threshold rate
        below = math.prod(vals[: k - 1]) ** (1.0 / (k - 1)) * 2.0 ** (-2.0 * rk / (k - 1))
        above = math.prod(vals[:k]) ** (1.0 / k) * 2.0 ** (-2.0 * rk / k)
        assert abs(below - above) < 1e-9
        # and the implementation tracks them on either side of the boundary
        _, t_lo = water_level(s, max(0.0, rk - 1e-7))
        _, t_hi = water_level(s, rk + 1e-7)
        assert abs(t_lo - t_hi) < 1e-5


def _theta_by_bisection(vals, target_rate):
    """Independent oracle: solve sum_l (1/2) log2^+(v_l / theta) = R for theta."""

    def total_rate(theta):
        return math.fsum(0.5 * math.log2(v / theta) for v in vals if v > theta)

    lo, hi = min(vals) * 1e-12, max(vals)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if total_rate(mid) > target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@pytest.mark.parametrize("seed", range(8))
def test_water_level_matches_bisection_oracle(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(1, 6))
    vals = tuple(sorted(rng.uniform(0.05, 40.0, size=n), reverse=True))
    s = Spectrum(vals)
    for r in [0.1, 0.5, 1.0, 2.0, 3.7, 6.0, 9.5]:
        _, theta = water_level(s, r)
        assert theta == pytest.approx(_theta_by_bisection(vals, r), abs=1e-9)


def test_theta_invariant_within_tied_block():
    # [8, 2, 2, 0.5] ties the second and third thresholds at R = 1; at that
    # rate the water level is the same whichever count inside the tied block
    # is used, so resolving ties to the largest k is value-neutral
    vals = (8.0, 2.0, 2.0, 0.5)
    s = Spectrum(vals)
    thr = rate_thresholds(s)
    assert thr[1] == thr[2] == 1.0
    for k in (1, 2, 3):
        theta_k = math.prod(vals[:k]) ** (1.0 / k) * 2.0 ** (-2.0 / k)
        assert theta_k == pytest.approx(2.0, abs=1e-12)
    assert water_level(s, 1.0) == (1, pytest.approx(2.0, abs=1e-12))
    k, theta = water_level(s, 1.0 + 1e-9)
    assert k == 3  # the tied pair activates together, k = 2 is skipped
    assert theta == pytest.approx(2.0, abs=1e-8)


def test_water_level_long_spectrum_uses_log_space():
    # 30 components, all active: the water level comes from the threshold
    # table, not from an eigenvalue product; the bisection oracle and the
    # rate-sum identity must still hold
    rng = np.random.default_rng(77)
    vals = tuple(sorted(rng.uniform(0.5, 30.0, size=30), reverse=True))
    s = Spectrum(vals)
    thr = rate_thresholds(s)
    big_r = thr[-2] + 5.0  # all components active: k = 30
    k, theta = water_level(s, big_r)
    assert k == 30
    assert theta == pytest.approx(_theta_by_bisection(vals, big_r), abs=1e-9)
    got = rate_allocation(s, big_r)
    assert math.fsum(got.rates) == pytest.approx(big_r, abs=1e-9)


def test_water_level_stays_normal_where_its_power_underflows():
    # {"A": diag(1e153, 1), "sigma2": 1e-300}: the rank rule drops the 1, so the observation
    # spectrum is [1e306, 1e-300], and R_2 is about 1006.5.  With k = 1 the power 2^{-2R} is
    # below 2^-1074 there and the product lam_1 2^{-2R} was 0, but the level, about 1e-300,
    # is a normal number.  From frexp parts it rounds three times (pow, a product, ldexp
    # exact): within 4 eps of the 60-digit reference (measured 0 at both rates)
    obs = ObservationModel(Matrix(np.diag([1e153, 1.0])), 1e-300).observation
    assert obs.values.tolist() == [1e306, 1e-300]
    for R in (float(obs.thresholds[1]), 1006.0):
        k, theta = water_level(obs, R)
        want = float(mp_reference.water_level(obs.values.tolist(), R)[1])
        assert k == 1 and theta == pytest.approx(want, rel=4 * EPS, abs=0.0), R
    # far past the normal range, and at R = inf, the level is exactly 0; an empty grid is valid
    k, theta, power = _levels(obs, np.array([5000.0, 1e308, math.inf]))
    assert k.tolist() == [2, 2, 2] and theta.tolist() == power.tolist() == [0.0, 0.0, 0.0]
    assert all(a.size == 0 for a in _levels(obs, np.array([])))


def test_exp2_is_c_pow_bit_for_bit():
    # Python's float power is C pow; numpy's exp2 and power differ from it in the
    # last bit on some SIMD hosts.  Should float_power gain such a loop, this fails
    # here rather than moving CSV bits silently.
    rng = np.random.default_rng(29)
    special = [-math.inf, -0.0, 0.0, 1.0, -1022.0, -1022.5, -1050.25, -1073.9, -1074.0,
               -1074.5, -1075.0, -1076.0, -1100.0, 1022.9, 1023.0, 1023.5]
    x = np.concatenate([special, rng.uniform(-1100.0, 1023.0, 100_000),
                        rng.uniform(-1075.0, -1022.0, 10_000)])  # subnormal results
    want = np.array([2.0 ** v for v in x.tolist()])
    assert np.array_equal(_exp2(x).view(np.int64), want.view(np.int64))
    for n in (1, 2, 3, 4, 7, 8, 9, 16, 17, 33, 1001):
        for offset in (0, 1, 3, 5):
            for stride in (1, 2, 3, -1, -4):
                got = _exp2(x[offset:][::stride][:n])
                assert np.array_equal(got.view(np.int64),
                                      want[offset:][::stride][:n].view(np.int64)), (n, offset, stride)
    # an unaligned buffer and a 2-D array take numpy's other inner loops
    raw = np.empty(8 * 4096 + 1, dtype=np.uint8)
    unaligned = raw[1:].view(np.float64)
    unaligned[:] = x[:4096]
    assert np.array_equal(_exp2(unaligned).view(np.int64), want[:4096].view(np.int64))
    square = x[:4096].reshape(64, 64)
    assert np.array_equal(_exp2(square.T).view(np.int64), want[:4096].reshape(64, 64).T.view(np.int64))


def _old_split_ldexp(m, e, x):
    """``m 2^e 2^x`` as ``_levels`` and ``_gap_bounds_grid`` each spelled it: ``modf`` of ``x``,
    ``pow`` of its fraction and one ``ldexp``."""
    f, n = np.modf(x)
    return np.ldexp(m * _exp2(f), e + n.astype(np.int64))


def test_split_reproduces_both_sites_ldexp_bit_for_bit():
    # x across (-4000, 0]: the band (-1074, -1022) where 2^x is subnormal, -1022 itself, the
    # -4000 clamp, and the mantissa-exponent pairs of levels and bounds from deep subnormal to
    # overflow
    rng = np.random.default_rng(43)
    special = [-4000.0, -3999.5, -2000.0, -1075.0, -1074.5, -1074.0, -1073.9, -1050.25,
               -1022.5, -1022.0, -1021.9, -1.0, -0.5, -1e-300, -0.0, 0.0]
    x = np.concatenate([special, rng.uniform(-4000.0, 0.0, 20_000),
                        rng.uniform(-1074.0, -1022.0, 20_000)])
    m = rng.uniform(0.5, 1.0, x.size)
    for e in (np.frexp(rng.uniform(0.5, 1.0, x.size) * 2.0 ** rng.integers(-1074, 1024, x.size))[1],
              -1021, 0, 1022, 4000):
        head, n = _split(x)
        with np.errstate(over="ignore"):  # inf past DBL_MAX, as an infinite upper bound is
            got, want = np.ldexp(m * head, e + n), _old_split_ldexp(m, e, x)
        assert n.dtype == np.int64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # _levels on a spectrum whose power 2^x reaches the clamp at both counts
    s = spec(1e300, 1e-300)
    R = np.concatenate([np.linspace(0.0, 5000.0, 50_001), s.thresholds[1:2]])
    k, theta, _ = _levels(s, R)
    i = k - 1
    x = 2.0 * (s.thresholds[i] - R) / k
    low = (x > -4000.0) & (x < -1022.0)
    assert low.sum() > 10_000
    m, e = np.frexp(s.values[i[low]])
    assert np.array_equal(theta[low].view(np.int64), _old_split_ldexp(m, e, x[low]).view(np.int64))
    # both gap bounds at x = -2R/L, clamped at -4000
    model = ObservationModel(Matrix([[3.0, 0.5], [0.2, 1.0], [0.0, 0.7]]), 1e-3)
    R = np.linspace(0.0, 7000.0, 70_001)
    k_i, k_c = (_levels(sp, R)[0] for sp in (model.conditional, model.observation))
    upper, lower = drf._gap_bounds_grid(model, R, k_i, k_c)
    x = np.maximum(-2.0 * R / model.L, -4000.0)
    (mo, eo), (ms, es) = math.frexp(model.observation.values[0]), math.frexp(model.sigma2)
    want = _old_split_ldexp(model.L / model.M * mo / ms, eo - es - 2, x)
    assert np.array_equal(upper.view(np.int64), want.view(np.int64))
    m, e = drf._lower_prefactor(model.gram.values.tolist(), model.observation.values.tolist(),
                                model.M)
    want = np.where((k_c >= 2) & (k_i >= k_c), _old_split_ldexp(m, e, x), 0.0)
    assert np.array_equal(lower.view(np.int64), want.view(np.int64))
    assert (lower > 0.0).any() and (lower == 0.0).any()
