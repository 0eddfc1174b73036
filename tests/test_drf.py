import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerprint
from support import (
    CE_AT_1,
    GAP_AT_1,
    GAP_AT_19037,
    GAP_AT_2,
    IDRF_AT_1,
    LB_AT_2,
    MAX_GAP,
    R2_COND,
    R2_OBS,
    UB_AT_2,
    example_model,
    model_from_eigs,
    random_model,
    rank_deficient_model,
)

from cedrf import drf, waterfill
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel, Spectrum, spectra
from cedrf.drf import (
    ConditionViolated,
    InvalidGrid,
    NonPositiveInput,
    am_gm_pair,
    ce_drf,
    equality_region,
    gap,
    gap_2d,
    gap_lower_bound,
    gap_upper_bound,
    idrf,
    max_gap_2d,
    sweep,
)


def test_idrf_reference_values():
    m = example_model()
    assert idrf(m, 1.0) == pytest.approx(IDRF_AT_1, abs=1e-12)
    assert idrf(m, 0.0) == 1.0
    scalar = model_from_eigs([1.0], 1.0)
    assert idrf(scalar, 1.0) == pytest.approx(0.625, abs=1e-12)


def test_ce_drf_reference_values():
    m = example_model()
    assert ce_drf(m, 1.0) == pytest.approx(CE_AT_1, abs=1e-12)
    assert ce_drf(m, 0.0) == 1.0
    scalar = model_from_eigs([1.0], 1.0)
    assert ce_drf(scalar, 1.0) == pytest.approx(0.625, abs=1e-12)
    assert ce_drf(scalar, 1.0) == pytest.approx(idrf(scalar, 1.0), abs=1e-12)


def test_equality_region_examples():
    m = example_model()
    region = equality_region(m)
    assert region.r0 == 1
    assert region.R_limit == pytest.approx(R2_COND, abs=1e-9)
    assert not region.unconditional

    flat = model_from_eigs([1.0, 1.0], 1.0)
    region = equality_region(flat)
    assert region.r0 == 2 and region.unconditional
    assert region.R_limit == math.inf

    # the two roots of lam/(lam+s2)^2 = lam1/(lam1+s2)^2 at lam1=2, s2=1
    double_root = model_from_eigs([2.0, 0.5], 1.0)
    region = equality_region(double_root)
    assert region.r0 == 2 and region.unconditional


def test_equality_region_prefix_only():
    # lam = [2, 1, 0.5] at s2 = 1: the third eigenvalue matches the first's
    # figure of merit but the second does not, so the region stops at 1
    m = model_from_eigs([2.0, 1.0, 0.5], 1.0)
    assert equality_region(m).r0 == 1


@pytest.mark.parametrize("seed", range(15))
def test_equality_region_property(seed):
    rng = np.random.default_rng(800 + seed)
    model = random_model(rng)
    region = equality_region(model)
    cap = min(region.R_limit, 12.0)
    rates = list(rng.uniform(0.0, cap, size=20)) + [cap]
    for r in rates:
        assert abs(ce_drf(model, float(r)) - idrf(model, float(r))) < 1e-10


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 3)])
def test_equality_region_of_a_zero_matrix_is_every_rate(shape):
    # both curves are 1 at every rate, whatever the shape
    model = ObservationModel(Matrix(np.zeros(shape)), 0.01)
    region = equality_region(model)
    assert region.r0 == min(shape)
    assert region.R_limit == math.inf
    assert region.unconditional
    for r in (0.0, 1.0, 5.0):
        assert idrf(model, r) == ce_drf(model, r) == 1.0


@pytest.mark.parametrize("row", [[1.0, 0.0], [1.0, 2.0]])
def test_equality_region_of_one_observation_is_every_rate(row):
    # L = 1 < M: the one observed component is the whole leading block, so
    # the curves coincide at every rate although the model is not square
    model = ObservationModel(Matrix(np.array([row])), 0.5)
    region = equality_region(model)
    assert (region.r0, region.R_limit, region.unconditional) == (1, math.inf, True)
    for r in (0.0, 1.0, 5.0, 40.0):
        assert idrf(model, r) == ce_drf(model, r)


def test_unconditional_equality_all_rates():
    model = model_from_eigs([2.0, 0.5], 1.0)
    for r in (0.0, 0.25, 1.0, 3.0, 7.0, 12.0):
        assert abs(ce_drf(model, r) - idrf(model, r)) < 1e-10


def test_gap_reference_values():
    m = example_model()
    assert gap(m, 1.0) == pytest.approx(GAP_AT_1, abs=1e-9)
    assert gap(m, 0.5) == 0.0
    assert gap(m, 1.9037) == pytest.approx(GAP_AT_19037, abs=1e-9)
    assert gap(m, 1.9037) == pytest.approx(0.0501, abs=5e-4)
    assert gap(m, 2.0) == pytest.approx(GAP_AT_2, abs=1e-9)


def test_gap_upper_bound_values():
    m = example_model()
    assert gap_upper_bound(m, 2.0) == pytest.approx(UB_AT_2, abs=1e-12)
    assert gap_upper_bound(m, 0.0) == pytest.approx(5.25, abs=1e-12)
    # large-noise limit approaches L/(4M) 2^{-2R/L} from above
    noisy = model_from_eigs([20.0, 0.5], 1e7)
    limit = (2 / 2) / 4.0 * 2.0 ** (-2.0 * 3.0 / 2)
    got = gap_upper_bound(noisy, 3.0)
    assert got >= limit
    assert got == pytest.approx(limit, rel=1e-5)


def test_gap_lower_bound_values():
    m = example_model()
    assert gap_lower_bound(m, 2.0) == pytest.approx(LB_AT_2, abs=1e-9)
    assert LB_AT_2 <= GAP_AT_2 <= UB_AT_2
    assert gap_lower_bound(m, 1.0) == 0.0  # below the second activation
    flat = model_from_eigs([3.0, 3.0], 1.0)
    for r in (0.5, 2.0, 8.0):
        assert gap_lower_bound(flat, r) == pytest.approx(0.0, abs=1e-15)
    scalar = model_from_eigs([1.0], 1.0)
    assert gap_lower_bound(scalar, 5.0) == 0.0


def test_gap_lower_bound_applies_from_one_ulp_past_the_threshold():
    # at the second observation threshold one CE component is active, where
    # the bound is not valid; one ulp above it two are, and the bound holds
    m = example_model()
    thr = float(m.observation.thresholds[1])
    at, past = sweep(m, [thr, math.nextafter(thr, math.inf)])
    assert at.k_ce == 1 and at.gap_lb == 0.0
    assert past.k_ce == 2 and 0.0 < past.gap_lb <= past.gap


def test_gap_2d_reference_values():
    assert gap_2d(20.0, 0.5, 1.0, 1.0) == pytest.approx(GAP_AT_1, abs=1e-12)
    assert gap_2d(20.0, 0.5, 1.0, R2_COND) == 0.0
    assert gap_2d(20.0, 0.5, 1.0, 1.9037) == pytest.approx(GAP_AT_19037, abs=1e-9)
    assert gap_2d(20.0, 0.5, 1.0, 0.3) == 0.0
    assert gap_2d(0.0, 0.0, 1.0, 2.0) == 0.0
    # lambda2 = 0: the second weight is 0, and so is rho = w_2/w_1
    with pytest.raises(ConditionViolated, match=r"got rho = w_2/w_1 = 0\.0$"):
        gap_2d(1.0, 0.0, 1.0, 1.0)


def test_gap_2d_condition_checked():
    # lam/(lam+s2)^2 is larger at 1.2 than at 0.2 when s2 = 1
    with pytest.raises(ConditionViolated):
        gap_2d(1.2, 0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gap_2d(0.5, 2.0, 1.0, 1.0)  # lambda1 < lambda2
    with pytest.raises(ConditionViolated):
        max_gap_2d(1.2, 0.2, 1.0)
    # lam1/(lam1+s2)^2 = 1e-200 > 1e-300: the condition fails, nothing overflows
    with pytest.raises(ConditionViolated):
        max_gap_2d(1e200, 1e-300, 1.0)
    # (1.25, 0.25, 1) and its exact twin at sigma2 = 2^-1064, where each weight cond/obs
    # overflows: both refused, with the same finite rho in the message
    messages = []
    for pair in ((1.25, 0.25, 1.0), (5.0 * 2.0 ** -1066, 2.0 ** -1066, 2.0 ** -1064)):
        with pytest.raises(ConditionViolated) as refused:
            max_gap_2d(*pair)
        messages.append(str(refused.value))
    assert messages[0] == messages[1] and "inf" not in messages[0]
    with pytest.raises(ValueError, match="sigma2"):
        max_gap_2d(1.0, 0.5, 0.0)
    # every input is finite, but the observation spectrum is not
    with pytest.raises(ValueError, match=r"lambda1 \+ sigma2 overflows"):
        max_gap_2d(1.7e308, 1.0, 1e308)
    with pytest.raises(ValueError, match=r"lambda1 \+ sigma2 overflows"):
        gap_2d(1.7e308, 1.0, 1e308, 1.0)


@pytest.mark.parametrize("seed", range(12))
def test_gap_2d_agrees_with_general_gap(seed):
    # condition lam1/(lam1+s2)^2 <= lam2/(lam2+s2)^2 for lam1 >= lam2 is
    # equivalent to lam1 lam2 >= s2^2
    rng = np.random.default_rng(900 + seed)
    s2 = float(rng.choice([0.1, 1.0, 10.0]))
    lam1 = s2 * float(rng.uniform(1.5, 25.0))
    lam2 = float(rng.uniform(s2 * s2 / lam1, lam1))
    model = model_from_eigs([lam1, lam2], s2)
    r2_cond = 0.5 * math.log2(
        (lam1 / (lam1 + s2)) / (lam2 / (lam2 + s2))
    )
    r2_obs = 0.5 * math.log2((lam1 + s2) / (lam2 + s2))
    rates = [
        0.5 * r2_cond,
        r2_cond,
        0.5 * (r2_cond + r2_obs),
        r2_obs,
        r2_obs + 0.7,
        r2_obs + 3.0,
    ]
    for r in rates:
        assert gap_2d(lam1, lam2, s2, r) == pytest.approx(gap(model, r), abs=1e-10)


def test_gap_2d_is_gap_on_exact_grams():
    # A = diag(2^a, 2^b) at sigma2 = 2^e has gram.values exactly (4^a, 4^b), so gap_2d and
    # gap read the same spectra and must give the same bits at every rate: below the
    # estimate spectrum's second threshold (1, 1), up to the observation's (2, 1) and past it
    counts, unequal = set(), []
    for a in range(-2, 5):
        for b in range(-4, a + 1):
            for e in range(a + b - 3, a + b + 1):  # lam1 lam2 >= s2^2, so w_1 <= w_2
                lam1, lam2, s2 = 4.0 ** a, 4.0 ** b, 2.0 ** e
                model = ObservationModel(Matrix(np.diag([2.0 ** a, 2.0 ** b])), s2)
                assert model.gram.values.tolist() == [lam1, lam2]
                r2_obs = float(model.observation.thresholds[1])
                for r in np.linspace(0.0, r2_obs + 2.0, 24).tolist():
                    pt = drf.sweep(model, [r])[0]
                    counts.add((pt.k_idrf, pt.k_ce))
                    if gap_2d(lam1, lam2, s2, r) != pt.gap:
                        unequal.append((a, b, e, r))
    assert counts == {(1, 1), (2, 1), (2, 2)}
    assert unequal == []


# (lam1, lam2, s2) meeting the condition, with rates in all three regions:
# below r2_cond, between r2_cond and r2_obs, and past r2_obs
_TWO_COMPONENT_CASES = [
    ((20.0, 0.5, 1.0), (0.3, 1.0, 1.9, 3.0, 8.0)),
    ((9.0, 1.0, 1.0), (0.2, 0.6, 0.79, 1.5, 5.0)),
    ((40.0, 0.05, 0.1), (0.5, 1.3, 2.6, 4.0, 6.0)),
]


@pytest.mark.parametrize("c2", [1e-300, 1e-170, 1e155, 1e300])
def test_two_component_forms_are_scale_invariant(c2):
    # the forms depend on lam/s2 only; at these scales (lam+s2)^2 leaves
    # double precision, so the weights must be formed without squaring
    for (lam1, lam2, s2), rates in _TWO_COMPONENT_CASES:
        scaled = (c2 * lam1, c2 * lam2, c2 * s2)
        got, want = max_gap_2d(*scaled), max_gap_2d(lam1, lam2, s2)
        assert _rel_close(got[0], want[0]) and _rel_close(got[1], want[1]), lam1
        model = model_from_eigs(scaled[:2], scaled[2])
        for r in rates:
            got = gap_2d(*scaled, r)
            assert _rel_close(got, gap_2d(lam1, lam2, s2, r)), (lam1, r)
            assert got == pytest.approx(gap(model, r), abs=1e-10), (lam1, r)


@pytest.mark.parametrize("seed", range(4))
def test_two_component_forms_accept_one_ulp_ties(seed):
    # lam1 one ulp above lam2: lam/(lam+s2) may round the other way round
    rng = np.random.default_rng(2400 + seed)
    for _ in range(100):
        lam2 = float(10.0 ** rng.uniform(-6.0, 6.0))
        s2 = lam2 * float(10.0 ** rng.uniform(-2.0, 2.0))  # inverts about 4 pairs in 100
        lam1 = math.nextafter(lam2, math.inf)
        r_star, g_star = max_gap_2d(lam1, lam2, s2)
        assert abs(r_star) < 1e-12 and g_star < 1e-12
        model = model_from_eigs([lam1, lam2], s2)
        for r in (0.0, 0.5, 2.0, 9.0):
            assert gap_2d(lam1, lam2, s2, r) == pytest.approx(gap(model, r), abs=1e-10)


def test_two_component_forms_accept_the_ties_of_equality_region():
    # lam/(lam+s2)^2 is 2/9 at both 2 and 0.5 (lam_1 lam_2 = s2^2): the mirror
    # pair diag(sqrt 2, sqrt 0.5) ties, and the forms accept it
    model = ObservationModel(Matrix(np.diag([math.sqrt(2.0), math.sqrt(0.5)])), 1.0)
    lam1, lam2 = model.gram.values.tolist()
    region = equality_region(model)
    assert region.r0 == 2 and region.unconditional
    r_star, g_star = max_gap_2d(lam1, lam2, 1.0)
    assert r_star == pytest.approx(0.5, abs=1e-12) and g_star < 1e-30
    for r in (0.0, 0.3, 0.5, 1.0, 3.0, 9.0):
        assert gap_2d(lam1, lam2, 1.0, r) == pytest.approx(gap(model, r), abs=1e-10), r
    # 1e-11 below 2 the first weight is 3.3e-12 (relative) above the second,
    # against a rounding bound nu_1 + nu_2 of 2.0e-15: not tied, so the region
    # ends and the forms refuse the pair (a fixed 1e-10 tolerance tied it)
    lam1 = 2.0 * (1.0 - 1e-11)
    region = equality_region(model_from_eigs([lam1, 0.5], 1.0))
    assert region.r0 == 1 and not region.unconditional
    assert region.R_limit == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ConditionViolated):
        gap_2d(lam1, 0.5, 1.0, 1.0)
    with pytest.raises(ConditionViolated):
        max_gap_2d(lam1, 0.5, 1.0)
    # mirror pairs (t, s2^2/t) far apart, t/s2 up to 1e12, tie too: their weight ratio,
    # read from frexp parts, is 1 within a few ulps (a difference of two logs of up to
    # 40 octaves is not, and refused about 2 in 100)
    rng = np.random.default_rng(2500)
    for _ in range(1000):
        s2 = float(10.0 ** rng.uniform(-3.0, 3.0))
        t = s2 * float(10.0 ** rng.uniform(0.1, 12.0))
        max_gap_2d(t, s2 * s2 / t, s2)


def test_refused_near_tie_names_both_weights_apart():
    # the order of the weights is read from their quotient rho = w_2/w_1, the tie rule's
    # (drf._weight_ratio); the message prints it to its last digit (repr), so a pair refused
    # by the tie rule shows why: to six digits rho reads 1.000000, in full it is 3.3e-12 below
    lam1 = 2.0 * (1.0 - 1e-11)
    with pytest.raises(ConditionViolated) as refused:
        max_gap_2d(lam1, 0.5, 1.0)
    rho = float(str(refused.value).rsplit(" = ", 1)[1])
    obs, cond, _ = spectra(Spectrum((lam1, 0.5)), 1.0, 2)
    assert rho == drf._weight_ratio(obs.values.tolist(), cond.values.tolist(), 1) < 1.0
    assert f"{rho:.6f}" == "1.000000"
    w1, w2 = (mpmath.mpf(lam) / (mpmath.mpf(lam) + 1) ** 2 for lam in (lam1, 0.5))
    assert rho == pytest.approx(float(w2 / w1), rel=8 * sys.float_info.epsilon, abs=0.0)


def test_two_component_condition_orders_the_weights_past_the_tables_rounding():
    # pairs (t, (1/t)(1 + j eps)) at sigma2 = 1 have w_2 - w_1 about j eps w_1 (the mirror
    # 1/t has t's weight): the condition w_1 <= w_2 is read from the quotient rho = w_2/w_1,
    # so an accepted pair has w_1 above w_2 by at most the tie bound 2.5 eps (1 + rho) plus
    # rho's rounding, 9u (u = eps/2): 9.5 eps; no pair with w_1 <= w_2 is refused, and no
    # mirror pair (j = 0).  The second activation rates, compared instead, accepted pairs
    # up to 20 eps apart (t up to 1e15).  Weights from 50-digit mpmath.
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(112)
    with mpmath.workdps(50):
        for i in range(6000):
            t = float(10.0 ** rng.uniform(0.5, 15.0))
            j = int(rng.integers(-60, 61)) if i < 5000 else 0
            lam2 = (1.0 / t) * (1.0 + j * eps)
            w1, w2 = (mpmath.mpf(lam) / (mpmath.mpf(lam) + 1) ** 2 for lam in (t, lam2))
            excess = float((w1 - w2) / w1)  # relative; > 0 where w_1 is above w_2
            try:
                max_gap_2d(t, lam2, 1.0)
            except ConditionViolated:
                assert j and excess > 0.0, (t, j)
            else:
                assert excess <= 9.5 * eps, (t, j, excess / eps)


def test_exactly_tied_singular_values_form_the_leading_block():
    # 2 to 4 equal singular values, rotated at random, L and M up to 8: the SVD
    # returns them a few ulps apart, inside the rule's noise bound
    rng = np.random.default_rng(4100)
    for _ in range(3):
        for doc, mult in fingerprint.tied_models(rng):
            model = ObservationModel(Matrix(doc["A"]), doc["sigma2"])
            assert equality_region(model).r0 == mult, doc


@pytest.mark.parametrize("offset", [0.0, -1e-11, 1e-11])
def test_mirror_pairs_tie_exactly_when_their_product_is_sigma2_squared(offset):
    # rotated pairs (t, sigma2/t): tied at offset 0, not tied 1e-11 away (the
    # weights then differ by about 2e-11 relative, against a bound below 4e-13),
    # which a fixed 1e-10 tolerance tied
    for doc in fingerprint.mirror_models(np.random.default_rng(4200), offset):
        region = equality_region(ObservationModel(Matrix(doc["A"]), doc["sigma2"]))
        if offset == 0.0:
            assert region.r0 == 2, doc
        else:
            assert region.r0 == 1 and math.isfinite(region.R_limit), doc


def test_equality_region_warns_of_nothing_where_the_weights_overflow():
    # sigma2 subnormal: both weights cond/obs would overflow to inf in Python floats; the
    # tie rule reads their ratio from the spectra's frexp parts, finds them apart, and
    # nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ObservationModel(Matrix(np.diag([1e-155, 5e-156])), 1e-310)
        obs, cond = model.observation.values.tolist(), model.conditional.values.tolist()
        assert [c / o for c, o in zip(cond, obs)] == [math.inf, math.inf]
        assert equality_region(model).r0 == 1


def test_power_of_two_twins_keep_the_equality_region():
    # (2^k A, 4^k sigma2) scales every singular value, delta and weight by an
    # exact power of two, so r0 keeps its value, and R_limit keeps its bits:
    # both threshold tables sum spectral._log2_ratio steps, which such a scale
    # leaves alone
    rng = np.random.default_rng(4300)
    docs = [*(d for d, _ in fingerprint.tied_models(rng)),
            *fingerprint.mirror_models(rng, 0.0), *fingerprint.mirror_models(rng, 1e-11),
            *fingerprint.models(rng)]
    for i, doc in enumerate(docs[::4]):
        base = equality_region(ObservationModel(Matrix(doc["A"]), doc["sigma2"]))
        for k in range(-100, 101, 5):
            twin = ObservationModel(Matrix(np.ldexp(doc["A"], k)), math.ldexp(doc["sigma2"], 2 * k))
            region = equality_region(twin)
            assert (region.r0, region.R_limit.hex(), region.unconditional) == \
                (base.r0, base.R_limit.hex(), base.unconditional), (i, k)
    # twins of diag(1, 1) at sigma2 = 1 whose sigma2 is subnormal, where each weight
    # cond/obs overflows: the exact one at 2^-1060 and a decimal one at 1e-320
    base = equality_region(ObservationModel(Matrix(np.eye(2)), 1.0))
    assert (base.r0, base.R_limit, base.unconditional) == (2, math.inf, True)
    for s, sigma2 in ((2.0 ** -530, 2.0 ** -1060), (1e-160, 1e-320)):
        region = equality_region(ObservationModel(Matrix(np.diag([s, s])), sigma2))
        assert (region.r0, region.R_limit.hex(), region.unconditional) == \
            (base.r0, base.R_limit.hex(), base.unconditional), s


@pytest.mark.parametrize("pair", [(4e12, 1e-3, 1.0), (1e13, 5e-4, 1.0)])
def test_gap_2d_is_continuous_at_its_maximum(pair):
    # lam2 / lam1 is 2.5e-16 or 5e-17; gap_2d takes lam2 as exact,
    # so it stays in every region and the gap does not jump to 0 at the
    # observation threshold
    r_star, g_star = max_gap_2d(*pair)
    for r in (r_star - 1e-9, r_star + 1e-9):
        assert gap_2d(*pair, r) == pytest.approx(g_star, rel=1e-6), r
    assert all(gap_2d(*pair, r) <= g_star for r in np.linspace(0.0, 40.0, 4001))


def test_max_gap_2d_examples():
    r_star, g_star = max_gap_2d(20.0, 0.5, 1.0)
    assert r_star == pytest.approx(R2_OBS, abs=1e-12)
    assert g_star == pytest.approx(MAX_GAP, abs=1e-12)
    assert g_star == pytest.approx(0.0501, abs=5e-4)
    # closed form meets the general pointwise gap at its own maximizer
    assert g_star == pytest.approx(gap(example_model(), r_star), abs=1e-10)

    assert max_gap_2d(3.0, 3.0, 1.0) == (0.0, 0.0)

    r_star, g_star = max_gap_2d(2.0, 0.5, 1.0)
    assert r_star == pytest.approx(0.5, abs=1e-12)
    assert g_star == pytest.approx(0.0, abs=1e-15)


def test_am_gm_pair_examples():
    got = am_gm_pair([4.0, 4.0, 4.0])
    assert got == pytest.approx((4.0, 4.0, 4.0, 4.0), abs=1e-12)
    got = am_gm_pair([1.0, 4.0])
    assert got.am == 2.5
    assert got.gm == pytest.approx(2.0, abs=1e-12)
    assert got.reverse_bound == pytest.approx(3.5, abs=1e-12)
    assert got.lower_bound == pytest.approx(2.5, abs=1e-12)
    got = am_gm_pair([1.0, 1.0, 100.0])
    assert got.am == 34.0
    assert got.gm == pytest.approx(100.0 ** (1.0 / 3.0), abs=1e-10)
    assert got.gm <= got.am <= got.reverse_bound
    # near overflow: the sum of the first and the log-mean of the second round past DBL_MAX
    big = sys.float_info.max
    for vals, am in (([1e308, 1e308], 1e308), ([big] * 3, big), ([big, 1.0], big / 2)):
        got = am_gm_pair(vals)
        assert got.am == am and got.gm <= got.am, vals
        assert all(map(math.isfinite, got)), vals
    # the two large values sum to a tie that only the tiny one breaks: scaled down far
    # enough to lose it, the sum would round to even
    assert am_gm_pair([2.0 ** 1000, 2.0 ** 947, 1e-300]).am == (2.0 ** 1000 + 2.0 ** 948) / 3


def test_am_gm_pair_keeps_its_order_at_extreme_scales():
    # the log-mean of 1e300 carried a relative error near 1e-13, which put gm above am;
    # the reverse bound of values near DBL_MAX overflowed to inf
    big = sys.float_info.max
    for vals in ([1e300, 1e300], [1e200] * 3, [1e-300] * 5, [big, big / 2] * 4, [5e-324, big]):
        got = am_gm_pair(vals)
        assert got.gm <= got.am <= got.reverse_bound <= big, vals
        assert got.lower_bound <= got.am, vals
    assert am_gm_pair([big, big / 2] * 4).reverse_bound == big


_log_uniform = st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(_log_uniform, st.sampled_from([5e-324, sys.float_info.max])),
                min_size=1, max_size=8))
def test_am_gm_order_and_log_mean_accuracy_at_any_scale(vals):
    got = am_gm_pair(vals)
    assert all(map(math.isfinite, got))
    assert got.gm <= got.am <= got.reverse_bound and got.lower_bound <= got.am
    with mpmath.workdps(40):
        exact = mpmath.exp(mpmath.fsum(map(mpmath.log, vals)) / len(vals))
        # four ulps, or one subnormal step where the geometric mean is subnormal
        assert abs(got.gm - exact) <= max(4 * sys.float_info.epsilon * exact, 5e-324)


def test_am_gm_pair_rejects_bad_input():
    for bad in ([], [0.0], [1.0, -2.0], [float("nan")]):
        with pytest.raises(NonPositiveInput):
            am_gm_pair(bad)


@pytest.mark.parametrize("seed", range(10))
def test_am_gm_properties_random(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        vals = rng.lognormal(0.0, 1.5, size=n)
        got = am_gm_pair(vals)
        assert got.gm <= got.am + 1e-12
        assert got.am <= got.reverse_bound + 1e-12
        assert got.am >= got.lower_bound - 1e-12


def test_sweep_reference_grid():
    m = example_model()
    pts = sweep(m, [0.0, 0.7573, 1.9037, 4.0])
    assert pts[0].d_idrf == 1.0 and pts[0].d_ce == 1.0 and pts[0].gap == 0.0
    assert abs(pts[1].d_ce - pts[1].d_idrf) < 1e-10
    gaps = [p.gap for p in pts]
    assert max(gaps) == gaps[2]  # peak sits at the second activation rate
    assert pts[2].k_ce == 2 and pts[1].k_ce == 1


def test_sweep_degenerate_and_invalid():
    m = example_model()
    single = sweep(m, [0.0])
    assert len(single) == 1 and single[0].gap == 0.0
    flat = model_from_eigs([2.0, 0.5], 1.0)
    assert all(p.gap < 1e-10 for p in sweep(flat, list(np.linspace(0.0, 9.0, 40))))
    with pytest.raises(InvalidGrid):
        sweep(m, [])
    with pytest.raises(InvalidGrid):
        sweep(m, [-1.0, 2.0])
    with pytest.raises(InvalidGrid):
        sweep(m, [0.0, 1.0, 1.0])
    with pytest.raises(InvalidGrid, match="one-dimensional"):
        sweep(m, [[0.0, 1.0], [2.0, 3.0]])


@pytest.mark.parametrize("seed", range(12))
def test_ordering_chain_and_monotonicity(seed):
    rng = np.random.default_rng(1100 + seed)
    model = random_model(rng)
    floor = model.mmse_floor
    pts = sweep(model, list(np.linspace(0.0, 12.0, 60)))
    for pt in pts:
        assert floor - 1e-10 <= pt.d_idrf <= pt.d_ce + 1e-10
        assert pt.d_ce <= 1.0 + 1e-10
        assert pt.d_ce - pt.d_idrf >= -1e-10
        assert pt.gap_lb <= pt.gap + 1e-10
        assert pt.gap <= pt.gap_ub + 1e-10
    for a, b in zip(pts, pts[1:]):
        assert b.d_idrf <= a.d_idrf + 1e-12
        assert b.d_ce <= a.d_ce + 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_boundary_continuity(seed):
    rng = np.random.default_rng(1200 + seed)
    model = random_model(rng)
    eps = 1e-8
    thresholds = waterfill.rate_thresholds(model.observation)[:-1]
    if model.conditional.rank:
        thresholds = thresholds + waterfill.rate_thresholds(model.conditional)[:-1]
    for t in thresholds:
        if t <= eps:
            continue
        assert abs(idrf(model, t - eps) - idrf(model, t + eps)) < 1e-6
        assert abs(ce_drf(model, t - eps) - ce_drf(model, t + eps)) < 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_asymptotic_floor(seed):
    # at 15 bits per observation both curves sit on the estimation floor;
    # for one or two observations 30 bits total already suffices
    rng = np.random.default_rng(1300 + seed)
    model = random_model(rng, max_dim=4)
    floor = model.mmse_floor
    r = 15.0 * model.L
    assert abs(idrf(model, r) - floor) < 1e-6
    assert abs(ce_drf(model, r) - floor) < 1e-6
    if model.L <= 2:
        assert abs(idrf(model, 30.0) - floor) < 1e-6
        assert abs(ce_drf(model, 30.0) - floor) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_gap_decay_envelope(seed):
    # beyond the second activation rate the normalized gap never exceeds
    # the upper-bound constant, reflecting the 2^{-2R/L} envelope
    rng = np.random.default_rng(1400 + seed)
    model = random_model(rng)
    if model.L < 2:
        return
    s2 = model.sigma2
    const = (model.L / model.M) * (model.gram.values[0] + s2) / (4.0 * s2)
    r2 = waterfill.rate_thresholds(model.observation)[1]
    for r in np.linspace(r2 + 1e-6, 12.0, 40):
        if r <= r2:
            continue
        g = gap(model, float(r))
        assert g * 2.0 ** (2.0 * float(r) / model.L) <= const + 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_gap_halves_beyond_last_threshold_full_rank(seed):
    # once every component of both spectra is active (full-rank model with
    # at least as many source dims as observations), both water levels decay
    # at the same exponential rate and the gap scales by exactly 1/4 per L
    # bits, so halving holds; short of that region it provably can fail
    rng = np.random.default_rng(1500 + seed)
    l_dim = int(rng.integers(2, 5))
    m = int(rng.integers(l_dim, 7))
    model = None
    while model is None or not model.full_rank:
        a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
        from cedrf.linalg import Matrix
        from cedrf.spectral import ObservationModel

        model = ObservationModel(Matrix(a), float(rng.choice([0.1, 1.0, 10.0])))
    start = max(
        waterfill.rate_thresholds(model.observation)[-2],
        waterfill.rate_thresholds(model.conditional)[-2],
    )
    for r in (start + 0.1, start + 1.0, start + 2.5):
        g_now = gap(model, r)
        g_later = gap(model, r + model.L)
        assert g_later <= 0.5 * g_now + 1e-15


def test_lower_bound_suppressed_where_invalid():
    # with more observations than sources the gap returns to zero at the
    # second activation rate and only grows once pure-noise components
    # activate; a positive closed-form bound there would overshoot the gap,
    # so the implementation falls back to the trivial bound
    from cedrf.linalg import Matrix
    from cedrf.spectral import ObservationModel

    rng = np.random.default_rng(1)
    model = ObservationModel(Matrix(rng.uniform(-2, 2, size=(5, 1))), 1.0)
    r2 = waterfill.rate_thresholds(model.observation)[1]
    for delta in (0.01, 0.2, 0.5, 1.0, 3.0):
        r = r2 + delta
        assert gap_lower_bound(model, r) <= gap(model, r) + 1e-12

    # same phenomenon for two full-rank components when the blind scheme
    # activates its second component before the optimal scheme does
    skew = model_from_eigs([1.2, 0.2], 1.0)
    r2 = waterfill.rate_thresholds(skew.observation)[1]
    r2_cond = waterfill.rate_thresholds(skew.conditional)[1]
    assert r2 < r2_cond
    inside = 0.5 * (r2 + r2_cond)
    assert gap_lower_bound(skew, inside) == 0.0
    assert gap_lower_bound(skew, inside) <= gap(skew, inside)
    beyond = r2_cond + 1.0
    assert 0.0 < gap_lower_bound(skew, beyond) <= gap(skew, beyond)


def test_rank_deficient_models_supported():
    rng = np.random.default_rng(42)
    model = rank_deficient_model(rng)
    assert not model.full_rank
    pts = sweep(model, list(np.linspace(0.0, 10.0, 30)))
    floor = model.mmse_floor
    for pt in pts:
        assert floor - 1e-10 <= pt.d_idrf <= pt.d_ce + 1e-10


def test_long_spectrum_paths():
    # 25 observations, all active: the water level of a long spectrum must
    # still match the matrix oracle's closed form
    from cedrf.linalg import Matrix
    from cedrf.oracle import ce_matrix_form
    from cedrf.spectral import ObservationModel

    rng = np.random.default_rng(88)
    model = ObservationModel(Matrix(rng.uniform(-1.0, 1.0, size=(25, 25))), 0.5)
    thr = waterfill.rate_thresholds(model.observation)
    big_r = thr[-2] + 3.0
    assert waterfill.active_count(model.observation, big_r) == 25
    assert abs(ce_matrix_form(model, big_r) - ce_drf(model, big_r)) < 1e-9
    floor = model.mmse_floor
    assert floor - 1e-10 <= idrf(model, big_r) <= ce_drf(model, big_r) + 1e-10


def test_am_gm_long_vector_log_space():
    # the geometric mean is a log-space sum at every length; a 30-term
    # vector must match the natural-log form
    rng = np.random.default_rng(89)
    vals = list(rng.lognormal(0.0, 1.0, size=30))
    got = am_gm_pair(vals)
    direct_gm = math.exp(sum(math.log(v) for v in vals) / len(vals))
    assert got.gm == pytest.approx(direct_gm, rel=1e-12)
    assert got.gm <= got.am <= got.reverse_bound + 1e-12
    assert got.am >= got.lower_bound - 1e-12


# Models whose eigenvalue products or squares leave double precision: the
# product in the water level overflowed (NaN), a long tied spectrum
# overflowed it too (inf), and (lam+s2)^2 underflowed to 0 (ZeroDivisionError).
SCALE_DEFECTS = {
    "diag(1e100,2e100)": (np.diag([1e100, 2e100]), 1.0),
    "1e17*I_19": (1e17 * np.eye(19), 1.0),
    "diag(1e-160,2e-160)": (np.diag([1e-160, 2e-160]), 1e-300),
}


@pytest.mark.parametrize("name", SCALE_DEFECTS)
def test_extreme_scales_stay_finite(name):
    a, sigma2 = SCALE_DEFECTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ObservationModel(Matrix(a), sigma2)
        region = equality_region(model)
        assert 1 <= region.r0 <= model.r
        assert not math.isnan(region.R_limit)
        for r in (0.0, 0.3, 1.0, 3.0, 8.0):
            assert math.isfinite(idrf(model, r)) and math.isfinite(ce_drf(model, r))
        points = sweep(model, list(np.linspace(0.0, 12.0, 50)))
    assert len(points) == 50
    assert all(math.isfinite(v) for pt in points for v in pt._asdict().values())


def test_huge_spectrum_exact_values():
    # lam = (4e200, 1e200), s2 = 1: both estimate components are 1, so the
    # optimal scheme spends one bit on each (water level 1/2); the blind
    # scheme sits exactly at its second threshold and spends it all on the
    # first component (water level 1e200).
    a, sigma2 = SCALE_DEFECTS["diag(1e100,2e100)"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ObservationModel(Matrix(a), sigma2)
        assert idrf(model, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert ce_drf(model, 1.0) == pytest.approx(0.625, abs=1e-12)
        assert not equality_region(model).unconditional


@pytest.mark.parametrize("seed", range(6))
def test_huge_rates_give_the_values_at_1e300(seed):
    # above DBL_MAX / 2 bits the exponents 2 (R_k - R) / k and -2R/L overflow
    # to -inf; the water levels and the bounds' decay are 0 either way
    rng = np.random.default_rng(3300 + seed)
    model = (example_model(), random_model(rng), rank_deficient_model(rng),
             model_from_eigs([20.0, 0.5, 0.0], 1.0),
             ObservationModel(Matrix(rng.uniform(-2, 2, size=(1, 3))), 0.1),  # L = 1
             ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0))[seed]
    one_rate = (idrf, ce_drf, gap, gap_upper_bound, gap_lower_bound)
    spectra = (model.observation, model.conditional)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [f(model, 1e300) for f in one_rate] + [waterfill.water_level(s, 1e300) for s in spectra]
        for r in (1e308, 1.7e308):
            got = [f(model, r) for f in one_rate] + [waterfill.water_level(s, r) for s in spectra]
            assert got == want
            assert [waterfill.active_count(s, r) for s in spectra] == [k for k, _ in want[-2:]]
        points = sweep(model, [1e300, 1e308, 1.7e308])
    assert [pt[1:] for pt in points[1:]] == [points[0][1:]] * 2
    assert points[0][1:6] == tuple(want[:5])


def _wide_model(rng: np.random.Generator, i: int) -> ObservationModel:
    """L, M in 1..5, |A| from 1e-160 to 1e150, sigma2 from 1e-300 to 1e300."""
    l_dim, m = (int(n) for n in rng.integers(1, 6, size=2))
    a = rng.standard_normal((l_dim, m)) * 10.0 ** rng.uniform(-160.0, 150.0)
    if i % 3 == 0:  # one column far below the others, up to 1e12
        a[:, 0] *= 10.0 ** rng.uniform(-12.0, 0.0)
    return ObservationModel(Matrix(a), 10.0 ** rng.uniform(-300.0, 300.0))


@pytest.mark.parametrize("seed", range(4))
def test_wide_range_models_give_finite_curves(seed):
    # lam / (lam + s2) underflows to 0 on about one model in nine; the
    # estimate spectrum's rank must then drop, or its thresholds take log2(0).
    # equality_region's tie rule warns of no overflow either, with weights up
    # to 1 / (4 s2) and s2 down to 1e-300
    rng = np.random.default_rng(3500 + seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(500):
            model = _wide_model(rng, i)
            for s in (model.gram, model.observation, model.conditional):
                assert s.rank == sum(v > 0.0 for v in s.values)
            for pt in sweep(model, [0.0, 0.5, 3.0, 40.0, 1e4]):
                # gap_ub may be inf: (lam_1 + s2) / (4 s2) can exceed double range
                finite = (pt.d_idrf, pt.d_ce, pt.gap, pt.gap_lb, pt.theta_idrf, pt.theta_ce)
                assert all(math.isfinite(v) for v in finite), (i, pt)
            equality_region(model)


@pytest.mark.parametrize("seed", range(4))
def test_floor_is_both_curves_at_1e300_bit_for_bit(seed):
    # the floor sums lam / (lam + s2) as the curves do, left to right
    rng = np.random.default_rng(3600 + seed)
    for i in range(50):
        for model in (random_model(rng), rank_deficient_model(rng), _wide_model(rng, i)):
            assert model.mmse_floor == idrf(model, 1e300) == ce_drf(model, 1e300), i


def test_gap_upper_bound_past_an_overflowing_prefactor():
    # (L/M) (lam_1 + s2) / (4 s2) = 2.5e499 overflows, the bound 2.5e499 2^-R
    # is finite from R = 633 and underflows past R = 2735
    model = ObservationModel(Matrix(np.diag([1e100, 1.0])), 1e-300)
    lam1 = mpmath.mpf(model.gram.values[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1000.0, 1076.0, 2000.0):
            want = (lam1 + mpmath.mpf(1e-300)) / (4 * mpmath.mpf(1e-300)) * mpmath.mpf(2) ** -r
            assert gap_upper_bound(model, r) == pytest.approx(float(want), rel=1e-12), r
        assert gap_upper_bound(model, 1.0) == math.inf
        assert gap_upper_bound(model, 2750.0) == gap_upper_bound(model, 1e300) == 0.0
        points = sweep(model, [0.0, 1.0, 1000.0, 1076.0, 2000.0, 2750.0, 1e300, 1.7e308])
    assert [pt.gap_ub for pt in points] == [gap_upper_bound(model, pt.R) for pt in points]
    assert not any(math.isnan(v) for pt in points for v in pt)


def _twin_close(a: float, b: float, tol: float = 1e-9) -> bool:
    # the benchmark's scale-twin comparison: relative, absolute below 1
    return a == b or abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


@pytest.mark.parametrize("seed", range(50))
def test_scale_invariance(seed):
    # the curves depend on lam/s2 only: (A, s2) and (cA, c^2 s2) must agree
    rng = np.random.default_rng(1700 + seed)
    l_dim, m = (int(n) for n in rng.integers(1, 9, size=2))
    if seed % 4 == 0 and min(l_dim, m) > 1:
        rank = int(rng.integers(1, min(l_dim, m)))
        a = rng.uniform(-2.0, 2.0, size=(l_dim, rank)) @ rng.uniform(-2.0, 2.0, size=(rank, m))
    else:
        a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
    sigma2 = float(rng.choice([0.1, 1.0, 10.0]))
    c = 10.0 ** float(rng.uniform(-150.0, 150.0))
    base = ObservationModel(Matrix(a), sigma2)
    twin = ObservationModel(Matrix(c * a), c * c * sigma2)
    assert twin.gram.rank == base.gram.rank
    for spectrum in ("observation", "conditional"):
        got = waterfill.rate_thresholds(getattr(twin, spectrum))
        want = waterfill.rate_thresholds(getattr(base, spectrum))
        assert len(got) == len(want)
        assert all(_twin_close(x, y) for x, y in zip(got, want)), spectrum
    got, want = equality_region(twin), equality_region(base)
    assert (got.r0, got.unconditional) == (want.r0, want.unconditional)
    assert _twin_close(got.R_limit, want.R_limit)
    rates = [0.0, 0.3, 1.0, 3.0, 8.0]
    for pt, ref in zip(sweep(twin, rates), sweep(base, rates)):
        assert (pt.k_idrf, pt.k_ce) == (ref.k_idrf, ref.k_ce), pt.R
        assert _twin_close(pt.d_idrf, ref.d_idrf) and _twin_close(pt.d_ce, ref.d_ce), pt.R
        assert _rel_close(pt.theta_idrf, ref.theta_idrf), pt.R
        assert _rel_close(pt.theta_ce / (c * c), ref.theta_ce), pt.R
