import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from support import MMSE_EXAMPLE, example_model, random_model, rank_deficient_model

from cedrf import cli, drf, spectral
from cedrf.linalg import DimensionMismatch, Matrix, sym_eig
from cedrf.spectral import (
    NotPositiveDefinite,
    ObservationModel,
    Spectrum,
    spectra,
    whiten,
)


def frob(a: np.ndarray) -> float:
    return float(np.sqrt((a * a).sum()))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0))  # increasing
    with pytest.raises(ValueError):
        Spectrum((2.0, -1.0))  # negative
    with pytest.raises(ValueError):
        Spectrum(())
    with pytest.raises(TypeError):
        Spectrum((2.0, 1.0), 1)  # the rank is counted, not given


@pytest.mark.parametrize("values, shape", [(np.ones((2, 2)), "(2, 2)"), (5.0, "()")])
def test_spectrum_names_the_shape_of_input_that_is_not_1d(values, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be a 1-D array, got shape {shape}")):
        Spectrum(values)


def test_spectrum_rank_counts_positive_values():
    assert Spectrum((20.0, 0.5, 0.0)).rank == 2
    assert Spectrum((0.0, 0.0)).rank == 0
    # values are exact: no cut-off, down to the smallest subnormal
    assert Spectrum((1.0, 5e-11)).rank == 2
    assert Spectrum((1.0, 5e-324)).rank == 2


def test_spectrum_tables_are_read_only_arrays_built_once():
    given = np.array([1.0, 1e-16, 1e-16, 1e-16, 0.0])
    s = Spectrum(given)
    for name in ("values", "thresholds"):
        table = getattr(s, name)
        assert type(table) is np.ndarray and table.dtype == np.float64, name
        assert not table.flags.writeable, name
        assert getattr(s, name) is table, name
        with pytest.raises(ValueError):
            table[0] = 2.0
    # values are a copy: the caller's array stays writeable and apart
    assert given.flags.writeable and s.values is not given
    given[0] = 3.0
    assert s.values[0] == 1.0
    assert Spectrum((0.0,)).thresholds.tolist() == [0.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = np.ones(5)
    with pytest.raises(TypeError):
        Spectrum((2.0, 1.0), 1)


def _ulp_steps(rng, top, n):
    """``n`` values from ``top`` down, each 0 to 2 ulps below the last: ties and near ties."""
    values = [top]
    for step in rng.integers(0, 3, size=n - 1).tolist():
        v = values[-1]
        for _ in range(step):
            v = math.nextafter(v, 0.0)
        values.append(v)
    return values


def test_thresholds_are_a_running_sum_of_non_negative_steps():
    # R_{k+1} = R_k + (k/2) log2(lam_k / lam_{k+1}) by spectral._log2_ratio: each step
    # is >= 0 as rounded, so the table never decreases and exact ties add exactly 0,
    # at any scale
    rng = np.random.default_rng(39)
    for top in (1e-300, 1.0, 3.0, 1e300):
        for _ in range(40):
            values = _ulp_steps(rng, top, 64)
            thr = Spectrum(values).thresholds.tolist()
            assert thr[-1] == math.inf
            for k in range(1, 64):
                assert thr[k] >= thr[k - 1], (top, k)
                if values[k] == values[k - 1]:
                    assert thr[k] == thr[k - 1], (top, k)


def test_thresholds_match_the_60_digit_reference_at_any_scale():
    # a step up to lam_k = 2 lam_{k+1} is a log1p within about 6u (u = EPS/2) of itself;
    # past a ratio of 2 it errs by (k/2)(u / ln2 for the mantissa quotient + u for its
    # log2) plus u of itself; the running sum adds u R_k per add.  So
    # |R_K - want| <= EPS (F + (K + 3) R_K), F the sum of k over the steps past a ratio
    # of 2, whatever the scale: near ties keep their relative accuracy
    rng = np.random.default_rng(40)
    spectra = [sorted(rng.uniform(1.0, 1.001, 128).tolist(), reverse=True),
               sorted((10.0 ** rng.uniform(-8.0, 8.0, 24)).tolist(), reverse=True),
               _ulp_steps(rng, 1.0, 48)]
    for values in spectra:
        for scale in (1e-150, 1.0, 1e150):
            scaled = [v * scale for v in values]
            got = Spectrum(scaled).thresholds.tolist()
            far = 0
            for k, (g, w) in enumerate(zip(got[:-1], mp_reference.thresholds(scaled)), 1):
                assert abs(g - w) <= EPS * (far + (k + 3) * g), (len(values), scale, k)
                far += k if k < len(scaled) and scaled[k - 1] > 2.0 * scaled[k] else 0


EPS = float(np.finfo(float).eps)


def test_model_zeroes_gram_values_at_the_rank_cutoff():
    # a singular value counts as 0 when it is at most max(M, L) eps s_1, the
    # SVD's own noise: sqrt(5e-11) s_1 lies far above that and is kept
    model = ObservationModel(Matrix(np.diag([1.0, math.sqrt(5e-11)])), 1.0)
    assert model.gram.values.tolist() == [1.0, math.sqrt(5e-11) ** 2]
    assert model.gram.rank == model.conditional.rank == 2
    assert model.full_rank
    # the SVD returns the second singular value of [[1, 1], [1, 1]] as 3e-17, noise
    ones = ObservationModel(Matrix([[1.0, 1.0], [1.0, 1.0]]), 1e-300)
    assert 0.0 < np.linalg.svd(ones.A.data, compute_uv=False)[1] <= 2 * EPS * 2.0
    assert ones.gram.values.tolist() == [4.0, 0.0] and not ones.full_rank
    # at the cut exactly, 2 eps s_1 here, a value is 0; one ulp above, it is kept
    assert ObservationModel(Matrix(np.diag([1.0, 2 * EPS])), 1.0).gram.rank == 1
    assert ObservationModel(Matrix(np.diag([1.0, np.nextafter(2 * EPS, 1.0)])), 1.0).gram.rank == 2


@pytest.mark.parametrize("small", [1e-6, 3e-6])
def test_a_component_far_below_s1_keeps_its_share_of_the_floor(small):
    # s_2 = small s_1 lies 1e9 above the rank cut; at sigma2 = 1e-14 it takes
    # about 99 % of its share of the floor, which falls from 0.5 to about 5e-3
    model = ObservationModel(Matrix(np.diag([1.0, small])), 1e-14)
    with mpmath.workdps(60):
        gram = [mpmath.mpf(1.0), mpmath.mpf(small) ** 2]  # the exact squares
    for got, want in ((model.mmse_floor, mp_reference.mmse_floor(gram, 1e-14, 2)),
                      (drf.ce_drf(model, 30.0), mp_reference.ce_drf(gram, 1e-14, 2, 30.0))):
        assert abs(got - want) <= 1e-12 * want, (got, want)


def _rank_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, int | None]:
    """A matrix of one family, L and M in 1..6, and its exact rank where the family fixes it."""
    l_dim, m = (int(v) for v in rng.integers(1, 7, size=2))
    r = min(l_dim, m)
    if kind == "wide columns":  # column scales 10^U(-8, 8): some ranks sit at the cut
        return rng.standard_normal((l_dim, m)) * 10.0 ** rng.uniform(-8.0, 8.0, size=m), None
    if kind == "product":  # B C, its inner size below min(L, M) where it can be
        k = int(rng.integers(1, r)) if r > 1 else 1
        return rng.standard_normal((l_dim, k)) @ rng.standard_normal((k, m)), k
    if kind == "ties":  # singular values from {0, 1, 3}: ties, and exact zeros
        s = -np.sort(-rng.choice([0.0, 1.0, 3.0], size=r))
        a = _orthogonal(rng, l_dim)[:, :r] @ np.diag(s) @ _orthogonal(rng, m)[:, :r].T
        return a, int(np.count_nonzero(s))
    return np.zeros((l_dim, m)), 0


@pytest.mark.parametrize("kind", ["wide columns", "product", "ties", "zero"])
def test_gram_rank_is_numpys_matrix_rank(kind):
    rng = np.random.default_rng(["wide columns", "product", "ties", "zero"].index(kind) + 40)
    for i in range(300):
        a, exact = _rank_case(kind, rng)
        sigma2 = 10.0 ** rng.uniform(-12.0, 2.0)
        gram = ObservationModel(Matrix(a), sigma2).gram
        rank = gram.rank
        assert rank == np.linalg.matrix_rank(a), (kind, i)
        assert exact is None or rank == exact, (kind, i)
        # a power-of-two scale twin has the same spectrum, scaled exactly, out to scales
        # where LAPACK would rescale A by a factor that is not a power of two
        k = int(rng.integers(-480, 481))
        twin = ObservationModel(Matrix(np.ldexp(a, k)), math.ldexp(sigma2, 2 * k))
        assert twin.gram.rank == rank, (kind, i, k)
        assert twin.gram.values.tobytes() == np.ldexp(gram.values, 2 * k).tobytes(), (kind, i, k)


def test_gram_spectrum_examples():
    assert ObservationModel(Matrix(np.eye(2)), 1.0).gram.values.tolist() == [1.0, 1.0]
    g = example_model().gram
    assert g.values == pytest.approx((20.0, 0.5), abs=1e-12)
    ones = ObservationModel(Matrix([[1.0, 1.0], [1.0, 1.0]]), 1.0)
    assert ones.gram.values == pytest.approx((4.0, 0.0), abs=1e-12)
    assert ones.gram.rank == 1
    assert not ones.full_rank


@pytest.mark.parametrize("seed", range(8))
def test_model_basis_diagonalizes_gram(seed):
    rng = np.random.default_rng(450 + seed)
    model = random_model(rng) if seed % 2 else rank_deficient_model(rng)
    u = model.basis
    assert not u.flags.writeable
    assert frob(u.T @ u - np.eye(model.L)) < 1e-9
    a = model.A.data
    d = u.T @ (a @ a.T) @ u
    scale = max(model.gram.values[0], 1e-300)
    assert frob(d - np.diag(np.diag(d))) <= 1e-9 * scale
    assert np.abs(np.diag(d) - model.gram.values).max() <= 1e-9 * scale
    for j in range(model.L):
        assert u[int(np.argmax(np.abs(u[:, j]))), j] > 0.0


def test_model_builds_its_spectra_once(tmp_path, monkeypatch):
    # floor_sum is M times the estimation floor, (M - r) + sum_{l<=r} s2/obs_l added by fsum
    model = example_model()
    r, obs = model.conditional.rank, model.observation.values[: model.conditional.rank]
    assert model.floor_sum == math.fsum([model.M - r, *(model.sigma2 / obs).tolist()])
    assert model.mmse_floor == model.floor_sum / model.M
    # an analyze op and a verify model each build the spectra once, with the model
    calls = []
    real = spectral.spectra
    monkeypatch.setattr(spectral, "spectra", lambda *a: calls.append(a) or real(*a))
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": model.A.data.tolist(), "sigma2": model.sigma2}))
    for argv in (["analyze", path, "--rate", "1.5"], ["verify", path, "--samples", "1000"],
                 ["verify", "--random", "1", "--seed", "12", "--samples", "1000"]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0
        assert len(calls) == 1, argv
    # equality_region and the column kernel read the model's spectra and build none
    calls.clear()
    drf.equality_region(model)
    drf._columns(model, np.array([0.5, 3.0]))
    assert calls == []


def observation_spectrum(gram: Spectrum, sigma2: float) -> Spectrum:
    return spectra(gram, sigma2, gram.values.size)[0]


def conditional_spectrum(gram: Spectrum, sigma2: float) -> Spectrum:
    return spectra(gram, sigma2, gram.values.size)[1]


def test_observation_spectrum_examples():
    assert observation_spectrum(Spectrum((20.0, 0.5)), 1.0).values.tolist() == [21.0, 1.5]
    assert observation_spectrum(Spectrum((0.0,)), 1.0).values.tolist() == [1.0]
    assert observation_spectrum(Spectrum((0.0,)), 1.0).rank == 1
    got = observation_spectrum(Spectrum((4.0, 0.0)), 0.25)
    assert got.values.tolist() == [4.25, 0.25] and got.rank == 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1e300), st.floats(1e-300, 1e300),
       st.lists(st.one_of(st.just(-1.0), st.floats(0.0, 200.0)), max_size=7))
def test_observation_spectrum_is_the_shifted_gram(top, sigma2, drops):
    # each next value is one ulp below the last (-1), tied with it (0), or
    # up to 2^-200 times it: near ties and ranges far wider than a model's
    vals = [top]
    for d in drops:
        vals.append(math.nextafter(vals[-1], 0.0) if d < 0.0 else vals[-1] * 2.0 ** -d)
    gram = Spectrum(tuple(vals))
    got = observation_spectrum(gram, sigma2)
    assert got.values.tolist() == [v + sigma2 for v in vals]
    assert got.rank == len(vals)


def test_conditional_spectrum_examples():
    got = conditional_spectrum(Spectrum((20.0, 0.5)), 1.0)
    assert got.values == pytest.approx((20.0 / 21.0, 1.0 / 3.0), abs=1e-15)
    assert got.rank == 2
    assert conditional_spectrum(Spectrum((0.0,)), 1.0).values.tolist() == [0.0]
    assert conditional_spectrum(Spectrum((1.0,)), 1.0).values.tolist() == [0.5]
    # lam / (lam + sigma2) underflows to 0: that component leaves the rank
    got = conditional_spectrum(Spectrum((1.0, 1e-320)), 1e10)
    assert got.values.tolist() == [1.0 / (1.0 + 1e10), 0.0] and got.rank == 1


def test_spectra_check_sigma2_and_the_top_observation_value():
    # one check for the model and the two-component forms, before anything is derived
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma2 must be a positive finite real"):
            spectra(Spectrum((1.0,)), bad, 1)
    with pytest.raises(ValueError, match=r"lambda1 \+ sigma2 overflows double precision: "
                                         r"1\.700e\+308 \+ 1\.000e\+308$"):
        spectra(Spectrum((1.7e308, 1.0)), 1e308, 2)
    assert spectra(Spectrum((1.7e308, 1.0)), 1e306, 2)[0].values[0] == 1.7e308 + 1e306


def test_mmse_floor_examples():
    assert example_model().mmse_floor == pytest.approx(MMSE_EXAMPLE, abs=1e-12)
    assert ObservationModel(Matrix(np.zeros((2, 2))), 1.0).mmse_floor == 1.0
    # near-noiseless invertible observation
    assert ObservationModel(Matrix([[1.0]]), 1e-12).mmse_floor == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("seed", range(10))
def test_spectra_invariants_random(seed):
    rng = np.random.default_rng(400 + seed)
    model = random_model(rng)
    g, c, o = model.gram, model.conditional, model.observation
    assert all(0.0 <= v < 1.0 for v in c.values)
    assert all(a >= b for a, b in zip(c.values, c.values[1:]))
    diffs = [ov - gv for ov, gv in zip(o.values, g.values)]
    assert diffs == pytest.approx([model.sigma2] * model.L, abs=1e-12)
    lo = max(0.0, 1.0 - model.r / model.M)
    assert lo - 1e-12 <= model.mmse_floor <= 1.0 + 1e-12


def test_mmse_floor_increasing_in_noise():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    floors = [
        ObservationModel(model.A, s2).mmse_floor for s2 in (0.01, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(floors, floors[1:]))


def test_whiten_identity_and_scaling():
    a = Matrix([[1.0, 0.0], [0.0, 1.0]])
    same = whiten(Matrix(np.eye(2)), a, 1.0)
    assert np.allclose(same.A.data, a.data, atol=1e-12)
    scaled = whiten(Matrix(4.0 * np.eye(2)), a, 1.0)
    assert np.allclose(scaled.A.data, 2.0 * np.eye(2), atol=1e-12)
    assert scaled.gram.values == pytest.approx((4.0, 4.0), abs=1e-12)
    diag = whiten(Matrix(np.diag([4.0, 1.0])), a, 1.0)
    assert np.allclose(diag.A.data, np.diag([2.0, 1.0]), atol=1e-12)


def test_whiten_rejects_non_pd():
    a = Matrix(np.eye(2))
    # the last two are at most M eps of the largest, and 2 eps is the cut itself
    for eigs in ((1.0, 0.0), (1.0, -2.0), (1.0, -1e-3), (1.0, 2 * EPS), (1.0, 1e-17)):
        with pytest.raises(NotPositiveDefinite, match=re.escape(f"eigenvalue {eigs[1]:.3e} ")):
            whiten(Matrix(np.diag(eigs)), a, 1.0)


@pytest.mark.parametrize("sigma_x, a, message", [
    ([[1.0]], [[1.0, 2.0]], "expected 2x2, got 1x1"),  # square, of the wrong size
    ([[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0, 3.0]], "expected 3x3, got 2x2"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 2.0]], "expected 2x2, got 2x3"),  # not square
])
def test_whiten_names_a_sigma_x_of_the_wrong_shape(sigma_x, a, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        whiten(Matrix(sigma_x), Matrix(a), 1.0)


def test_whiten_accepts_a_smallest_eigenvalue_above_m_eps():
    # 1e-12 of the largest, above M eps: sigma_x^{1/2} is diag(1, sqrt(1e-12))
    # exactly, so the model is the explicit one, A sigma_x^{1/2}, bit for bit
    a = np.random.default_rng(9).standard_normal((3, 2))
    model = whiten(Matrix(np.diag([1.0, 1e-12])), Matrix(a), 1e-14)
    explicit = ObservationModel(Matrix(a * [1.0, math.sqrt(1e-12)]), 1e-14)
    assert model.gram.rank == 2
    rates = np.linspace(0.0, 40.0, 81)
    assert drf.sweep(model, rates) == drf.sweep(explicit, rates)


@pytest.mark.parametrize("seed", range(8))
def test_whiten_matches_direct_covariance_spectrum(seed):
    rng = np.random.default_rng(500 + seed)
    m = int(rng.integers(1, 5))
    l_dim = int(rng.integers(1, 5))
    a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
    b = rng.uniform(-1.0, 1.0, size=(m, m))
    sigma_x = b @ b.T + 0.5 * np.eye(m)  # safely PD
    model = whiten(Matrix(sigma_x), Matrix(a), 1.0)
    target = a @ sigma_x @ a.T
    w, _ = sym_eig((target + target.T) / 2.0)
    assert np.allclose(model.gram.values, np.clip(w, 0.0, None), atol=1e-9)


def test_model_validation():
    with pytest.raises(ValueError):
        ObservationModel(Matrix(np.eye(2)), 0.0)
    with pytest.raises(ValueError):
        ObservationModel(Matrix(np.eye(2)), -1.0)
    with pytest.raises(ValueError):
        ObservationModel(Matrix(np.eye(2)), float("nan"))


def test_gram_overflow_is_rejected_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # lambda1 = 1.44e308 and lambda1 + sigma2 are finite; nothing forms A A^T, so the
        # model is valid and its curves are finite
        big = ObservationModel(Matrix(1.2e154 * np.eye(2)), 1.0)
        assert big.gram.rank == 2 and math.isfinite(big.observation.values[0])
        for point in drf.sweep(big, np.linspace(0.0, 3000.0, 31)):
            assert all(math.isfinite(v) for v in point), point
        # A A^T = 2.5e307 and sigma2 are finite, the observation spectrum's
        # lambda1 + sigma2 is not
        with pytest.raises(ValueError, match=r"lambda1 \+ sigma2 overflows"):
            ObservationModel(Matrix(np.array([[5e153]])), 1.7e308)
        assert ObservationModel(Matrix(np.array([[5e153]])), 1.5e308).observation.values[0] \
            == 2.5e307 + 1.5e308
        # s_1^2 itself overflows: checked before the rank cut, which would zero it
        with pytest.raises(ValueError, match=r"lambda1 \+ sigma2 overflows double precision: "
                                             r".*largest singular value 1\.000e\+160$"):
            ObservationModel(Matrix(np.diag([1e160, 1.0])), 1.0)


# ---------------------------------------------------------------------------
# accuracy of the spectrum against a 60-digit SVD of the same float matrix
# ---------------------------------------------------------------------------


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _mp_gram(a: np.ndarray) -> list[float]:
    """Squared singular values of the float matrix ``a``, at 60 digits, descending."""
    with mpmath.workdps(60):
        s = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
        return sorted((float(v * v) for v in s), reverse=True)


def _max_rel(got, want) -> float:
    return max(abs(g - w) / w for g, w in zip(got, want))


ILL_CONDITIONED = (1.0, 1e-3, 1e-4, 3e-5)  # lam down to 9e-10: cond(A A^T) ~ 1e9


@pytest.mark.parametrize("seed", range(4))
def test_gram_keeps_small_eigenvalues_of_an_ill_conditioned_a(seed):
    # squaring A first lost about eps cond(A)^2 ~ 1e-7 relative here
    rng = np.random.default_rng(seed)
    a = _orthogonal(rng, 4) @ np.diag(ILL_CONDITIONED) @ _orthogonal(rng, 4).T
    assert _max_rel(ObservationModel(Matrix(a), 1.0).gram.values, _mp_gram(a)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_curves_of_a_rotated_ill_conditioned_model_match_the_diagonal_one(seed):
    rng = np.random.default_rng(seed)
    a = _orthogonal(rng, 4) @ np.diag(ILL_CONDITIONED) @ _orthogonal(rng, 4).T
    rotated = ObservationModel(Matrix(a), 1e-12)
    diagonal = ObservationModel(Matrix(np.diag(ILL_CONDITIONED)), 1e-12)
    rates = np.arange(61.0)
    for got, want in zip(drf.sweep(rotated, rates), drf.sweep(diagonal, rates)):
        assert abs(got.d_idrf - want.d_idrf) <= 1e-10 * want.d_idrf
        assert abs(got.d_ce - want.d_ce) <= 1e-10 * want.d_ce


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.0, 4.99), st.integers(0, 2**32 - 1))
def test_gram_is_accurate_up_to_condition_1e5(l_dim, m, log10_cond, seed):
    # log10_cond stops short of 5: lam_r's relative error, about 2 eps cond, stays below 1e-10
    rng = np.random.default_rng(seed)
    r = min(l_dim, m)
    inner = np.sort(rng.uniform(0.0, log10_cond, size=max(r - 2, 0)))
    s = 10.0 ** -np.concatenate(([0.0], inner, [log10_cond]))[:r]  # 1 down to 1/cond
    a = _orthogonal(rng, l_dim)[:, :r] @ np.diag(s) @ _orthogonal(rng, m)[:, :r].T
    gram = ObservationModel(Matrix(a), 1.0).gram
    assert gram.rank == r
    assert _max_rel(gram.values[:r], _mp_gram(a)[:r]) <= 1e-10
    assert gram.values[r:].tolist() == [0.0] * (l_dim - r)


# ---------------------------------------------------------------------------
# invariance under row and column permutations and orthogonal mixing of rows
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rows", "columns", "rotation"]))
def test_spectrum_and_curves_ignore_permutations_and_rotations(seed, kind):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    a = model.A.data
    if kind == "rows":
        b = a[rng.permutation(model.L)]
    elif kind == "columns":
        b = a[:, rng.permutation(model.M)]
    else:
        b = _orthogonal(rng, model.L) @ a
    twin = ObservationModel(Matrix(b), model.sigma2)
    # relative to the largest value: a small value's own error is eps cond(A)
    assert twin.gram.rank == model.gram.rank
    top = model.gram.values[0]
    assert all(abs(x - y) <= 1e-12 * top for x, y in zip(twin.gram.values, model.gram.values))
    rates = np.linspace(0.0, 12.0, 25)
    for got, want in zip(drf.sweep(twin, rates), drf.sweep(model, rates)):
        assert abs(got.d_idrf - want.d_idrf) <= 1e-12 * want.d_idrf
        assert abs(got.d_ce - want.d_ce) <= 1e-12 * want.d_ce
