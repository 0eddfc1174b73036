import math

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import MMSE_EXAMPLE, example_model, random_model, rank_deficient_model

from cedrf import drf
from cedrf.linalg import Matrix, sym_eig
from cedrf.spectral import (
    NotPositiveDefinite,
    ObservationModel,
    Spectrum,
    conditional_spectrum,
    mmse_floor,
    observation_spectrum,
    whiten,
)


def frob(a: np.ndarray) -> float:
    return float(np.sqrt((a * a).sum()))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0), 2)  # increasing
    with pytest.raises(ValueError):
        Spectrum((2.0, -1.0), 1)  # negative
    with pytest.raises(ValueError):
        Spectrum((2.0, 1.0), 3)  # rank out of range
    with pytest.raises(ValueError):
        Spectrum((), 0)


def test_spectrum_from_values_sorts_and_ranks():
    s = Spectrum.from_values([0.5, 20.0, 0.0])
    assert s.values == (20.0, 0.5, 0.0)
    assert s.rank == 2
    # relative rank cutoff: 1e-10 of the largest
    s = Spectrum.from_values([1.0, 5e-11])
    assert s.rank == 1


def test_gram_spectrum_examples():
    assert ObservationModel(Matrix(np.eye(2)), 1.0).gram.values == (1.0, 1.0)
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


def test_observation_spectrum_examples():
    assert observation_spectrum(Spectrum((20.0, 0.5), 2), 1.0).values == (21.0, 1.5)
    assert observation_spectrum(Spectrum((0.0,), 0), 1.0).values == (1.0,)
    assert observation_spectrum(Spectrum((0.0,), 0), 1.0).rank == 1
    got = observation_spectrum(Spectrum((4.0, 0.0), 1), 0.25)
    assert got.values == (4.25, 0.25) and got.rank == 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1e300), st.floats(1e-300, 1e300),
       st.lists(st.one_of(st.just(-1.0), st.floats(0.0, 200.0)), max_size=7))
def test_observation_spectrum_is_the_shifted_gram(top, sigma2, drops):
    # each next value is one ulp below the last (-1), tied with it (0), or
    # up to 2^-200 times it: near ties and ranges far wider than a model's
    vals = [top]
    for d in drops:
        vals.append(math.nextafter(vals[-1], 0.0) if d < 0.0 else vals[-1] * 2.0 ** -d)
    gram = Spectrum.from_values(vals)
    got = observation_spectrum(gram, sigma2)
    assert got.values == tuple(v + sigma2 for v in vals)
    assert got.rank == len(vals)


def test_conditional_spectrum_examples():
    got = conditional_spectrum(Spectrum((20.0, 0.5), 2), 1.0)
    assert got.values == pytest.approx((20.0 / 21.0, 1.0 / 3.0), abs=1e-15)
    assert got.rank == 2
    assert conditional_spectrum(Spectrum((0.0,), 0), 1.0).values == (0.0,)
    assert conditional_spectrum(Spectrum((1.0,), 1), 1.0).values == (0.5,)


def test_mmse_floor_examples():
    assert mmse_floor(Spectrum((20.0, 0.5), 2), 1.0, 2) == pytest.approx(MMSE_EXAMPLE, abs=1e-12)
    assert mmse_floor(Spectrum((0.0, 0.0), 0), 1.0, 2) == 1.0
    # near-noiseless invertible observation
    assert mmse_floor(Spectrum((1.0,), 1), 1e-12, 1) == pytest.approx(0.0, abs=1e-11)


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
        mmse_floor(model.gram, s2, model.M) for s2 in (0.01, 0.1, 1.0, 10.0, 100.0)
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
    with pytest.raises(NotPositiveDefinite):
        whiten(Matrix([[1.0, 0.0], [0.0, 0.0]]), a, 1.0)
    with pytest.raises(NotPositiveDefinite):
        whiten(Matrix([[1.0, 0.0], [0.0, -2.0]]), a, 1.0)


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
    # A A^T = 1.44e308 I is finite, but symmetrizing it overflows; the model
    # must say so rather than pass inf on or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"A A\^T overflows"):
            ObservationModel(Matrix(1.2e154 * np.eye(2)), 1.0)


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
    # log10_cond stops short of 5, so lam_r stays above the rank cut-off at 1e-10 lam_1
    rng = np.random.default_rng(seed)
    r = min(l_dim, m)
    inner = np.sort(rng.uniform(0.0, log10_cond, size=max(r - 2, 0)))
    s = 10.0 ** -np.concatenate(([0.0], inner, [log10_cond]))[:r]  # 1 down to 1/cond
    a = _orthogonal(rng, l_dim)[:, :r] @ np.diag(s) @ _orthogonal(rng, m)[:, :r].T
    gram = ObservationModel(Matrix(a), 1.0).gram
    assert gram.rank == r
    assert _max_rel(gram.values[:r], _mp_gram(a)[:r]) <= 1e-10
    assert gram.values[r:] == (0.0,) * (l_dim - r)


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
