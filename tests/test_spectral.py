
import warnings

import numpy as np
import pytest

from support import MMSE_EXAMPLE, example_model, random_model, rank_deficient_model

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
