
import numpy as np
import pytest

from support import (
    CE_AT_1,
    IDRF_AT_1,
    MMSE_EXAMPLE,
    model_from_eigs,
    example_model,
    random_model,
    rank_deficient_model,
)

from cedrf import drf, linalg, waterfill
from cedrf.linalg import Matrix
from cedrf.oracle import (
    InvalidSampleCount,
    ce_matrix_form,
    ce_matrix_parts,
    mc_ce,
    mc_idrf,
    mc_mmse,
)
from cedrf.spectral import ObservationModel


def test_parts_reuse_the_model_basis(monkeypatch):
    model = random_model(np.random.default_rng(12))
    calls = []
    real = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda s: calls.append(1) or real(s))
    for r in (0.0, 0.5, 2.0):
        assert ce_matrix_parts(model, r).basis is model.basis
    assert calls == []


def test_parts_at_zero_rate():
    parts = ce_matrix_parts(example_model(), 0.0)
    assert np.allclose(parts.gain.data, 0.0, atol=0.0)
    assert np.allclose(parts.channel.data, 0.0, atol=0.0)
    assert np.allclose(np.diag(parts.distortion.data), [21.0, 1.5], atol=1e-12)


def test_parts_reference_values_at_one_bit():
    parts = ce_matrix_parts(example_model(), 1.0)
    assert np.allclose(np.diag(parts.gain.data), [1.0 - 5.25 / 21.0, 0.0], atol=1e-12)
    assert np.allclose(np.diag(parts.distortion.data), [5.25, 1.5], atol=1e-12)
    # noise covariance sigma2 J^2 + J D, diagonal PSD
    j = np.diag(parts.gain.data)
    d = np.diag(parts.distortion.data)
    assert np.allclose(np.diag(parts.noise_cov.data), j * j + j * d, atol=1e-12)
    assert np.all(np.diag(parts.noise_cov.data) >= 0.0)


def test_parts_lossless_limit():
    parts = ce_matrix_parts(example_model(), 40.0)
    assert np.allclose(np.diag(parts.gain.data), 1.0, atol=1e-9)
    assert np.all(np.diag(parts.distortion.data) < 1e-9)


def test_basis_is_orthogonal_with_fixed_signs():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    parts = ce_matrix_parts(model, 1.0)
    u = parts.basis.data
    assert np.allclose(u @ u.T, np.eye(model.L), atol=1e-9)
    for col in u.T:
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_matrix_form_reference_values():
    m = example_model()
    assert ce_matrix_form(m, 1.0) == pytest.approx(CE_AT_1, abs=1e-10)
    assert ce_matrix_form(m, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_matrix_form_matches_closed_form(seed):
    rng = np.random.default_rng(1600 + seed)
    model = random_model(rng)
    for r in (0.0, 0.4, 1.3, 3.0, 7.5, 12.0):
        assert abs(ce_matrix_form(model, r) - drf.ce_drf(model, r)) < 1e-9


@pytest.mark.parametrize("shape", [(3, 2), (2, 2), (2, 3), (5, 2), (1, 4)])
def test_matrix_form_all_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    l_dim, m = shape
    model = ObservationModel(Matrix(rng.uniform(-2, 2, size=(l_dim, m))), 1.0)
    for r in (0.2, 1.0, 2.5, 6.0):
        assert abs(ce_matrix_form(model, r) - drf.ce_drf(model, r)) < 1e-9


def test_matrix_form_rank_deficient():
    rng = np.random.default_rng(77)
    model = rank_deficient_model(rng)
    for r in (0.5, 2.0, 5.0, 9.0):
        assert abs(ce_matrix_form(model, r) - drf.ce_drf(model, r)) < 1e-9


def test_pure_noise_component_activation():
    # one zero gram eigenvalue: at high rate the observation-side allocation
    # wastes rate on it while the optimal side never touches it, yet the
    # matrix form still reproduces the closed form
    model = model_from_eigs([20.0, 0.5, 0.0], 1.0)
    assert model.gram.rank == 2
    big_r = 8.0
    obs_alloc = waterfill.rate_allocation(model.observation, big_r)
    cond_alloc = waterfill.rate_allocation(model.conditional, big_r)
    assert obs_alloc.rates[2] > 0.0
    assert cond_alloc.rates[2] == 0.0
    assert abs(ce_matrix_form(model, big_r) - drf.ce_drf(model, big_r)) < 1e-9


def test_mc_determinism():
    model = example_model()
    a = mc_ce(model, 1.0, 70_000, seed=123)  # spans two RNG chunks
    b = mc_ce(model, 1.0, 70_000, seed=123)
    assert a == b
    c = mc_ce(model, 1.0, 70_000, seed=124)
    assert c.mean != a.mean
    assert mc_idrf(model, 1.0, 5_000, seed=5) == mc_idrf(model, 1.0, 5_000, seed=5)
    assert mc_mmse(model, 5_000, seed=5) == mc_mmse(model, 5_000, seed=5)


def test_mc_rejects_bad_sample_count():
    model = example_model()
    with pytest.raises(InvalidSampleCount):
        mc_ce(model, 1.0, 0, seed=1)
    with pytest.raises(InvalidSampleCount):
        mc_idrf(model, 1.0, -5, seed=1)
    with pytest.raises(InvalidSampleCount):
        mc_mmse(model, 0, seed=1)


def _within_ci(estimate, target, floor=1e-3):
    return abs(estimate.mean - target) < max(4.0 * estimate.stderr, floor)


def test_mc_ce_tracks_closed_form():
    model = example_model()
    for r, seed in ((0.5, 10), (1.0, 11), (3.0, 12)):
        est = mc_ce(model, r, 150_000, seed=seed)
        assert _within_ci(est, drf.ce_drf(model, r))
        assert est.stderr > 0.0


def test_mc_ce_zero_rate():
    est = mc_ce(example_model(), 0.0, 50_000, seed=2)
    assert _within_ci(est, 1.0, floor=2e-2)


def test_mc_idrf_tracks_closed_form():
    model = example_model()
    for r, seed in ((0.5, 20), (1.0, 21), (3.0, 22)):
        est = mc_idrf(model, r, 150_000, seed=seed)
        assert _within_ci(est, drf.idrf(model, r))
    assert _within_ci(mc_idrf(model, 1.0, 150_000, seed=23), IDRF_AT_1)


def test_mc_idrf_zero_rate_hits_boundary_shortcircuit():
    # at R = 0 the single active component sits exactly at the water level,
    # so the degenerate channel must reconstruct zero without dividing by zero
    est = mc_idrf(example_model(), 0.0, 50_000, seed=3)
    assert _within_ci(est, 1.0, floor=2e-2)


def test_mc_mmse_matches_floor():
    model = example_model()
    est = mc_mmse(model, 150_000, seed=30)
    assert _within_ci(est, MMSE_EXAMPLE)
    noisy = model_from_eigs([1.0], 1e6)
    assert _within_ci(mc_mmse(noisy, 50_000, seed=31), 1.0, floor=2e-2)
    clean = ObservationModel(Matrix(np.eye(2)), 1e-6)
    est = mc_mmse(clean, 50_000, seed=32)
    assert est.mean == pytest.approx(0.0, abs=1e-4)


def test_mc_nonsquare_models():
    rng = np.random.default_rng(9)
    wide = ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0)
    tall = ObservationModel(Matrix(rng.uniform(-2, 2, size=(4, 2))), 0.5)
    for model in (wide, tall):
        for r in (0.7, 2.5):
            assert _within_ci(mc_ce(model, r, 120_000, seed=40), drf.ce_drf(model, r))
            assert _within_ci(mc_idrf(model, r, 120_000, seed=41), drf.idrf(model, r))
        assert _within_ci(mc_mmse(model, 120_000, seed=42), model.mmse_floor)
