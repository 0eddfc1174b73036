
import numpy as np
import pytest

import mc_reference as ref
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
from cedrf.cli import _check_monte_carlo
from cedrf.linalg import Matrix
from cedrf.oracle import (
    InvalidSampleCount,
    ce_matrix_form,
    ce_matrix_parts,
    mc_ce,
    mc_estimates,
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


# ---------------------------------------------------------------------------
# fused sampler against the per-call reference samplers
# ---------------------------------------------------------------------------

FUSED_RATES = (0.0, 0.5, 1.0, 3.0)


def _special_models():
    rng = np.random.default_rng(2024)
    return [
        ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0),  # M > L
        ObservationModel(Matrix(rng.uniform(-2, 2, size=(5, 3))), 0.1),  # L > M
        rank_deficient_model(rng),
        model_from_eigs([20.0, 0.5, 0.0], 1.0),  # pure-noise component
    ]


def _assert_fused_matches_reference(model, n_samples, seed, rates=FUSED_RATES):
    run = mc_estimates(model, n_samples, seed, ce_rates=rates, idrf_rates=rates, mmse=True)
    assert len(run.ce) == len(run.idrf) == len(rates)
    for r, est in zip(rates, run.ce):
        assert est == ref.mc_ce(model, r, n_samples, seed), ("ce", r)
    for r, est in zip(rates, run.idrf):
        assert est == ref.mc_idrf(model, r, n_samples, seed), ("idrf", r)
    assert run.mmse == ref.mc_mmse(model, n_samples, seed)


def test_fused_matches_reference_on_random_models():
    rng = np.random.default_rng(4242)
    models = [random_model(rng) for _ in range(196)] + _special_models()
    assert any(m.M > m.L for m in models) and any(m.L > m.M for m in models)
    assert any(m.gram.rank < min(m.L, m.M) for m in models)
    for i, model in enumerate(models):
        _assert_fused_matches_reference(model, n_samples=1 + (i % 2) * 999, seed=i)


def test_single_estimate_calls_match_reference():
    rng = np.random.default_rng(4343)
    for i, model in enumerate([random_model(rng) for _ in range(20)] + _special_models()):
        for r in FUSED_RATES:
            assert mc_ce(model, r, 700, i) == ref.mc_ce(model, r, 700, i)
            assert mc_idrf(model, r, 700, i) == ref.mc_idrf(model, r, 700, i)
        assert mc_mmse(model, 700, i) == ref.mc_mmse(model, 700, i)


@pytest.mark.parametrize("n_samples", [65_536, 65_537, 100_000])
def test_fused_matches_reference_across_chunk_boundaries(n_samples):
    for i, model in enumerate(_special_models()):
        _assert_fused_matches_reference(model, n_samples, seed=90 + i)


def test_fused_verify_run_matches_seven_reference_calls():
    # the run `verify` makes per model: three rates per scheme plus the floor
    _assert_fused_matches_reference(example_model(), 100_000, 20240117, rates=(0.5, 1.0, 3.0))


def test_fused_rejects_bad_input():
    model = example_model()
    with pytest.raises(InvalidSampleCount):
        mc_estimates(model, 0, 1, mmse=True)
    with pytest.raises(ValueError, match="rate"):
        mc_estimates(model, 10, 1, ce_rates=(1.0,), idrf_rates=(-1.0,))
    empty = mc_estimates(model, 10, 1)
    assert empty.ce == empty.idrf == () and empty.mmse is None


def test_verify_monte_carlo_shares_the_observation_estimator(monkeypatch):
    # one pinv for the observation estimator plus one per CE rate; sym_eig
    # runs inside each pinv and once for the estimate covariance
    model = random_model(np.random.default_rng(12))
    calls = {"pinv": 0, "sym_eig": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counted(s, name=name, real=real):
            calls[name] += 1
            return real(s)

        monkeypatch.setattr(linalg, name, counted)
    _check_monte_carlo(model, 1000, 5)
    assert calls == {"pinv": 4, "sym_eig": 5}
