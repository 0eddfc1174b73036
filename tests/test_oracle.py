
import os
import subprocess
import sys
from pathlib import Path

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

import cedrf
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
    # the basis is built on the first read, once, and every later call reuses it
    model = random_model(np.random.default_rng(12))
    calls = []
    real = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda s: calls.append(1) or real(s))
    assert "basis" not in vars(model)
    for r in (0.0, 0.5, 2.0):
        assert ce_matrix_parts(model, r).basis is model.basis
        assert calls == [1]


def test_parts_at_zero_rate():
    parts = ce_matrix_parts(example_model(), 0.0)
    assert np.allclose(parts.gain, 0.0, atol=0.0)
    assert np.allclose(parts.channel, 0.0, atol=0.0)
    assert np.allclose(parts.distortion, [21.0, 1.5], atol=1e-12)


def test_parts_reference_values_at_one_bit():
    parts = ce_matrix_parts(example_model(), 1.0)
    assert np.allclose(parts.gain, [1.0 - 5.25 / 21.0, 0.0], atol=1e-12)
    assert np.allclose(parts.distortion, [5.25, 1.5], atol=1e-12)
    # noise covariance sigma2 J^2 + J D, diagonal PSD
    j = parts.gain
    d = parts.distortion
    assert np.allclose(parts.noise_cov, j * j + j * d, atol=1e-12)
    assert np.all(parts.noise_cov >= 0.0)


def test_parts_lossless_limit():
    parts = ce_matrix_parts(example_model(), 40.0)
    assert np.allclose(parts.gain, 1.0, atol=1e-9)
    assert np.all(parts.distortion < 1e-9)


def test_basis_is_orthogonal_with_fixed_signs():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    parts = ce_matrix_parts(model, 1.0)
    u = parts.basis
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
# joint runs: frozen bits, per-estimate wrappers, run-to-run identity
# ---------------------------------------------------------------------------

FUSED_RATES = (0.0, 0.5, 1.0, 3.0)
VERIFY_RATES = (0.5, 1.0, 3.0)


def _special_models():
    rng = np.random.default_rng(2024)
    return [
        ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0),  # M > L
        ObservationModel(Matrix(rng.uniform(-2, 2, size=(5, 3))), 0.1),  # L > M
        rank_deficient_model(rng),
        model_from_eigs([20.0, 0.5, 0.0], 1.0),  # pure-noise component
        # |A|^2 / s2 near 1e10: rounding leaves the oracle covariances asymmetric
        ObservationModel(Matrix(rng.normal(size=(4, 2))), 1e-9),
    ]


def _flat(run):
    return (*run.ce, *run.idrf, run.mmse)


# (mean, stderr) as float.hex of verify's run at 100 000 samples (two
# chunks): CE then the optimal scheme at VERIFY_RATES, then the floor.
# Frozen with numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels, x86-64); like
# every Monte Carlo bit they hold for one platform and BLAS build.  The
# spectrum enters through the water levels: taking it from A's singular
# values moved ten estimates, in the M > L, L > M, rank-deficient and
# 1e-9 rows, by at most 7.1e-16 relative.
FROZEN_ESTIMATES = (
    (  # example model, seed 20240117
        ("0x1.861d092f7bc11p-1", "0x1.4b5b339fb4756p-9"),
        ("0x1.491030bd196a6p-1", "0x1.314ab7cfffe2bp-9"),
        ("0x1.ccaee9a7e6346p-2", "0x1.e43db20c691cdp-10"),
        ("0x1.861d092f7bc11p-1", "0x1.4b5b339fb4756p-9"),
        ("0x1.46c4bef8a5274p-1", "0x1.266c29b4a401dp-9"),
        ("0x1.b48802f0ff9d2p-2", "0x1.b520bc3d9c215p-10"),
        ("0x1.6c60ec354a3f0p-2", "0x1.87d3437243cd9p-10"),
    ),
    (  # M > L
        ("0x1.c5c7063b43f53p-1", "0x1.0a7d63bc2ea8cp-9"),
        ("0x1.a22079ccdf5dep-1", "0x1.fab605014ec79p-10"),
        ("0x1.4905d9c03c238p-1", "0x1.b3aecfefafa3dp-10"),
        ("0x1.c1aa99a9dd9f5p-1", "0x1.03ec4d9dd7131p-9"),
        ("0x1.95b72c5963e7dp-1", "0x1.e0a3807f4f9e6p-10"),
        ("0x1.46633fe6455c7p-1", "0x1.af4ea0b313e37p-10"),
        ("0x1.2be15a7cfd06dp-1", "0x1.a6789e03f058fp-10"),
    ),
    (  # L > M
        ("0x1.aba4da30eececp-1", "0x1.24f10a12a2bf4p-9"),
        ("0x1.6986df528f8f7p-1", "0x1.00fb24f3d9a32p-9"),
        ("0x1.3e1b599cf8217p-2", "0x1.d8fb1cbe24292p-11"),
        ("0x1.98bdff318938ap-1", "0x1.0dae497c1248fp-9"),
        ("0x1.470db11fd6577p-1", "0x1.afe2998fbc6b8p-10"),
        ("0x1.12fe0ff5f423dp-2", "0x1.6ccbdb1bacd97p-11"),
        ("0x1.981de5a56987dp-6", "0x1.32365255847bcp-14"),
    ),
    (  # rank-deficient
        ("0x1.ad0ce5d9f28d0p-1", "0x1.27dcebc1f0cebp-9"),
        ("0x1.838056cf8b434p-1", "0x1.1b4eb99b9e20dp-9"),
        ("0x1.14c3e58ad9f31p-1", "0x1.c1b480d55955ap-10"),
        ("0x1.a8daeef796a2bp-1", "0x1.1f1e143e9b035p-9"),
        ("0x1.6d63c94280975p-1", "0x1.fd09fcaa2b4b0p-10"),
        ("0x1.02027a96b70dfp-1", "0x1.a7f21750a4386p-10"),
        ("0x1.bd0a4d79147cfp-2", "0x1.989b28840506fp-10"),
    ),
    (  # pure-noise component
        ("0x1.af69056be35efp-1", "0x1.281df090c9778p-9"),
        ("0x1.86f83cc1d79e2p-1", "0x1.1b714bc7434a0p-9"),
        ("0x1.49c8e212edd2cp-1", "0x1.01e4b693bac20p-9"),
        ("0x1.af69056be35efp-1", "0x1.281df090c9778p-9"),
        ("0x1.85b551d64b348p-1", "0x1.167bd0f5196a1p-9"),
        ("0x1.3d92141f9fa87p-1", "0x1.ebc17804d6f58p-10"),
        ("0x1.250595f95820bp-1", "0x1.d953fcdb18d0bp-10"),
    ),
    (  # |A|^2 / s2 near 1e10
        ("0x1.7d1c116203a0dp-1", "0x1.435b1ed880b55p-9"),
        ("0x1.0dda8ebb24159p-1", "0x1.c865024b3b1e7p-10"),
        ("0x1.0eb36e8b492cap-3", "0x1.cc4788323c9d8p-12"),
        ("0x1.6910d075a83d8p-1", "0x1.23968b8983c83p-9"),
        ("0x1.ff2066b7ff65fp-2", "0x1.9cae861be6028p-10"),
        ("0x1.005ee0f7d4156p-3", "0x1.9eec343502a0cp-12"),
        ("0x1.cb77c40a5c134p-33", "0x1.894a1f2001cb2p-41"),
    ),
)


def test_estimates_match_the_frozen_table():
    cases = [(example_model(), 20240117)] + [(m, 90 + i) for i, m in enumerate(_special_models())]
    for (model, seed), want in zip(cases, FROZEN_ESTIMATES, strict=True):
        run = mc_estimates(model, 100_000, seed,
                           ce_rates=VERIFY_RATES, idrf_rates=VERIFY_RATES, mmse=True)
        got = [(e.mean.hex(), e.stderr.hex()) for e in _flat(run)]
        assert got == list(want), (model, seed)
        assert all(e.n_samples == 100_000 and e.seed == seed for e in _flat(run))


def test_single_estimate_calls_match_the_joint_run():
    rng = np.random.default_rng(4242)
    models = [random_model(rng) for _ in range(196)] + _special_models()
    assert any(m.M > m.L for m in models) and any(m.L > m.M for m in models)
    assert any(m.gram.rank < min(m.L, m.M) for m in models)
    for i, model in enumerate(models):
        n = 1 + (i % 2) * 999
        run = mc_estimates(model, n, i, ce_rates=FUSED_RATES, idrf_rates=FUSED_RATES, mmse=True)
        assert len(run.ce) == len(run.idrf) == len(FUSED_RATES)
        for r, ce, idrf in zip(FUSED_RATES, run.ce, run.idrf):
            assert ce == mc_ce(model, r, n, i), ("ce", i, r)
            assert idrf == mc_idrf(model, r, n, i), ("idrf", i, r)
        assert run.mmse == mc_mmse(model, n, i), ("mmse", i)


_TWO_PROCESS_RUN = """
import numpy as np
from cedrf.linalg import Matrix
from cedrf.oracle import mc_estimates
from cedrf.spectral import ObservationModel
a = np.random.default_rng(77).uniform(-2.0, 2.0, size=(5, 4))
rates = (0.5, 3.0)
run = mc_estimates(ObservationModel(Matrix(a), 0.1), 70_000, 5,
                   ce_rates=rates, idrf_rates=rates, mmse=True)
print([(e.mean.hex(), e.stderr.hex()) for e in (*run.ce, *run.idrf, run.mmse)])
"""


def test_two_processes_give_identical_bits():
    src = str(Path(cedrf.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        path_dirs = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
        proc = subprocess.run([sys.executable, "-c", _TWO_PROCESS_RUN],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("0x") == 10


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
    # runs inside each pinv, once for the estimate covariance and once for
    # the model's basis, which the first CE map builds
    model = random_model(np.random.default_rng(12))
    calls = {"pinv": 0, "sym_eig": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counted(s, name=name, real=real):
            calls[name] += 1
            return real(s)

        monkeypatch.setattr(linalg, name, counted)
    _check_monte_carlo(model, 1000, 5)
    assert calls == {"pinv": 4, "sym_eig": 6}


@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_oracles_accept_scale_twins(c):
    # (cA, c^2 s2) has the curves of (A, s2); the oracle covariances scale
    # by c^2, far from the absolute symmetry tolerance
    rng = np.random.default_rng(5150)
    rates = (0.5, 1.0, 3.0)
    for i in range(8):
        base = random_model(rng)
        twin = ObservationModel(Matrix(c * base.A.data), c * c * base.sigma2)
        for r in (0.0, *rates, 8.0):
            assert abs(ce_matrix_form(twin, r) - drf.ce_drf(twin, r)) < 1e-9
        got = mc_estimates(twin, 3000, i, ce_rates=rates, idrf_rates=rates, mmse=True)
        want = mc_estimates(base, 3000, i, ce_rates=rates, idrf_rates=rates, mmse=True)
        for g, w in zip((*got.ce, *got.idrf, got.mmse), (*want.ce, *want.idrf, want.mmse)):
            assert abs(g.mean - w.mean) < 1e-9
