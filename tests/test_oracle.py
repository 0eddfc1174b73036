
import ctypes
import os
import platform
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
    _CHUNK,
    _maps,
    _weights,
    InvalidSampleCount,
    ce_matrix_form,
    ce_matrix_parts,
    mc_ce,
    mc_estimates,
    mc_idrf,
    mc_mmse,
)
from cedrf.spectral import ObservationModel


def _count_full_svds(monkeypatch):
    """Patch ``np.linalg.svd`` to record each call that builds singular vectors."""
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_parts_reuse_the_model_basis(monkeypatch):
    # the basis is the cached SVD's U: built on the first read, once, and
    # every later call, the optimal-scheme and floor maps included, reuses it
    model = random_model(np.random.default_rng(12))
    calls = _count_full_svds(monkeypatch)
    assert "svd" not in vars(model)
    for r in (0.0, 0.5, 2.0):
        assert ce_matrix_parts(model, r).basis is model.basis
        assert calls == [(model.L, model.M)]
    mc_estimates(model, 10, 1, idrf_rates=(1.0,), mmse=True)
    assert len(calls) == 1


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
    """``(label, model)`` pairs."""
    rng = np.random.default_rng(2024)
    return [
        ("M > L", ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0)),
        ("L > M", ObservationModel(Matrix(rng.uniform(-2, 2, size=(5, 3))), 0.1)),
        ("rank-deficient", rank_deficient_model(rng)),
        ("pure-noise component", model_from_eigs([20.0, 0.5, 0.0], 1.0)),
        # the estimate covariance's eigenvalues tie to about 1e-10
        ("|A|^2 / s2 near 1e10", ObservationModel(Matrix(rng.normal(size=(4, 2))), 1e-9)),
    ]


def _flat(run):
    return (*run.ce, *run.idrf, run.mmse)


def frozen_cases():
    """``(label, model, seed)`` of each :data:`FROZEN_ESTIMATES` row, in its order."""
    cases = [("example model, seed 20240117", example_model(), 20240117)]
    return cases + [(label, m, 90 + i) for i, (label, m) in enumerate(_special_models())]


def frozen_run(model, seed):
    return mc_estimates(model, 100_000, seed, ce_rates=VERIFY_RATES,
                        idrf_rates=VERIFY_RATES, mmse=True)


def frozen_runs():
    """``(label, model, seed, run)`` of each :data:`FROZEN_ESTIMATES` row, in its order."""
    return [(label, model, seed, frozen_run(model, seed)) for label, model, seed in frozen_cases()]


def frozen_rows(runs):
    """Each run's ``(mean, stderr)`` pairs as ``float.hex``: the rows of :data:`FROZEN_ESTIMATES`."""
    return [tuple((e.mean.hex(), e.stderr.hex()) for e in _flat(run)) for *_, run in runs]


def _openblas_core() -> str:
    """The core numpy's bundled OpenBLAS picked at run time, or "" if it has none."""
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            get = getattr(ctypes.CDLL(str(lib)), name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return ""


def provenance() -> str:
    """The build line of :data:`FROZEN_ESTIMATES`' comment: numpy, its BLAS and core, the machine.

    ``np.show_config`` names only the BLAS build; the core comes from the
    bundled OpenBLAS itself, and the frozen bits depend on it.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas_core()
    core = f"{core} core" if core else "core unknown: name it by hand"
    return (f"# Frozen with numpy {np.__version__} and {blas['name']} {blas['version']}"
            f" ({core}) on {platform.machine()}.")


def format_frozen_table(runs) -> str:
    """``FROZEN_CORE`` and ``FROZEN_ESTIMATES`` as they stand in this file, for a re-freeze."""
    lines = [f'FROZEN_CORE = "{_openblas_core()}"', "FROZEN_ESTIMATES = ("]
    for (label, *_), row in zip(runs, frozen_rows(runs)):
        lines.append(f"    (  # {label}")
        lines += [f'        ("{mean}", "{stderr}"),' for mean, stderr in row]
        lines.append("    ),")
    return "\n".join(lines + [")"])


# (mean, stderr) as float.hex of verify's run at 100 000 samples (two
# chunks): CE then the optimal scheme at VERIFY_RATES, then the floor.
# Each estimate's samples are the weighted chi-squares (mu / M) @ g^2, with
# mu = _weights(B) and g each SFC64 chunk stream's (M, m) normal draw; like
# every Monte Carlo bit they hold for one platform, BLAS build and OpenBLAS
# core (the kernel it picks at run time), the ones named below.  On
# another core the test compares to within rounding instead.
# `PYTHONPATH=src python tests/test_oracle.py` prints that line, the core
# and the table as they stand here, to regenerate all three.
# Frozen with numpy 2.4.6 and scipy-openblas 0.3.31.188.0 (SkylakeX core) on x86_64.
FROZEN_CORE = "SkylakeX"
FROZEN_ESTIMATES = (
    (  # example model, seed 20240117
        ("0x1.8531e5b0c1b64p-1", "0x1.499058dc29167p-9"),
        ("0x1.4847978b54b25p-1", "0x1.2ff57644e87a1p-9"),
        ("0x1.cc7477e27b926p-2", "0x1.e377a3ef0b24fp-10"),
        ("0x1.8531e5b0c1b62p-1", "0x1.499058dc29167p-9"),
        ("0x1.4644e0b9e45dap-1", "0x1.25540eefe6250p-9"),
        ("0x1.b49727f9cb2a7p-2", "0x1.b49998d53293fp-10"),
        ("0x1.6c9b9f7bcbfa2p-2", "0x1.870de1a7d5fcdp-10"),
    ),
    (  # M > L
        ("0x1.c539cf2206e79p-1", "0x1.09fab75060a65p-9"),
        ("0x1.a1de60379c0c7p-1", "0x1.f9f2c601a17abp-10"),
        ("0x1.498b26225beabp-1", "0x1.b3837a636849fp-10"),
        ("0x1.c12f5eb4fbec7p-1", "0x1.0456a6829486bp-9"),
        ("0x1.9585036c9f5a0p-1", "0x1.e194939dde2b3p-10"),
        ("0x1.4674ceef9cbe1p-1", "0x1.afb8147ea055dp-10"),
        ("0x1.2c1a12c5f134dp-1", "0x1.a677626105188p-10"),
    ),
    (  # L > M
        ("0x1.ad553b4cd4688p-1", "0x1.284e58e069f0ep-9"),
        ("0x1.6adddbe316657p-1", "0x1.03f32698670a5p-9"),
        ("0x1.400df45bb0a6ap-2", "0x1.defb847abe462p-11"),
        ("0x1.9acf8281fcd0cp-1", "0x1.10918fb1cd3a3p-9"),
        ("0x1.48b46635c5ac1p-1", "0x1.b43b0a8aed82ap-10"),
        ("0x1.145aa182257ecp-2", "0x1.6f30a05c09b93p-11"),
        ("0x1.9a238b0caf4cap-6", "0x1.3426972ff471bp-14"),
    ),
    (  # rank-deficient
        ("0x1.ab90cf742038ep-1", "0x1.24a8773c22bd6p-9"),
        ("0x1.82419aaa0e767p-1", "0x1.18107a005e03dp-9"),
        ("0x1.13549121e58cdp-1", "0x1.bc91789c21d2dp-10"),
        ("0x1.a7725048db080p-1", "0x1.1c74f32606e69p-9"),
        ("0x1.6c3e3ec887343p-1", "0x1.f8495c0676a41p-10"),
        ("0x1.010bc1829bc46p-1", "0x1.a2985325a8357p-10"),
        ("0x1.baa084d69a935p-2", "0x1.92b581182680cp-10"),
    ),
    (  # pure-noise component
        ("0x1.ae3e945f0e783p-1", "0x1.25c4b91144a99p-9"),
        ("0x1.857e41f412e16p-1", "0x1.18f79fa01c78dp-9"),
        ("0x1.47d7c030ec567p-1", "0x1.fe2c79bb67042p-10"),
        ("0x1.ae3e945f0e782p-1", "0x1.25c4b91144a99p-9"),
        ("0x1.841f91cf31d67p-1", "0x1.13ec8554bf450p-9"),
        ("0x1.3bca02397ee91p-1", "0x1.e5dc19b9189a0p-10"),
        ("0x1.23ad7d079899fp-1", "0x1.d454958cc41c1p-10"),
    ),
    (  # |A|^2 / s2 near 1e10
        ("0x1.7dae0c58c6010p-1", "0x1.41d347409bcd6p-9"),
        ("0x1.0de3700d2f83ap-1", "0x1.c72134d64053fp-10"),
        ("0x1.0de370128e166p-3", "0x1.c72134df4e5b6p-12"),
        ("0x1.6ad9dd0132fc0p-1", "0x1.241a5369d296dp-9"),
        ("0x1.00930d604b9cdp-1", "0x1.9d1885c7adfc0p-10"),
        ("0x1.00930d65aa2f6p-3", "0x1.9d1885d050ad2p-12"),
        ("0x1.ca30d8c0fca60p-33", "0x1.82567fc447aecp-41"),
    ),
)


def test_estimates_match_the_frozen_table():
    runs = frozen_runs()
    rows, core = frozen_rows(runs), _openblas_core()
    if core == FROZEN_CORE:
        assert rows == list(FROZEN_ESTIMATES)
    else:  # another core rounds differently: the tolerance of the cross-kernel test below
        def floats(row):
            return [float.fromhex(h) for pair in row for h in pair]

        where = f"{core} core, frozen on {FROZEN_CORE}"
        assert len(rows) == len(FROZEN_ESTIMATES), where
        for got, want in zip(rows, FROZEN_ESTIMATES):
            assert floats(got) == pytest.approx(floats(want), rel=1e-12, abs=0.0), where
    assert all(e.n_samples == 100_000 and e.seed == seed
               for _, _, seed, run in runs for e in _flat(run))


def test_frozen_estimates_track_the_closed_forms():
    for _, model, _, run in frozen_runs():
        want = [*(drf.ce_drf(model, r) for r in VERIFY_RATES),
                *(drf.idrf(model, r) for r in VERIFY_RATES), model.mmse_floor]
        for est, target in zip(_flat(run), want, strict=True):
            assert _within_ci(est, target), (model, est, target)


def test_chunks_are_sfc64_substreams():
    # the floor map of A = diag(a) is B = [I - f, -sqrt(s2) e] with e = diag(a / (a^2 + s2))
    # and f = e A, so B B^T = diag(s2 / (a^2 + s2)).  Its weights are those, descending,
    # and row i of each chunk's (M, m) draw g pairs with the i-th: diag(2, 1) lists them
    # as [0.2, 0.5] but its error is (0.5 g_0^2 + 0.2 g_1^2) / 2
    seed, n = 17, _CHUNK + 5_000
    for a, mu in (([2.0], [0.2]), ([2.0, 1.0], [0.5, 0.2])):
        model = ObservationModel(Matrix(np.diag(a)), 1.0)
        g = []
        for c, m in enumerate((_CHUNK, n - _CHUNK)):
            bits = np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
            g.append(np.random.Generator(bits).standard_normal((len(a), m)))
        d = np.array(mu) @ np.concatenate(g, axis=1) ** 2 / len(a)
        est = mc_mmse(model, n, seed)
        assert est.mean == pytest.approx(d.mean(), rel=1e-12), a
        assert est.stderr == pytest.approx(d.std(ddof=1) / np.sqrt(n), rel=1e-9), a


def test_single_estimate_calls_match_the_joint_run():
    rng = np.random.default_rng(4242)
    models = [random_model(rng) for _ in range(196)] + [m for _, m in _special_models()]
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


def test_weights_reproduce_each_maps_law():
    # the models of test_single_estimate_calls_match_the_joint_run: each map's
    # weights must be the M eigenvalues of B B^T, descending, and each
    # estimate's samples mu @ g^2 / M have mean |B|_F^2 / M and variance
    # 2 |B B^T|_F^2 / M^2
    rng = np.random.default_rng(4242)
    models = [random_model(rng) for _ in range(196)] + [m for _, m in _special_models()]
    assert any(m.M > m.L for m in models) and any(m.L > m.M for m in models)
    assert any(m.gram.rank < min(m.L, m.M) for m in models)
    assert any(m.L == m.M == 1 for m in models)
    assert any((m.L, m.M, m.sigma2) == (4, 2, 1e-9) for m in models)
    n = 1000
    for i, model in enumerate(models):
        maps = _maps(model, FUSED_RATES, FUSED_RATES, mmse=True)
        run = mc_estimates(model, n, i, ce_rates=FUSED_RATES, idrf_rates=FUSED_RATES, mmse=True)
        for j, (b, est) in enumerate(zip(maps, _flat(run), strict=True)):
            mu = _weights(b)
            cov = b @ b.T
            assert mu.shape == (model.M,) and np.all(mu >= 0.0), (i, j)
            err = np.abs(mu[::-1] - np.linalg.eigvalsh(cov))
            assert np.max(err) <= 1e-13 * max(1.0, np.sum(b * b)), (i, j)
            sd = np.sqrt(2.0 * np.sum(cov * cov) / n) / model.M
            assert abs(est.mean - np.sum(b * b) / model.M) <= 5.0 * sd, (i, j)


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
    # one pinv per CE rate, for the CE decoder, each running one sym_eig;
    # the basis and the optimal-scheme and floor maps share one full SVD of A
    model = random_model(np.random.default_rng(12))
    calls = {"pinv": 0, "sym_eig": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counted(s, name=name, real=real):
            calls[name] += 1
            return real(s)

        monkeypatch.setattr(linalg, name, counted)
    svds = _count_full_svds(monkeypatch)
    _check_monte_carlo(model, 1000, 5)
    assert calls == {"pinv": 3, "sym_eig": 3}
    assert svds == [(model.L, model.M)]


def _moment_models():
    """``_special_models()`` plus 5x1 and 4x2 models with ``|A|^2 / s2`` near 1e10."""
    models = [m for _, m in _special_models()]
    for seed, shape in ((5, (5, 1)), (7, (4, 2))):
        a = np.random.default_rng(seed).normal(size=shape)
        models.append(ObservationModel(Matrix(a), 1e-9))
    return models


@pytest.mark.parametrize("model", _moment_models())
def test_maps_have_the_closed_forms_as_exact_moments(model):
    # each estimate's error is B w with w standard normal, so its exact mean is |B|_F^2 / M
    *idrf_maps, floor_map = _maps(model, idrf_rates=VERIFY_RATES, mmse=True)
    for r, b in zip(VERIFY_RATES, idrf_maps, strict=True):
        assert abs(np.sum(b * b) / model.M - drf.idrf(model, r)) <= 1e-14, r
    assert abs(np.sum(floor_map * floor_map) / model.M - model.mmse_floor) <= 1e-14


_KERNEL_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from test_oracle import frozen_cases, frozen_run
label, model, seed = frozen_cases()[-1]
assert label == "|A|^2 / s2 near 1e10", label
run = frozen_run(model, seed)
print(*(e.mean.hex() for e in (*run.ce, *run.idrf, run.mmse)))
"""


def test_ill_conditioned_row_does_not_depend_on_the_blas_kernel():
    # the frozen table's 4x2 |A|^2 / s2 ~ 1e10 row, under two OpenBLAS kernels;
    # the variable only selects a kernel in builds that dispatch at run time
    src = str(Path(cedrf.__file__).resolve().parents[1])
    rows = []
    for core in ("Haswell", "Sandybridge"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _KERNEL_RUN, str(Path(__file__).parent)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows.append([float.fromhex(h) for h in proc.stdout.split()])
    assert len(rows[0]) == len(rows[1]) == 7
    for a, b in zip(*rows):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


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


if __name__ == "__main__":
    print(provenance())
    print(format_frozen_table(frozen_runs()))
