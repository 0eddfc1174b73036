
import contextlib
import ctypes
import dataclasses
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fingerprint
import mp_reference
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
from cedrf import cli, drf, linalg, oracle, waterfill
from cedrf.cli import _random_verify_model
from cedrf.linalg import Matrix
from cedrf.oracle import (
    _ce_grid,
    _maps,
    InvalidSampleCount,
    ce_matrix_form,
    ce_matrix_forms,
    ce_matrix_parts,
    mc_ce,
    mc_estimates,
    mc_idrf,
    mc_mmse,
)
from cedrf.spectral import ObservationModel, Spectrum


def _count_full_svds(monkeypatch, values_only=None):
    """Patch ``np.linalg.svd`` to record the shape of each call that builds singular vectors.

    Given a list ``values_only``, also append to it the shape of each call that does not.
    """
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        elif values_only is not None:
            values_only.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_parts_reuse_the_model_basis(monkeypatch):
    # the basis is the cached SVD's U: built on the first read, once, and
    # every later call, the optimal-scheme and floor maps included, reuses it;
    # each call's test channel adds its one stacked SVD, of its one rate
    model = random_model(np.random.default_rng(12))
    calls = _count_full_svds(monkeypatch)
    assert "svd" not in vars(model)
    for n, r in enumerate((0.0, 0.5, 2.0), start=1):
        assert ce_matrix_parts(model, r).basis is model.basis
        assert calls == [(model.L, model.M)] + [(1, model.L, model.M)] * n
    mc_estimates(model, 10, 1, idrf_rates=(1.0,), mmse=True)
    assert len(calls) == 4


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
    assert ce_matrix_form(m, 0.0) == 1.0


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


def _wide_column_models(n):
    """Dense models, L and M in 1..5, each column scaled by 10^U(-6, 6), s2 = 10^U(-12, 4).

    Columns far below the others give singular values down to about
    1e-12 s_1, where the channel's rounding, about eps s_1, is not small
    beside them.
    """
    rng = np.random.default_rng(11)
    for _ in range(n):
        l_dim, m = (int(v) for v in rng.integers(1, 6, size=2))
        a = rng.standard_normal((l_dim, m)) * 10.0 ** rng.uniform(-6.0, 6.0, size=m)
        yield ObservationModel(Matrix(a), 10.0 ** rng.uniform(-12.0, 4.0))


def _channel_rounding(model, parts):
    """Per rate, the first-order move of ``d_ce`` by the rounding of ``parts.channel`` along ``V``.

    Row ``k`` of the channel ``diag(g) U^T A`` is exactly ``g_k s_k v_k^T``,
    ``s_k^2`` the gram's value.  Computed, its part along ``v_k`` is
    ``g_k (s_k + e_k)``, ``e_k`` of about ``eps s_1``.  The whitened row has
    ``q_k^2 = a_k / (1 - a_k)``, ``a_k = g_k lam_k / (lam_k + s2)``, and adds
    ``1 / (1 + q_k^2)`` to ``M d_ce``, so ``e_k`` moves ``d_ce`` by
    ``-(2/M) a_k (1 - a_k) e_k / s_k``; this sums the magnitudes.
    """
    k = model.gram.rank
    s = np.sqrt(model.gram.values[:k])
    gain = parts.gain[:, :k]
    a = gain * (s * s / model.observation.values[:k])
    along = (parts.channel[:, :k] * model.svd[2].T).sum(axis=-1)
    e = np.divide(along, gain, out=np.zeros_like(gain), where=gain > 0.0) - s  # a is 0 where gain is
    return 2.0 / model.M * (a * (1.0 - a) * np.abs(e) / s).sum(axis=-1)


def test_ce_oracles_match_the_closed_form_on_wide_column_models():
    # The closed form is within a few ulps of its 60-digit value; the map
    # moment misses it by the channel's rounding, up to 5.4e-11 (model 175,
    # R = 30: s_2 = 4e-9 s_1), to first order and within 4.2e-13 of it.  The
    # matrix form adds the rounding of the whitened channel's SVD, 3.1e-12.
    rates = (0.5, 3.0, 10.0, 30.0, 60.0)
    for i, model in enumerate(_wide_column_models(300)):
        assert model.gram.rank == min(model.L, model.M), i  # no component is dropped
        parts = _ce_grid(model, rates)
        tol = 1e-12 + _channel_rounding(model, parts)
        for r, t, b in zip(rates, tol, _maps(model, parts), strict=True):
            want = drf.ce_drf(model, r)
            ref = mp_reference.ce_drf(model.gram.values, model.sigma2, model.M, r)
            assert abs(want - ref) <= 2e-15, (i, r)
            assert abs(ce_matrix_form(model, r) - want) < 1e-9, (i, r)
            assert abs(np.sum(b * b) / model.M - want) <= t, (i, r)


def test_idrf_matches_the_60_digit_reference_on_wide_column_models():
    # 1 - (C_k - k theta) / M sums terms of size at most 1, so the closed form is within
    # a few ulps of 1 of its 60-digit value (2.5e-16 at worst here), whatever the floor
    for i, model in enumerate(_wide_column_models(300)):
        for r in (0.5, 3.0, 10.0, 30.0, 60.0):
            want = mp_reference.idrf(model.gram.values, model.sigma2, model.M, r)
            assert abs(drf.idrf(model, r) - want) <= 2e-15, (i, r)


def _grid_models():
    """The fingerprint's seeded models, ``A = 0``, wide-column models and a rank-deficient one."""
    models = [ObservationModel(Matrix(d["A"]), d["sigma2"])
              for d in fingerprint.models(np.random.default_rng(15))]
    models.append(ObservationModel(Matrix(np.zeros((3, 2))), 0.5))
    models += list(_wide_column_models(40))
    models.append(rank_deficient_model(np.random.default_rng(78)))
    return models


def _grid(model):
    """Rate 0, each observation threshold +- 1 ulp, 40 and 1e4."""
    rates = [0.0]
    for t in model.observation.thresholds[:-1]:
        rates += [max(0.0, math.nextafter(t, -math.inf)), math.nextafter(t, math.inf)]
    return rates + [40.0, 1e4]


def test_matrix_forms_are_the_one_rate_forms_bit_for_bit():
    models = _grid_models()
    assert any(m.gram.rank == 0 for m in models)
    assert any(m.gram.rank < min(m.L, m.M) for m in models if m.gram.rank)
    for i, model in enumerate(models):
        grid = _grid(model)
        got = ce_matrix_forms(model, grid)
        want = [ce_matrix_form(model, r) for r in grid]
        assert [v.hex() for v in got] == [v.hex() for v in want], i
        # any order, and a grid that repeats a rate
        assert ce_matrix_forms(model, grid[::-1] + grid[:1]) == want[::-1] + want[:1], i
    assert ce_matrix_forms(models[0], []) == []


def test_estimates_on_rate_grids_are_the_one_rate_estimates_bit_for_bit():
    for i, model in enumerate(_grid_models()):
        grid = _grid(model)
        ce_rates, idrf_rates = tuple(grid[:3]), tuple(grid[-3:])
        run = mc_estimates(model, 500, i, ce_rates=ce_rates, idrf_rates=idrf_rates)
        for r, est in zip(ce_rates, run.ce, strict=True):
            assert est == mc_ce(model, r, 500, i), ("ce", i, r)
        for r, est in zip(idrf_rates, run.idrf, strict=True):
            assert est == mc_idrf(model, r, 500, i), ("idrf", i, r)


def test_inactive_gains_are_exactly_zero():
    # at a threshold the count leaves the next component out, while theta may
    # round a hair below its value: (v - theta) / v would give it a gain of
    # about 1e-16.  1e-9 bits above each threshold, where every water level
    # here has moved by at least 1e-10 relative, each active component has a
    # positive gain; at a threshold itself the one just reached may not
    offset, hairs = 1e-9, 0
    for i, model in enumerate(_grid_models()):
        for spectrum in (model.observation, model.conditional):
            finite = [t for t in spectrum.thresholds if math.isfinite(t)]
            rates = np.array(finite + [t + offset for t in finite])
            k, theta, _ = waterfill._levels(spectrum, rates)
            gain = oracle._gains(spectrum, rates)[0]
            assert all(np.all(g[n:] == 0.0) for g, n in zip(gain, k.tolist(), strict=True)), i
            assert all(np.all(g[:n] > 0.0) for g, n in
                       zip(gain[len(finite):], k[len(finite):].tolist(), strict=True)), i
            v = spectrum.values[:spectrum.rank]
            hairs += sum(n < v.size and t < v[n] for n, t in zip(k.tolist(), theta.tolist()))
        finite = model.observation.thresholds[:-1].tolist()
        for r in finite + [t + offset for t in finite]:
            gain = ce_matrix_parts(model, r).gain
            assert np.all(gain[waterfill.active_count(model.observation, r):] == 0.0), (i, r)
        finite = [t for t in model.conditional.thresholds.tolist() if math.isfinite(t)]
        rates = finite + [t + offset for t in finite]
        # the optimal maps' noise columns, one per conditional component
        noise = _maps(model, idrf_rates=rates)[:, :, model.M:model.M + model.conditional.rank]
        for j, (r, cols) in enumerate(zip(rates, noise, strict=True)):
            k = waterfill.active_count(model.conditional, r)
            assert np.all(cols[:, k:] == 0.0), (i, r)
            if j >= len(finite):
                assert np.all(np.any(cols[:, :k] != 0.0, axis=0)), (i, r)
    assert hairs > 0  # the count, not v > theta, decides somewhere


@pytest.mark.parametrize("values", [(3.0, 1.0, 0.25), (2.0, 2.0, 1e-300, 0.0, 0.0), (0.0, 0.0)],
                         ids=["full rank", "rank deficient", "rank 0"])
def test_the_floor_is_the_channel_at_infinite_rate(values):
    # the estimation floor's map is the optimal scheme's at R = inf: every
    # component active, theta 0, so gain exactly 1 and distortion exactly 0,
    # and no warning (pytest turns a RuntimeWarning into an error)
    spectrum = Spectrum(values)
    gain, dist = oracle._gains(spectrum, np.array([np.inf]))
    assert gain.shape == dist.shape == (1, spectrum.rank)
    assert np.all(gain == 1.0) and np.all(dist == 0.0)
    assert not np.any(np.signbit(dist))


def test_conditional_rank_below_the_gram_rank(tmp_path):
    # lam = (1e-300, 1e-308) at s2 = 1e20: lam / (lam + s2) keeps the first
    # value, as a subnormal, and the second underflows to 0, so the optimal
    # scheme has one component where A has two.  Only the positive values,
    # and the basis columns that match them, enter a gain
    model = ObservationModel(Matrix(np.diag([1e-150, 1e-154])), 1e20)
    assert (model.gram.rank, model.conditional.rank) == (2, 1)
    rates = (0.0, *VERIFY_RATES, 40.0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": model.A.data.tolist(), "sigma2": model.sigma2}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = mc_estimates(model, 1000, 5, ce_rates=rates, idrf_rates=rates, mmse=True)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(path), "--samples", "1000"]) == 0
    want = [*(drf.ce_drf(model, r) for r in rates), *(drf.idrf(model, r) for r in rates),
            model.mmse_floor]
    for est, target in zip(_flat(run), want, strict=True):
        assert math.isfinite(est.mean) and math.isfinite(est.stderr), (est, target)
        assert _within_ci(est, target), (est, target)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.inf, math.nan])
def test_grids_reject_an_invalid_rate_as_the_one_rate_calls_do(bad):
    # the public entry points check the rates; the test channel they build checks none
    model = example_model()
    with pytest.raises(ValueError) as one:
        ce_matrix_form(model, bad)
    assert str(one.value) == f"rate must be a finite non-negative real, got {bad!r}"
    for call in (lambda: ce_matrix_forms(model, [0.5, bad, 1.0]),
                 lambda: ce_matrix_parts(model, bad),
                 lambda: mc_estimates(model, 10, 1, ce_rates=(0.5, bad)),
                 lambda: mc_estimates(model, 10, 1, ce_rates=(0.5,), idrf_rates=(1.0, bad))):
        with pytest.raises(ValueError) as grid:
            call()
        assert type(grid.value) is type(one.value) and str(grid.value) == str(one.value)


def test_matrix_form_at_high_snr_matches_60_digits():
    # (M - tr(E P)) / M cancels down to the floor, about 1e-12 here; the
    # singular-value sum has no cancellation
    assert float(mp_reference.ce_drf((20.0, 0.5), 1.0, 2, 1.0)) == pytest.approx(CE_AT_1, rel=1e-15)
    model = ObservationModel(Matrix(np.diag([2.0, math.sqrt(2.0), 1.0])), 1e-12)
    for r in range(1, 61):
        want = mp_reference.ce_drf(model.gram.values, model.sigma2, model.M, r)
        assert abs(ce_matrix_form(model, r) - want) <= 1e-13 * want, r


def test_decoder_is_the_pseudoinverse_form():
    # Woodbury: V diag(s / (1 + s^2)) U^T D^{-1/2} = P^T (P P^T + D)^+, with the
    # pseudoinverse's zero rows and columns where the gain is 0; there D^{-1/2}
    # is 0, so E's columns are exactly 0
    rng = np.random.default_rng(1)
    rates = (0.0, 0.5, 3.0, 12.0)
    for i in range(300):
        model = _random_verify_model(rng)
        for r, e in zip(rates, _ce_grid(model, rates).decoder, strict=True):
            p = ce_matrix_parts(model, r)
            cov = p.channel @ p.channel.T + np.diag(p.noise_cov)
            want = p.channel.T @ linalg.pinv((cov + cov.T) / 2.0)
            assert np.max(np.abs(e - want)) <= 1e-12, (i, r)
            assert np.all(e[:, p.noise_cov == 0.0] == 0.0), (i, r)


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
    a = mc_ce(model, 1.0, 70_000, seed=123)
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


@pytest.mark.parametrize("a, sigma2, ce", [([[1.0]], 1e-310, 1e-310),
                                           ([[1e150, 0.0], [0.0, 1.0]], 1e-300, 0.5)])
def test_mc_ce_where_the_whitened_channel_squared_overflows(a, sigma2, ce):
    # at R = 600 the whitened channel's s exceeds sqrt(DBL_MAX): its decoder weight
    # s/(1+s^2) must be 1/s there, not 0, or the CE map's error is about 1.  The first
    # model's weights w are subnormal, so its stderr needs w @ w without underflow
    model = ObservationModel(Matrix(a), sigma2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = drf.ce_drf(model, 600.0)
        est = mc_ce(model, 600.0, 1000, seed=1)
    assert closed == pytest.approx(ce, rel=1e-12)
    assert abs(est.mean - closed) <= 4.0 * est.stderr
    assert est.stderr > 0.0


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


def _weights(b):
    """``B B^T``'s ``M`` eigenvalues ``mu``, descending, as ``oracle._estimates`` forms them: the
    squared singular values of ``B``."""
    s = np.linalg.svd(b, compute_uv=False)
    return s * s


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


# (mean, stderr) as float.hex of verify's run at 100 000 samples: CE then
# the optimal scheme at VERIFY_RATES, then the floor.  Each estimate's mean
# is w @ S / n, with w = _weights(B) / M and S one chisquare(n, size=M) draw
# of the SFC64 stream seeded by the row's seed, and its stderr the exact
# sqrt(2 w @ w / n).  Like every Monte Carlo bit they hold for one platform,
# BLAS build and OpenBLAS core (the kernel it picks at run time), the ones
# named below.  On another core the test compares to within rounding instead.
# `PYTHONPATH=src python tests/test_oracle.py` prints that line, the core
# and the table as they stand here, to regenerate all three, and writes to
# stderr how many entries moved from the table below and by how many ulps.
# Frozen with numpy 2.4.6 and scipy-openblas 0.3.31.188.0 (SkylakeX core) on x86_64.
FROZEN_CORE = "SkylakeX"
FROZEN_ESTIMATES = (
    (  # example model, seed 20240117
        ("0x1.87315a9575abep-1", "0x1.4adc114c9a3f6p-9"),
        ("0x1.4a996e837e6ffp-1", "0x1.30d05e4ed375fp-9"),
        ("0x1.d0b115619a435p-2", "0x1.e468edd0d99fdp-10"),
        ("0x1.87315a9575abbp-1", "0x1.4adc114c9a3f5p-9"),
        ("0x1.4863deab9aac1p-1", "0x1.263da610167b3p-9"),
        ("0x1.b842a2fc53a9bp-2", "0x1.b5922b327dfc9p-10"),
        ("0x1.701644de086f7p-2", "0x1.87c6de02a08e7p-10"),
    ),
    (  # M > L
        ("0x1.c5b56af402dd7p-1", "0x1.09dfd7da75a7fp-9"),
        ("0x1.a23b6a08c907bp-1", "0x1.f9b1115a59a30p-10"),
        ("0x1.49550e5eb7c22p-1", "0x1.b33ff6a695557p-10"),
        ("0x1.c1879f56775e1p-1", "0x1.04378d60275e8p-9"),
        ("0x1.95a5359452dbap-1", "0x1.e155935f64313p-10"),
        ("0x1.462f81419a372p-1", "0x1.af7d063449023p-10"),
        ("0x1.2bb2efd0b2003p-1", "0x1.a63fa1e0570e3p-10"),
    ),
    (  # L > M
        ("0x1.ab0df5c652f83p-1", "0x1.2565d85bf3717p-9"),
        ("0x1.68bfc8066b724p-1", "0x1.01296f7c12d12p-9"),
        ("0x1.3de87025cc44dp-2", "0x1.d99089072b2abp-11"),
        ("0x1.986ce1672d1e1p-1", "0x1.0e5c3b1953b60p-9"),
        ("0x1.46cb2c2c2b602p-1", "0x1.b0ae1612a1fc6p-10"),
        ("0x1.12bb9c166c378p-2", "0x1.6c1b825d267eap-11"),
        ("0x1.975eafae2f2bfp-6", "0x1.30a7c7916faedp-14"),
    ),
    (  # rank-deficient
        ("0x1.ae84ff38b785fp-1", "0x1.260d7a189fdaap-9"),
        ("0x1.84d4dd71f8befp-1", "0x1.1963443e5bb7ap-9"),
        ("0x1.15353839f92e9p-1", "0x1.bf1a3c7f3ac3ap-10"),
        ("0x1.aa74efcd3fe06p-1", "0x1.1de28cd8ffb4cp-9"),
        ("0x1.6ed59e4ce4338p-1", "0x1.faf5edb965bb3p-10"),
        ("0x1.02e0ef8a9543bp-1", "0x1.a53066da21845p-10"),
        ("0x1.bdc96a93a092dp-2", "0x1.955b6a2ea1061p-10"),
    ),
    (  # pure-noise component
        ("0x1.adff8f9032235p-1", "0x1.26ab5502c9f28p-9"),
        ("0x1.858931778bea7p-1", "0x1.19e82aff92e62p-9"),
        ("0x1.483f0645d9755p-1", "0x1.ffed72a0b0252p-10"),
        ("0x1.adff8f9032234p-1", "0x1.26ab5502c9f28p-9"),
        ("0x1.84269a120531ap-1", "0x1.14de771b17f20p-9"),
        ("0x1.3c3a280686d40p-1", "0x1.e7a792ef9c99fp-10"),
        ("0x1.2440acad5cb4cp-1", "0x1.d607707e6df71p-10"),
    ),
    (  # |A|^2 / s2 near 1e10
        ("0x1.7d04482e036dfp-1", "0x1.43968097efe9dp-9"),
        ("0x1.0d6b65129b5ebp-1", "0x1.c99f555edf51bp-10"),
        ("0x1.0d6b6517f78e0p-3", "0x1.c99f5567fa0b2p-12"),
        ("0x1.69ddcb9bed015p-1", "0x1.2515fdabf0f09p-9"),
        ("0x1.ffc1a067e7423p-2", "0x1.9e7c6e44aba4bp-10"),
        ("0x1.ffc1a0729fa08p-4", "0x1.9e7c6e4d5b3b6p-12"),
        ("0x1.c9650ca1c679cp-33", "0x1.84742cb9c509bp-41"),
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


def test_sums_are_one_sfc64_chisquare_draw():
    # the floor map of A = diag(a) is B = [I - f, -sqrt(s2) e] with e = diag(a / (a^2 + s2))
    # and f = e A, so B B^T = diag(s2 / (a^2 + s2)).  Its weights are those, descending,
    # and the i-th pairs with the i-th chi-square sum: diag(2, 1) lists them as
    # [0.2, 0.5] but its error is (0.5 S_0 + 0.2 S_1) / (2 n)
    seed = 17
    for n in (1, 70_000):
        for a, mu in (([2.0], [0.2]), ([2.0, 1.0], [0.5, 0.2])):
            model = ObservationModel(Matrix(np.diag(a)), 1.0)
            s = np.random.Generator(np.random.SFC64(seed)).chisquare(n, size=len(a))
            est = mc_mmse(model, n, seed)
            assert est.mean == pytest.approx(np.array(mu) / len(a) @ s / n, rel=1e-12), (n, a)
            # exact: one sample's variance is 2 sum mu^2 / M^2
            sd = np.sqrt(2.0 * np.sum(np.square(mu)) / n) / len(a)
            assert est.stderr == pytest.approx(sd, rel=1e-12), (n, a)


def _calibration_models():
    """One weight, two unequal ones, and M > L with zero and unit weights."""
    rng = np.random.default_rng(2024)
    return [pytest.param(model_from_eigs([2.0], 1.0), id="1x1"),
            pytest.param(example_model(), id="example"),
            pytest.param(ObservationModel(Matrix(rng.uniform(-2, 2, size=(2, 4))), 1.0), id="2x4")]


@pytest.mark.parametrize("n", [1, 10, 100_000])
@pytest.mark.parametrize("model", _calibration_models())
def test_estimates_are_calibrated_over_seeds(model, n):
    # z = (mean - closed form) / stderr over N seeds, for one estimate of each
    # scheme.  Each z has mean 0 and variance 1 exactly, so the mean of N of
    # them has sd 1 / sqrt(N): 4 sds are 0.089 at N = 2000.  With w = mu / M,
    # z's excess kurtosis is kappa = 12 sum w^4 / (n (sum w^2)^2), so the
    # sample variance of N of them has sd sqrt(kappa / N + 2 / (N - 1)), and
    # their sample sd about half that: its 4-sd band around 1 is 0.063 wide
    # on each side at kappa = 0 (n = 1e5) and 0.167 at kappa = 12 (one
    # weight, n = 1).
    n_seeds, r = 2000, 1.0
    want = np.array([drf.ce_drf(model, r), drf.idrf(model, r), model.mmse_floor])
    z = np.array([[(e.mean - t) / e.stderr for e, t in zip(_flat(run), want, strict=True)]
                  for run in (mc_estimates(model, n, seed, ce_rates=(r,), idrf_rates=(r,), mmse=True)
                              for seed in range(n_seeds))])
    for j, b in enumerate(_maps(model, _ce_grid(model, (r,)), (r,), mmse=True)):
        w = _weights(b) / model.M
        kappa = 12.0 * np.sum(w ** 4) / (n * np.sum(w * w) ** 2)
        where = (model.L, model.M, n, j)
        assert abs(z[:, j].mean()) <= 4.0 / np.sqrt(n_seeds), where
        band = 2.0 * np.sqrt(kappa / n_seeds + 2.0 / (n_seeds - 1))
        assert abs(z[:, j].std(ddof=1) - 1.0) <= band, where


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
    # weights must be the M eigenvalues of B B^T, descending, each estimate's
    # mean is w @ S / n with w = mu / M, bit for bit, and its samples mu @ g^2 / M
    # have mean |B|_F^2 / M and variance 2 |B B^T|_F^2 / M^2, which gives the
    # standard error at any n, 1 included
    rng = np.random.default_rng(4242)
    models = [random_model(rng) for _ in range(196)] + [m for _, m in _special_models()]
    assert any(m.M > m.L for m in models) and any(m.L > m.M for m in models)
    assert any(m.gram.rank < min(m.L, m.M) for m in models)
    assert any(m.L == m.M == 1 for m in models)
    assert any((m.L, m.M, m.sigma2) == (4, 2, 1e-9) for m in models)
    n = 1000
    for i, model in enumerate(models):
        maps = _maps(model, _ce_grid(model, FUSED_RATES), FUSED_RATES, mmse=True)
        run = mc_estimates(model, n, i, ce_rates=FUSED_RATES, idrf_rates=FUSED_RATES, mmse=True)
        one = mc_estimates(model, 1, i, ce_rates=FUSED_RATES, idrf_rates=FUSED_RATES, mmse=True)
        chi2 = np.random.Generator(np.random.SFC64(i)).chisquare(n, size=model.M)
        for j, (b, est, est1) in enumerate(zip(maps, _flat(run), _flat(one), strict=True)):
            mu = _weights(b)
            assert est.mean == float(mu / model.M @ chi2) / n, (i, j)
            cov = b @ b.T
            assert mu.shape == (model.M,) and np.all(mu >= 0.0), (i, j)
            err = np.abs(mu[::-1] - np.linalg.eigvalsh(cov))
            assert np.max(err) <= 1e-13 * max(1.0, np.sum(b * b)), (i, j)
            sd = np.sqrt(2.0 * np.sum(cov * cov) / n) / model.M
            assert abs(est.mean - np.sum(b * b) / model.M) <= 5.0 * sd, (i, j)
            assert est.stderr == pytest.approx(sd, rel=1e-12, abs=0.0), (i, j)
            assert est1.stderr == pytest.approx(sd * np.sqrt(n), rel=1e-12, abs=0.0), (i, j)


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
    with pytest.raises(InvalidSampleCount, match="n_samples must be an integer"):
        mc_estimates(model, 10.5, 1, mmse=True)  # not a chi-square of 10.5 degrees of freedom
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        mc_estimates(model, 10, -1, mmse=True)
    assert mc_estimates(model, np.int64(10), np.uint32(1), mmse=True) == mc_estimates(
        model, 10, 1, mmse=True)
    with pytest.raises(ValueError, match="rate"):
        mc_estimates(model, 10, 1, ce_rates=(1.0,), idrf_rates=(-1.0,))
    empty = mc_estimates(model, 10, 1)
    assert empty.ce == empty.idrf == () and empty.mmse is None


@pytest.mark.parametrize("rates", [(0.0,), (0.5, 1.0)])
def test_mc_estimates_takes_numpy_rate_arrays(rates):
    # a one-rate array at R = 0 is falsy and a longer one has no truth value:
    # both must give the estimates of the same rates as a tuple, bit for bit
    model = example_model()
    got, want = (mc_estimates(model, 1000, 5, ce_rates=r, idrf_rates=r)
                 for r in (np.array(rates), rates))
    assert len(got.ce) == len(got.idrf) == len(rates)
    bits = [(e.mean.hex(), e.stderr.hex()) for e in (*want.ce, *want.idrf)]
    assert [(e.mean.hex(), e.stderr.hex()) for e in (*got.ce, *got.idrf)] == bits


@pytest.mark.parametrize("index", [1, slice(0, 2), [0, 2]])
def test_rows_are_read_only_for_every_index(index):
    # a list index makes copies, which must be marked read-only as the views are
    grid = _ce_grid(example_model(), (0.5, 1.0, 2.0))
    rows = oracle._rows(grid, index)
    for field in dataclasses.fields(rows):
        value = getattr(rows, field.name)
        assert not value.flags.writeable, field.name
        if field.name != "basis":
            assert np.array_equal(value, getattr(grid, field.name)[index]), field.name


def test_verify_evaluates_each_model_once(tmp_path, monkeypatch):
    # one verify model, whole: the closed forms on one rate grid (one
    # water-filling per spectrum), one CE test channel (one more) and the
    # optimal-scheme maps (one more); no sweep, no pinv and no eigensolver.
    # The basis and the optimal-scheme and floor maps share one full SVD of
    # A, and the whole CE test channel, whatever rows are active at each
    # rate, one full stacked SVD, which gives both the matrix form and the
    # Monte Carlo CE decoders.  The seven Monte Carlo maps take their
    # weights from one values-only stacked SVD, each map padded to
    # M x (M + L); the only 2-D values-only SVD is the model's own, of A.
    # Alone, the matrix form takes one full stacked SVD per grid
    calls, grid_sizes, values_only = {}, [], []
    for module, name in ((linalg, "pinv"), (linalg, "sym_eig"), (waterfill, "_levels"),
                         (drf, "sweep"), (oracle, "_ce_grid")):
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            if name == "_ce_grid":
                grid_sizes.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    svds = _count_full_svds(monkeypatch, values_only)
    grid = (0.0, *VERIFY_RATES, 12.0)
    path = tmp_path / "model.json"
    example = example_model()
    path.write_text(json.dumps({"A": example.A.data.tolist(), "sigma2": example.sigma2}))
    for source, model in ((["--random", "1", "--seed", "12"],
                           _random_verify_model(np.random.default_rng(12))),
                          ([str(path)], example)):
        calls.clear()
        grid_sizes.clear()
        svds.clear()
        values_only.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", *source, "--samples", "1000"]) == 0
        assert calls == {"_levels": 4, "_ce_grid": 1}
        assert svds == [(model.L, model.M), (*grid_sizes, model.L, model.M)]
        assert values_only == [(model.L, model.M), (7, model.M, model.M + model.L)]
        svds.clear()
        values_only.clear()
        for rates in (grid, grid[1:2]):
            ce_matrix_forms(model, rates)
        # the basis of this model object, once, then one stacked SVD per grid
        assert svds == [(model.L, model.M), (len(grid), model.L, model.M), (1, model.L, model.M)]
        assert values_only == []


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
    maps = _maps(model, _ce_grid(model, VERIFY_RATES), VERIFY_RATES, mmse=True)
    n = len(VERIFY_RATES)
    for r, b_ce, b_idrf in zip(VERIFY_RATES, maps[:n], maps[n:2 * n], strict=True):
        assert abs(np.sum(b_ce * b_ce) / model.M - drf.ce_drf(model, r)) <= 1e-14, r
        assert abs(np.sum(b_idrf * b_idrf) / model.M - drf.idrf(model, r)) <= 1e-14, r
    floor_map = maps[-1]
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


@pytest.mark.parametrize("c", [1e-150, 1e-100, 1e100, 1e150])
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


def frozen_drift(runs) -> str:
    """How many :data:`FROZEN_ESTIMATES` entries ``runs`` move, and the largest move in ulps."""
    got = np.array([float.fromhex(h) for row in frozen_rows(runs) for pair in row for h in pair])
    want = np.array([float.fromhex(h) for row in FROZEN_ESTIMATES for pair in row for h in pair])
    if got.shape != want.shape:
        return f"{got.size} entries against {want.size} in FROZEN_ESTIMATES"
    # every entry is a positive double, so its bits count the doubles below it
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    return (f"{np.count_nonzero(ulps)} of {ulps.size} FROZEN_ESTIMATES entries differ,"
            f" by at most {ulps.max()} ulps")


if __name__ == "__main__":
    runs = frozen_runs()
    print(provenance())
    print(format_frozen_table(runs))
    print(frozen_drift(runs), file=sys.stderr)
