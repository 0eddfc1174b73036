"""Reference Monte Carlo samplers: one chunk loop and one sampler per estimate.

These are the per-call ``mc_ce``/``mc_idrf``/``mc_mmse`` implementations
that predate the fused sampler in :mod:`cedrf.oracle`, kept verbatim so
tests can assert that every fused estimate equals them bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from cedrf import linalg, waterfill
from cedrf.linalg import Matrix
from cedrf.oracle import _CHUNK, InvalidSampleCount, McEstimate, ce_matrix_parts
from cedrf.spectral import ObservationModel


def _accumulate(n_samples: int, seed: int,
                sampler: Callable[[np.random.Generator, int], np.ndarray]) -> McEstimate:
    if n_samples < 1:
        raise InvalidSampleCount(f"n_samples must be >= 1, got {n_samples}")
    s1 = 0.0
    s2 = 0.0
    done = 0
    chunk_index = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        )
        d = sampler(rng, m)
        s1 += float(d.sum())
        s2 += float((d * d).sum())
        done += m
        chunk_index += 1
    mean = s1 / n_samples
    if n_samples > 1:
        var = max(0.0, (s2 - n_samples * mean * mean) / (n_samples - 1))
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = 0.0
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


def mc_ce(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate compress-and-estimate coding and estimate its distortion.

    Per sample: draw the source, push it through the forward test channel
    (channel matrix plus rotated observation noise plus quantization
    noise), estimate the source linearly from the representation, and
    accumulate the normalized squared error.
    """
    waterfill._check_rate(R)
    parts = ce_matrix_parts(model, R)
    p = parts.channel.data
    gain_ut = parts.gain.data @ parts.basis.data.T
    q_scale = np.sqrt(np.diag(parts.gain.data) * np.diag(parts.distortion.data))
    cov = p @ p.T + parts.noise_cov.data
    estimator = p.T @ linalg.pinv(Matrix((cov + cov.T) / 2.0)).data  # M x L
    sig = math.sqrt(model.sigma2)
    M, L = model.M, model.L

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.standard_normal((m, M))
        w = rng.standard_normal((m, L)) * sig
        q = rng.standard_normal((m, L))
        y_hat = x @ p.T + w @ gain_ut.T + q * q_scale
        err = x - y_hat @ estimator.T
        return (err * err).sum(axis=1) / M

    return _accumulate(n_samples, seed, sampler)


def mc_idrf(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate the optimal scheme: estimate first, then compress the estimate.

    Per sample: form the observation, compute the source estimate, rotate
    it into the eigenbasis of its covariance, pass each active component
    through the scalar Gaussian forward test channel at the water-filling
    distortion, reconstruct inactive components as zero, and rotate back.
    Components sitting exactly at the water level reconstruct as zero,
    avoiding the degenerate zero-gain channel.
    """
    waterfill._check_rate(R)
    a = model.A.data
    M, L = model.M, model.L
    obs_cov = a @ a.T + model.sigma2 * np.eye(L)
    estimator = a.T @ linalg.pinv(Matrix((obs_cov + obs_cov.T) / 2.0)).data  # M x L
    est_cov = estimator @ a
    _, vecs = linalg.sym_eig(Matrix((est_cov + est_cov.T) / 2.0))
    v = vecs.data  # M x M, columns aligned with descending estimate spectrum

    lam = list(model.conditional.values[:M]) + [0.0] * max(0, M - L)
    if model.conditional.rank > 0:
        k, theta = waterfill.water_level(model.conditional, R)
    else:
        k, theta = 0, 0.0
    active = [l for l in range(k) if lam[l] > theta]
    gains = np.array([(lam[l] - theta) / lam[l] for l in active])
    q_sd = np.array([math.sqrt(theta * lam[l] / (lam[l] - theta)) for l in active])
    sig = math.sqrt(model.sigma2)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.standard_normal((m, M))
        z = rng.standard_normal((m, L)) * sig
        estimate = (x @ a.T + z) @ estimator.T
        comp = estimate @ v
        recon = np.zeros((m, M))
        if active:
            q = rng.standard_normal((m, len(active)))
            recon[:, active] = gains * (comp[:, active] + q * q_sd)
        err = x - recon @ v.T
        return (err * err).sum(axis=1) / M

    return _accumulate(n_samples, seed, sampler)


def mc_mmse(model: ObservationModel, n_samples: int, seed: int) -> McEstimate:
    """Estimate the no-compression error floor by direct simulation."""
    a = model.A.data
    M, L = model.M, model.L
    obs_cov = a @ a.T + model.sigma2 * np.eye(L)
    estimator = a.T @ linalg.pinv(Matrix((obs_cov + obs_cov.T) / 2.0)).data
    sig = math.sqrt(model.sigma2)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.standard_normal((m, M))
        z = rng.standard_normal((m, L)) * sig
        err = x - (x @ a.T + z) @ estimator.T
        return (err * err).sum(axis=1) / M

    return _accumulate(n_samples, seed, sampler)
