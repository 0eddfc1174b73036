"""Independent checks of the closed-form distortion-rate expressions.

Two routes that never touch the spectral formulas directly:

* an explicit matrix construction of the compress-and-estimate test
  channel (representation = channel @ source + noise) whose normalized
  estimation error is evaluated through a pseudoinverse trace, and
* seeded Monte Carlo simulation of the forward test channels for the
  compress-and-estimate scheme, the optimal scheme, and the raw
  estimation floor.

Monte Carlo runs are deterministic: samples are drawn in fixed-size
chunks, each chunk from its own counter-based Philox substream derived
from ``(seed, chunk_index)``, and accumulated in chunk order, so a given
``(model, R, n_samples, seed)`` always produces the same estimate
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, waterfill
from .linalg import Matrix
from .spectral import ObservationModel

#: Samples per RNG substream; part of the determinism contract.
_CHUNK = 1 << 16


class InvalidSampleCount(ValueError):
    """Monte Carlo needs at least one sample."""


@dataclass(frozen=True)
class CEMatrixParts:
    """Matrices of the compress-and-estimate test channel at one rate.

    ``basis``: orthogonal eigenbasis of the observation covariance,
    columns in descending-eigenvalue order with deterministic signs.
    ``gain``: diagonal per-component forward gains ``1 - 2^{-2 r_l}``;
    zero exactly for inactive components.
    ``distortion``: diagonal per-component distortions ``min(lam_l + s2, theta)``.
    ``channel``: effective source-to-representation matrix ``gain @ basis^T @ A``.
    ``noise_cov``: diagonal covariance ``s2 gain^2 + gain distortion`` of the
    effective additive noise.
    """

    basis: Matrix
    gain: Matrix
    distortion: Matrix
    channel: Matrix
    noise_cov: Matrix


@dataclass(frozen=True)
class McEstimate:
    """Empirical normalized distortion with its standard error."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def ce_matrix_parts(model: ObservationModel, R: float) -> CEMatrixParts:
    """Build the test-channel matrices for compress-and-estimate at rate ``R``."""
    u = model.basis.data
    alloc = waterfill.rate_allocation(model.observation, R)
    gain = np.array([1.0 - 2.0 ** (-2.0 * r) for r in alloc.rates])
    dist = np.array(alloc.distortions)
    channel = (gain[:, None] * u.T) @ model.A.data
    noise = model.sigma2 * gain * gain + gain * dist
    return CEMatrixParts(
        basis=model.basis,
        gain=Matrix(np.diag(gain)),
        distortion=Matrix(np.diag(dist)),
        channel=Matrix(channel),
        noise_cov=Matrix(np.diag(noise)),
    )


def ce_matrix_form(model: ObservationModel, R: float) -> float:
    """Compress-and-estimate distortion evaluated as a pseudoinverse trace.

    ``(1/M) tr(I - P^T (P P^T + noise_cov)^+ P)`` with ``P`` the channel
    matrix.  Must agree with the spectral closed form for every model and
    rate; this is the primary cross-check of the piecewise formulas.
    """
    parts = ce_matrix_parts(model, R)
    p = parts.channel.data
    cov = p @ p.T + parts.noise_cov.data
    w = linalg.pinv(Matrix((cov + cov.T) / 2.0)).data
    return (model.M - float(np.trace(p.T @ w @ p))) / model.M


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
