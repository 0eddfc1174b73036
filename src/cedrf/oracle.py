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
bit-for-bit.  Within a chunk of ``m`` samples the substream is read in a
fixed order, which is part of that contract: the source ``x`` (m x M),
then the observation noise (m x L), then one quantization-noise draw
(m x L) shared by every rate.  Compress-and-estimate uses all of it; the
optimal scheme with ``k`` active components uses its first ``m * k``
values in C order, as an (m, k) array.  :func:`mc_estimates` evaluates
any set of estimates from one such pass; each one is bit-identical to a
separate :func:`mc_ce`, :func:`mc_idrf` or :func:`mc_mmse` call, and to
the single-estimate samplers these functions replaced.  Both routes use
one compress-and-estimate decoder; every matrix here is a plain array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, waterfill
from .spectral import ObservationModel

#: Samples per RNG substream; part of the determinism contract.
_CHUNK = 1 << 16


class InvalidSampleCount(ValueError):
    """Monte Carlo needs at least one sample."""


@dataclass(frozen=True)
class CEMatrixParts:
    """Read-only arrays of the compress-and-estimate test channel at one rate.

    ``basis``: orthogonal eigenbasis of the observation covariance,
    columns in descending-eigenvalue order with deterministic signs.
    ``gain``: 1-D per-component forward gains ``1 - 2^{-2 r_l}``;
    zero exactly for inactive components.
    ``distortion``: 1-D per-component distortions ``min(lam_l + s2, theta)``.
    ``channel``: source-to-representation matrix ``diag(gain) @ basis^T @ A``.
    ``noise_cov``: 1-D diagonal ``s2 gain^2 + gain distortion`` of the
    effective additive noise's covariance.
    """

    basis: np.ndarray
    gain: np.ndarray
    distortion: np.ndarray
    channel: np.ndarray
    noise_cov: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Empirical normalized distortion with its standard error."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def ce_matrix_parts(model: ObservationModel, R: float) -> CEMatrixParts:
    """Build the test-channel matrices for compress-and-estimate at rate ``R``."""
    u = model.basis
    alloc = waterfill.rate_allocation(model.observation, R)
    gain = np.array([1.0 - 2.0 ** (-2.0 * r) for r in alloc.rates])
    dist = np.array(alloc.distortions)
    channel = (gain[:, None] * u.T) @ model.A.data
    noise = model.sigma2 * gain * gain + gain * dist
    for a in (gain, dist, channel, noise):
        a.flags.writeable = False
    return CEMatrixParts(basis=u, gain=gain, distortion=dist, channel=channel, noise_cov=noise)


def _lmmse(p: np.ndarray, noise_var: np.ndarray) -> np.ndarray:
    """Linear MMSE estimator ``P^T (P P^T + diag(noise_var))^+`` of ``x`` from ``P x + n``."""
    cov = p @ p.T + np.diag(noise_var)
    return p.T @ linalg.pinv((cov + cov.T) / 2.0)


def ce_matrix_form(model: ObservationModel, R: float) -> float:
    """Compress-and-estimate distortion evaluated as a pseudoinverse trace.

    ``(1/M) tr(I - P^T (P P^T + diag(noise_cov))^+ P)`` with ``P`` the
    channel matrix.  Must agree with the spectral closed form for every
    model and rate; this is the primary cross-check of the piecewise
    formulas.
    """
    parts = ce_matrix_parts(model, R)
    decoder = _lmmse(parts.channel, parts.noise_cov)
    return (model.M - float(np.trace(decoder @ parts.channel))) / model.M


class _Moments:
    """Running sums of one estimate's per-sample normalized squared errors."""

    def __init__(self) -> None:
        self.s1 = 0.0
        self.s2 = 0.0

    def add(self, err: np.ndarray) -> None:
        """Fold in one chunk of errors ``x - x_hat`` (m x M); squares ``err`` in place."""
        err *= err
        d = err.sum(axis=1) / err.shape[1]
        self.s1 += float(d.sum())
        self.s2 += float((d * d).sum())

    def estimate(self, n_samples: int, seed: int) -> McEstimate:
        mean = self.s1 / n_samples
        if n_samples > 1:
            var = max(0.0, (self.s2 - n_samples * mean * mean) / (n_samples - 1))
            stderr = math.sqrt(var / n_samples)
        else:
            stderr = 0.0
        return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


@dataclass(frozen=True)
class McEstimates:
    """The estimates of one :func:`mc_estimates` run, each in the order requested."""

    ce: tuple[McEstimate, ...]
    idrf: tuple[McEstimate, ...]
    mmse: McEstimate | None


def _idrf_channel(model: ObservationModel, R: float):
    """Active components, their gains and quantization deviations in the optimal scheme."""
    lam = model.conditional.values
    k, theta = waterfill.water_level(model.conditional, R)
    active = [l for l in range(k) if lam[l] > theta]
    gains = np.array([(lam[l] - theta) / lam[l] for l in active])
    q_sd = np.array([math.sqrt(theta * lam[l] / (lam[l] - theta)) for l in active])
    return active, gains, q_sd


def mc_estimates(model: ObservationModel, n_samples: int, seed: int, *,
                 ce_rates: Sequence[float] = (), idrf_rates: Sequence[float] = (),
                 mmse: bool = False) -> McEstimates:
    """Simulate any mix of the three schemes on one set of draws per chunk.

    Returns compress-and-estimate estimates at ``ce_rates``, optimal-scheme
    estimates at ``idrf_rates`` and, if ``mmse``, the estimation floor.
    The draws follow the per-chunk order in the module docstring, so each
    estimate is the one :func:`mc_ce`, :func:`mc_idrf` or :func:`mc_mmse`
    returns for the same arguments, bit for bit.
    """
    for R in (*ce_rates, *idrf_rates):
        waterfill._check_rate(R)
    if n_samples < 1:
        raise InvalidSampleCount(f"n_samples must be >= 1, got {n_samples}")
    a = model.A.data
    M, L = model.M, model.L
    sig = math.sqrt(model.sigma2)
    # gain_ut is a matmul, not a row scaling: that gives F order, and z @ gain_ut.T rounds by layout
    ce = [(p.channel, np.diag(p.gain) @ p.basis.T, np.sqrt(p.gain * p.distortion),
           _lmmse(p.channel, p.noise_cov))
          for p in (ce_matrix_parts(model, R) for R in ce_rates)]
    idrf = [_idrf_channel(model, R) for R in idrf_rates]
    if idrf or mmse:
        estimator = _lmmse(a, np.full(L, model.sigma2))  # M x L
    if idrf:
        # rounding can leave est_cov asymmetric by about eps |A|^2 / s2, above SYMMETRY_ATOL
        est_cov = estimator @ a
        _, v = linalg.sym_eig((est_cov + est_cov.T) / 2.0)  # M x M, by descending spectrum
    ce_sums = [_Moments() for _ in ce]
    idrf_sums = [_Moments() for _ in idrf]
    mmse_sums = _Moments()

    for chunk_index, done in enumerate(range(0, n_samples, _CHUNK)):
        m = min(_CHUNK, n_samples - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        )
        x = rng.standard_normal((m, M))
        z = rng.standard_normal((m, L))
        z *= sig
        q = rng.standard_normal((m, L)) if ce or idrf else None
        # Each (m, M) intermediate is dropped before the next one is formed,
        # so peak memory stays near that of a single-estimate pass.
        if idrf or mmse:
            estimate = (x @ a.T + z) @ estimator.T
            if mmse:
                mmse_sums.add(x - estimate)
            comp = estimate @ v if idrf else None
            del estimate
            for sums, (active, gains, q_sd) in zip(idrf_sums, idrf):
                recon = np.zeros((m, M))
                if active:
                    q_k = q.reshape(-1)[: m * len(active)].reshape(m, len(active))
                    recon[:, active] = gains * (comp[:, active] + q_k * q_sd)
                sums.add(x - recon @ v.T)
            del comp
        for sums, (p, gain_ut, q_scale, ce_estimator) in zip(ce_sums, ce):
            y_hat = x @ p.T + z @ gain_ut.T + q * q_scale
            sums.add(x - y_hat @ ce_estimator.T)

    return McEstimates(
        ce=tuple(s.estimate(n_samples, seed) for s in ce_sums),
        idrf=tuple(s.estimate(n_samples, seed) for s in idrf_sums),
        mmse=mmse_sums.estimate(n_samples, seed) if mmse else None,
    )


def mc_ce(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate compress-and-estimate coding and estimate its distortion.

    Per sample: draw the source, push it through the forward test channel
    (channel matrix plus rotated observation noise plus quantization
    noise), estimate the source linearly from the representation, and
    accumulate the normalized squared error.
    """
    return mc_estimates(model, n_samples, seed, ce_rates=(R,)).ce[0]


def mc_idrf(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate the optimal scheme: estimate first, then compress the estimate.

    Per sample: form the observation, compute the source estimate, rotate
    it into the eigenbasis of its covariance, pass each active component
    through the scalar Gaussian forward test channel at the water-filling
    distortion, reconstruct inactive components as zero, and rotate back.
    Components sitting exactly at the water level reconstruct as zero,
    avoiding the degenerate zero-gain channel.
    """
    return mc_estimates(model, n_samples, seed, idrf_rates=(R,)).idrf[0]


def mc_mmse(model: ObservationModel, n_samples: int, seed: int) -> McEstimate:
    """Estimate the no-compression error floor by direct simulation."""
    return mc_estimates(model, n_samples, seed, mmse=True).mmse
