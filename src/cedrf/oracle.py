"""Independent checks of the closed-form distortion-rate expressions.

Two routes that never touch the spectral formulas directly:

* an explicit matrix construction of the compress-and-estimate test
  channel (representation = channel @ source + noise) whose normalized
  estimation error is evaluated from one SVD of the whitened channel, and
* seeded Monte Carlo simulation of the forward test channels for the
  compress-and-estimate scheme, the optimal scheme, and the raw
  estimation floor.

Monte Carlo runs are deterministic: one SFC64 stream, seeded through
``SeedSequence(seed)``, draws every run's sums, so a given
``(model, R, n_samples, seed)`` always produces the same estimate
bit-for-bit.

Every scheme's error is linear in the source ``x`` (M entries), the
observation noise before scaling by ``sigma`` (L entries) and one
quantization-noise draw ``q`` (L entries) shared by every rate, all
standard normal.  :func:`_maps` defines each estimate by that linear map
``B``: compress-and-estimate reads all of ``q``, the optimal scheme with
``k`` active components its first ``k`` entries, and the estimation floor
none.  The error ``B w`` is Gaussian with covariance ``B B^T``, so its
squared norm has the law of the weighted chi-square ``sum_i mu_i g_i^2``,
with ``mu`` the eigenvalues of ``B B^T`` and ``g`` standard normal.  The
simulation samples that law: :func:`_weights` takes ``mu`` once per map,
before sampling, as the squared singular values of ``B``, which needs no
eigensolver and no ``B B^T``.  Over ``n`` samples the estimate needs only
``S_i``, the sum of ``n`` independent ``g_i^2``, and each ``S_i`` is an
independent chi-square with ``n`` degrees of freedom, so a run draws the
``M`` sums ``S`` directly, whatever ``n`` is.  With ``v = mu / M``, an
estimate's mean is ``v @ S / n``, and its standard error is exact,
``sqrt(2 v @ v / n)``: one sample's variance is ``2 v @ v``.  So the draw
tests only ``mu`` and the generator.  :func:`mc_estimates` evaluates any
set of estimates from one ``S``; each one is bit-identical to a separate
:func:`mc_ce`, :func:`mc_idrf` or :func:`mc_mmse` call.

The optimal scheme's and the floor's maps come from the model's cached SVD
of ``A``, which gives the MMSE estimator and the eigenbasis of its
estimate's covariance at once.  The compress-and-estimate maps and the
matrix form share :func:`_ce_grid`, which builds the test channel for a
whole rate grid, and one SVD of the channel whitened by its noise per
rate, with no rank cut-off of its own: the channel uses the model's ``A``,
whose singular values past ``gram.rank`` are 0, as the other maps do.  The
rates that share a set of active rows share one stacked SVD
(:func:`_whitened_svds`).  Every grid takes one water-filling call per
spectrum, and the one-rate functions (:func:`ce_matrix_parts`,
:func:`ce_matrix_form`) are that grid at one rate, so they equal it bit for
bit.  Every matrix here is a plain array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import waterfill
from .spectral import ObservationModel

class InvalidSampleCount(ValueError):
    """Monte Carlo needs at least one sample."""


@dataclass(frozen=True)
class CEMatrixParts:
    """Read-only arrays of the compress-and-estimate test channel at one rate.

    On a rate grid every array but ``basis`` gains a leading axis, one
    entry per rate.
    ``basis``: orthogonal eigenbasis of the observation covariance,
    columns in descending-eigenvalue order with deterministic signs.
    ``gain``: 1-D per-component forward gains ``1 - 2^{-2 r_l}``;
    zero exactly for inactive components.
    ``distortion``: 1-D per-component distortions ``min(lam_l + s2, theta)``.
    ``channel``: source-to-representation matrix ``diag(gain) @ basis^T @ A``,
    with rows past ``gram.rank`` 0, as the model's ``A`` has them.
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
    """Simulated normalized distortion with its exact standard error."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def _ce_grid(model: ObservationModel, rates: Sequence[float]) -> CEMatrixParts:
    """The test-channel matrices of compress-and-estimate on a rate grid, stacked.

    Active counts and water levels come from one :func:`waterfill._levels`
    call over the grid, the per-component rates from
    :func:`waterfill._allocations`, every power of two from ``pow``.
    """
    R = np.array([waterfill._check_rate(r) for r in rates], dtype=float)
    obs = model.observation
    k, theta = waterfill._levels(obs, R)
    r, dist = waterfill._allocations(obs, R, k, theta)
    gain = 1.0 - waterfill._exp2(-2.0 * r)
    u = model.basis
    channel = (gain[:, :, None] * u.T) @ model.A.data
    channel[:, model.gram.rank:] = 0.0  # the model's A: its singular values past the rank are 0
    noise = model.sigma2 * gain * gain + gain * dist
    for a in (gain, dist, channel, noise):
        a.flags.writeable = False
    return CEMatrixParts(basis=u, gain=gain, distortion=dist, channel=channel, noise_cov=noise)


def ce_matrix_parts(model: ObservationModel, R: float) -> CEMatrixParts:
    """Build the test-channel matrices for compress-and-estimate at rate ``R``.

    The grid of :func:`_ce_grid` at one rate.
    """
    p = _ce_grid(model, (R,))
    return CEMatrixParts(basis=p.basis, gain=p.gain[0], distortion=p.distortion[0],
                         channel=p.channel[0], noise_cov=p.noise_cov[0])


def _whitened_svds(p: CEMatrixParts):
    """The SVD of each rate's whitened channel, one stacked SVD per set of active rows.

    ``p`` holds a rate grid.  The rows with ``noise_cov > 0`` are a rate's
    active ones; the others have gain and channel row 0 and carry nothing.
    Over the active rows, with ``D = diag(noise_cov)``, the whitened channel
    is ``Q = D^{-1/2} P``.  Yields ``(at, rows, scale, (u, s, vt))`` per set:
    the grid indices ``at`` that share the active rows ``rows``, their
    ``D^{-1/2}`` diagonals and the SVDs ``Q = U diag(s) V^T``, each stacked
    in the order of ``at``.
    """
    active = p.noise_cov > 0.0
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(active):
        groups.setdefault(row.tobytes(), []).append(i)
    for at in groups.values():
        rows = active[at[0]]
        scale = 1.0 / np.sqrt(p.noise_cov[at][:, rows])
        q = scale[:, :, None] * p.channel[at][:, rows]
        yield at, rows, scale, np.linalg.svd(q, full_matrices=False)


def _ce_decoders(p: CEMatrixParts) -> np.ndarray:
    """Linear MMSE decoder ``E`` of ``x`` from ``P x + n`` at each rate of a grid, stacked.

    ``n`` has covariance ``D = diag(noise_cov)``.  ``E`` is 0 on the
    inactive rows.  Over the others, with the SVD ``Q = U diag(s) V^T`` of
    :func:`_whitened_svds`, ``E = V diag(s / (1 + s^2)) U^T D^{-1/2}``, and
    ``I - E P = (I + Q^T Q)^{-1}``, whose eigenvalues are ``1 / (1 + s^2)``
    and ``M - len(s)`` ones.
    """
    n, L, M = p.channel.shape
    e = np.zeros((n, M, L))
    for at, rows, scale, (u, s, vt) in _whitened_svds(p):
        d = (vt.transpose(0, 2, 1) * (s / (1.0 + s * s))[:, None, :]) @ u.transpose(0, 2, 1)
        e[np.ix_(at, range(M), rows)] = d * scale[:, None, :]
    return e


def ce_matrix_forms(model: ObservationModel, rates: Sequence[float]) -> list[float]:
    """Compress-and-estimate distortions from the test channel's matrices on a rate grid.

    ``(1/M) tr(I - E P)`` with ``P`` the channel matrix and ``E`` the
    linear MMSE decoder of :func:`_ce_decoders`: ``(1/M) (sum 1 / (1 + s^2)
    + M - len(s))`` over the singular values ``s`` of the whitened channel,
    a sum of non-negative terms.  Must agree with the spectral closed form
    for every model and rate; this is the primary cross-check of the
    piecewise formulas.  The rates may come in any order.
    """
    p = _ce_grid(model, rates)
    d = np.empty(len(p.gain))
    for at, _, _, (_, s, _) in _whitened_svds(p):
        d[at] = (np.sum(1.0 / (1.0 + s * s), axis=-1) + (model.M - s.shape[-1])) / model.M
    return d.tolist()


def ce_matrix_form(model: ObservationModel, R: float) -> float:
    """Compress-and-estimate distortion from the test channel's matrices at rate ``R``.

    :func:`ce_matrix_forms` at one rate.
    """
    return ce_matrix_forms(model, (R,))[0]


@dataclass(frozen=True)
class McEstimates:
    """The estimates of one :func:`mc_estimates` run, each in the order requested."""

    ce: tuple[McEstimate, ...]
    idrf: tuple[McEstimate, ...]
    mmse: McEstimate | None


def _error_map(fx: np.ndarray, fz: np.ndarray, fq: np.ndarray) -> np.ndarray:
    """``[I - fx | -fz | -fq]``: ``[x; z; q]`` to the error of ``fx x + fz z + fq q``.

    ``fq`` acts on the leading ``fq.shape[1]`` entries of ``q``.
    """
    return np.hstack([np.eye(len(fx)) - fx, -fz, -fq])


def _ce_maps(model: ObservationModel, rates: Sequence[float]) -> list[np.ndarray]:
    """Compress-and-estimate at each rate of a grid.

    ``x_hat = E (P x + sigma diag(gain) U^T z + sqrt(gain dist) q)``.
    """
    p = _ce_grid(model, rates)
    sigma = math.sqrt(model.sigma2)
    return [_error_map(e @ channel, (sigma * e * gain) @ p.basis.T, e * np.sqrt(gain * dist))
            for e, gain, dist, channel in zip(_ce_decoders(p), p.gain, p.distortion, p.channel)]


def _idrf_map(model: ObservationModel, k: int, theta: float, fx: np.ndarray, fz: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """The optimal scheme on the estimate ``fx x + fz z``, with ``v`` its covariance's eigenbasis.

    ``k`` active components at water level ``theta``.  Each active component
    ``c`` passes through the scalar forward test channel
    ``g (c + q sqrt(theta lam / (lam - theta)))``, ``g = 1 - theta / lam``;
    the others, and any sitting exactly at the water level, reconstruct as zero.
    """
    lam = model.conditional.arrays[1][:k]
    lam = lam[lam > theta]  # a leading block, since lam is non-increasing
    g = (lam - theta) / lam
    v_a = v[:, :len(lam)]
    proj = (v_a * g) @ v_a.T
    return _error_map(proj @ fx, proj @ fz, v_a * np.sqrt(theta * g))


def _maps(model: ObservationModel, ce_rates: Sequence[float] = (),
          idrf_rates: Sequence[float] = (), mmse: bool = False) -> list[np.ndarray]:
    """The error maps ``B`` whose laws :func:`mc_estimates` samples: CE, optimal, floor."""
    maps = _ce_maps(model, ce_rates) if ce_rates else []
    if idrf_rates or mmse:
        # the MMSE estimate fx x + fz z, with E = V diag(s / (s^2 + s2)) U^T:
        # fx = E A, whose eigenbasis is V, and fz = sigma E
        u, s, v = model.svd
        obs = s * s + model.sigma2
        fx = (v * (s * s / obs)) @ v.T
        fz = (v * (math.sqrt(model.sigma2) * s / obs)) @ u[:, :s.size].T
    k, theta = waterfill._levels(model.conditional, np.array(idrf_rates, dtype=float))
    maps += [_idrf_map(model, n, t, fx, fz, v) for n, t in zip(k.tolist(), theta.tolist())]
    if mmse:
        maps.append(_error_map(fx, fz, np.zeros((model.M, 0))))
    return maps


def _weights(b: np.ndarray) -> np.ndarray:
    """``B B^T``'s ``M`` eigenvalues ``mu``, descending: ``|B w|^2`` has the law of ``mu @ g^2``."""
    s = np.linalg.svd(b, compute_uv=False)
    return s * s


def mc_estimates(model: ObservationModel, n_samples: int, seed: int, *,
                 ce_rates: Sequence[float] = (), idrf_rates: Sequence[float] = (),
                 mmse: bool = False) -> McEstimates:
    """Simulate any mix of the three schemes on one draw of ``M`` chi-square sums.

    Returns compress-and-estimate estimates at ``ce_rates``, optimal-scheme
    estimates at ``idrf_rates`` and, if ``mmse``, the estimation floor.
    ``S`` is one ``chisquare(n_samples, size=M)`` draw from
    ``Generator(SFC64(seed))``: ``S_i`` has the law of the sum of
    ``n_samples`` squared standard normals.  With ``w = mu / M``, ``mu`` the
    eigenvalues of an estimate's ``B B^T``, its mean is ``w @ S / n`` and its
    standard error ``sqrt(2 w @ w / n)``.  Neither ``w`` nor ``S`` depends
    on what else is requested, so each estimate is the one :func:`mc_ce`,
    :func:`mc_idrf` or :func:`mc_mmse` returns for the same arguments, bit
    for bit.
    """
    for R in (*ce_rates, *idrf_rates):
        waterfill._check_rate(R)
    if n_samples < 1:
        raise InvalidSampleCount(f"n_samples must be >= 1, got {n_samples}")
    M = model.M
    weights = [_weights(b) / M for b in _maps(model, ce_rates, idrf_rates, mmse)]
    chi2 = np.random.Generator(np.random.SFC64(seed)).chisquare(n_samples, size=M)
    est = [McEstimate(mean=float(w @ chi2) / n_samples,
                      stderr=math.sqrt(2.0 * float(w @ w) / n_samples),
                      n_samples=n_samples, seed=seed)
           for w in weights]
    n_ce, n_idrf = len(ce_rates), len(idrf_rates)
    return McEstimates(
        ce=tuple(est[:n_ce]),
        idrf=tuple(est[n_ce:n_ce + n_idrf]),
        mmse=est[-1] if mmse else None,
    )


def mc_ce(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate compress-and-estimate coding and estimate its distortion.

    Each sample's error has the law of this: draw the source, push it
    through the forward test channel (channel matrix plus rotated
    observation noise plus quantization noise), and estimate the source
    linearly from the representation.  The normalized squared errors are
    accumulated.
    """
    return mc_estimates(model, n_samples, seed, ce_rates=(R,)).ce[0]


def mc_idrf(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate the optimal scheme: estimate first, then compress the estimate.

    Each sample's error has the law of this: form the observation, compute
    the source estimate, rotate it into the eigenbasis of its covariance,
    pass each active component through the scalar Gaussian forward test
    channel at the water-filling distortion, reconstruct inactive
    components as zero, and rotate back.
    Components sitting exactly at the water level reconstruct as zero,
    avoiding the degenerate zero-gain channel.
    """
    return mc_estimates(model, n_samples, seed, idrf_rates=(R,)).idrf[0]


def mc_mmse(model: ObservationModel, n_samples: int, seed: int) -> McEstimate:
    """Estimate the no-compression error floor by sampling its error law."""
    return mc_estimates(model, n_samples, seed, mmse=True).mmse
