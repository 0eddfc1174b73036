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
standard normal.  Both schemes end in the same reverse water-filling
forward test channel, :func:`_gains`: each active component of a spectrum
gets the gain ``1 - theta / v`` and the distortion ``min(v, theta)``.
Compress-and-estimate water-fills the observation spectrum and reads all
of ``q``; the optimal scheme water-fills the estimate's spectrum and, with
``k`` active components, reads the first ``k`` entries of ``q``; the floor
is the channel with gain 1 and distortion 0.  :func:`_maps` defines each
estimate by its linear map ``B``.  The error ``B w`` is Gaussian with
covariance ``B B^T``, so its squared norm has the law of the weighted
chi-square ``sum_i mu_i g_i^2``, with ``mu`` the eigenvalues of ``B B^T``
and ``g`` standard normal.  The simulation samples that law:
:func:`_weights` takes ``mu`` before sampling, as the squared singular
values of ``B``, which needs no eigensolver and no ``B B^T``.  Each map is
zero-padded to ``M x (M + 2L)``, which adds only zero singular values, so
a run's maps are one stacked array with one SVD.  Over ``n`` samples the
estimate needs only ``S_i``, the sum of ``n`` independent ``g_i^2``, and
each ``S_i`` is an independent chi-square with ``n`` degrees of freedom,
so a run draws the ``M`` sums ``S`` directly, whatever ``n`` is.  With
``v = mu / M``, an estimate's mean is ``v @ S / n``, and its standard
error is exact, ``sqrt(2 v @ v / n)``: one sample's variance is
``2 v @ v``.  So the draw tests only ``mu`` and the generator.
:func:`mc_estimates` evaluates any set of estimates from one ``S``; each
one is bit-identical to a separate :func:`mc_ce`, :func:`mc_idrf` or
:func:`mc_mmse` call.

The optimal scheme's and the floor's maps come from the model's cached SVD
of ``A``, which gives the MMSE estimator and the eigenbasis of its
estimate's covariance at once; a gain is formed only on the estimate
spectrum's positive values and their basis columns.  The
compress-and-estimate maps and the matrix form share :func:`_ce_grid`,
which builds the test channel for a whole rate grid, and the SVD of the
channel whitened by its noise, with no rank cut-off of its own: the
channel uses the model's ``A``, whose singular values past ``gram.rank``
are 0, as the other maps do.  The whitening keeps every rate's full
``L x M`` shape (:func:`_whitened`): a rate's inactive rows carry no
noise, get the weight 0 and become zero rows, which add only zero
singular values.  So a grid takes one stacked SVD, and the matrix form
only its singular values.  A rate's rows are the same bits in any grid
that holds it, so one channel can serve both (``verify`` builds one per
model, and :func:`_rows` takes the Monte Carlo rates' rows from it).
Every grid takes one :func:`waterfill._levels` call per spectrum, and the
one-rate functions (:func:`ce_matrix_parts`, :func:`ce_matrix_form`) are
that grid at one rate, so they equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import waterfill
from .spectral import ObservationModel, Spectrum

class InvalidSampleCount(ValueError):
    """Monte Carlo needs at least one sample."""


@dataclass(frozen=True)
class CEMatrixParts:
    """Read-only arrays of the compress-and-estimate test channel at one rate.

    On a rate grid every array but ``basis`` gains a leading axis, one
    entry per rate.
    ``basis``: orthogonal eigenbasis of the observation covariance,
    columns in descending-eigenvalue order with deterministic signs.
    ``gain``: 1-D per-component forward gains ``1 - theta / (lam_l + s2)``
    of :func:`_gains`; zero exactly for inactive components.
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


def _gains(spectrum: Spectrum, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse water-filling's forward test channel on a grid of valid rates, one row per rate.

    Over the spectrum's ``rank`` positive values ``v``, at the ``k`` and
    ``theta`` of :func:`waterfill._levels`: distortions ``min(v, theta)``,
    and gains ``(v - dist) / v`` on the ``k`` active components, exactly 0
    on the others.  ``k`` decides, not ``v > theta``: just above a threshold,
    within ``BOUNDARY_SLACK``, ``theta`` is already a hair below the next value.
    """
    k, theta = waterfill._levels(spectrum, R)
    v = spectrum.arrays[1][:spectrum.rank]
    dist = np.minimum(v, theta[:, None])
    return np.where(np.arange(v.size) < k[:, None], (v - dist) / v, 0.0), dist


def _ce_grid(model: ObservationModel, rates: Sequence[float]) -> CEMatrixParts:
    """The test-channel matrices of compress-and-estimate on a rate grid, stacked.

    The gains and distortions are :func:`_gains` of the observation
    spectrum, whose ``L`` values are all positive.
    """
    R = np.array([waterfill._check_rate(r) for r in rates], dtype=float)
    gain, dist = _gains(model.observation, R)
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
    return _rows(_ce_grid(model, (R,)), 0)


def _rows(p: CEMatrixParts, i) -> CEMatrixParts:
    """The parts of a grid at the rates ``i`` indexes: one rate for an int, else a grid."""
    return CEMatrixParts(basis=p.basis, gain=p.gain[i], distortion=p.distortion[i],
                         channel=p.channel[i], noise_cov=p.noise_cov[i])


def _whitened(p: CEMatrixParts) -> tuple[np.ndarray, np.ndarray]:
    """``D^{-1/2}`` and the whitened channel ``Q = D^{-1/2} P`` at each rate of a grid, stacked.

    ``D = diag(noise_cov)``.  A rate's inactive rows, ``noise_cov == 0``,
    have gain and channel row 0 and carry nothing: their ``D^{-1/2}`` is 0,
    so they are zero rows of ``Q`` and add only zero singular values.  Each
    rate's ``Q`` is the same ``L x M`` matrix in any grid.
    """
    scale = 1.0 / np.sqrt(np.where(p.noise_cov > 0.0, p.noise_cov, np.inf))
    return scale, scale[:, :, None] * p.channel


def _ce_decoders(p: CEMatrixParts) -> np.ndarray:
    """Linear MMSE decoder ``E`` of ``x`` from ``P x + n`` at each rate of a grid, stacked.

    ``n`` has covariance ``D = diag(noise_cov)``.  With the SVD
    ``Q = U diag(s) V^T`` of the whitened channel of :func:`_whitened`,
    ``E = V diag(s / (1 + s^2)) U^T D^{-1/2}``, whose columns for the
    inactive rows are 0, and ``I - E P = (I + Q^T Q)^{-1}``, whose
    eigenvalues are ``1 / (1 + s^2)`` and ``M - len(s)`` ones.
    """
    scale, q = _whitened(p)
    u, s, vt = np.linalg.svd(q, full_matrices=False)
    return ((vt.mT * (s / (1.0 + s * s))[:, None, :]) @ u.mT) * scale[:, None, :]


def ce_matrix_forms(model: ObservationModel, rates: Sequence[float]) -> list[float]:
    """Compress-and-estimate distortions from the test channel's matrices on a rate grid.

    ``(1/M) tr(I - E P)`` with ``P`` the channel matrix and ``E`` the
    linear MMSE decoder of :func:`_ce_decoders`: ``(1/M) (sum 1 / (1 + s^2)
    + M - len(s))`` over the singular values ``s`` of the whitened channel,
    a sum of non-negative terms.  Must agree with the spectral closed form
    for every model and rate; this is the primary cross-check of the
    piecewise formulas.  The rates may come in any order.
    """
    return _ce_forms(model, _ce_grid(model, rates))


def _ce_forms(model: ObservationModel, p: CEMatrixParts) -> list[float]:
    """:func:`ce_matrix_forms` on a grid's test channel ``p``, from one values-only SVD."""
    s = np.linalg.svd(_whitened(p)[1], compute_uv=False)
    return ((np.sum(1.0 / (1.0 + s * s), axis=-1) + (model.M - s.shape[-1])) / model.M).tolist()


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


def _error_maps(fx: np.ndarray, fz: np.ndarray, fq: np.ndarray) -> np.ndarray:
    """``[I - fx | -fz | -fq | 0]``, stacked: ``[x; z; q]`` to the error of ``fx x + fz z + fq q``.

    ``fq`` acts on the leading entries of ``q``; the zeros pad each map to
    ``M + 2L`` columns.
    """
    n, M, L = fz.shape
    return np.concatenate([np.eye(M) - fx, -fz, -fq, np.zeros((n, M, L - fq.shape[-1]))], axis=-1)


def _ce_maps(model: ObservationModel, p: CEMatrixParts) -> np.ndarray:
    """Compress-and-estimate at each rate of a grid, from its test channel ``p``, stacked.

    ``x_hat = E (P x + sigma diag(gain) U^T z + sqrt(gain dist) q)``.
    """
    e = _ce_decoders(p)
    fz = (math.sqrt(model.sigma2) * e * p.gain[:, None, :]) @ p.basis.T
    return _error_maps(e @ p.channel, fz, e * np.sqrt(p.gain * p.distortion)[:, None, :])


def _maps(model: ObservationModel, ce: CEMatrixParts | None = None,
          idrf_rates: Sequence[float] = (), mmse: bool = False) -> np.ndarray:
    """The error maps ``B`` whose laws :func:`mc_estimates` samples, stacked: CE, optimal, floor.

    One CE map per rate of the test channel ``ce``, none for ``None``.  The
    optimal scheme passes the MMSE estimate, in its covariance's eigenbasis,
    through :func:`_gains` of the conditional spectrum; the floor with gain 1.
    """
    u, s, v = model.svd
    maps = [_ce_maps(model, ce)] if ce is not None else []
    gain, dist = _gains(model.conditional, np.array(idrf_rates, dtype=float))
    if mmse:
        gain = np.vstack([gain, np.ones(gain.shape[1])])
        dist = np.vstack([dist, np.zeros(dist.shape[1])])
    # the MMSE estimate fx x + fz z, with E = V diag(s / (s^2 + s2)) U^T:
    # fx = E A, whose eigenbasis is V, and fz = sigma E
    obs = s * s + model.sigma2
    fx = (v * (s * s / obs)) @ v.T
    fz = (v * (math.sqrt(model.sigma2) * s / obs)) @ u[:, :s.size].T
    v = v[:, :gain.shape[1]]  # the conditional rank, at most the gram rank
    proj = (v * gain[:, None, :]) @ v.T
    maps.append(_error_maps(proj @ fx, proj @ fz, v * np.sqrt(gain * dist)[:, None, :]))
    return np.concatenate(maps)


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
    return _estimates(model, n_samples, seed, _ce_grid(model, ce_rates) if ce_rates else None,
                      idrf_rates, mmse)


def _estimates(model: ObservationModel, n_samples: int, seed: int, ce: CEMatrixParts | None,
               idrf_rates: Sequence[float], mmse: bool) -> McEstimates:
    """:func:`mc_estimates` on valid arguments, the CE rates given by their test channel ``ce``."""
    M = model.M
    weights = _weights(_maps(model, ce, idrf_rates, mmse)) / M
    chi2 = np.random.Generator(np.random.SFC64(seed)).chisquare(n_samples, size=M)
    est = [McEstimate(mean=float(w @ chi2) / n_samples,
                      stderr=math.sqrt(2.0 * float(w @ w) / n_samples),
                      n_samples=n_samples, seed=seed)
           for w in weights]
    n_ce, n_idrf = 0 if ce is None else len(ce.gain), len(idrf_rates)
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
