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

Both schemes end in a reverse water-filling forward test channel
``P x + n``, ``n`` independent Gaussian noise with a diagonal covariance
``N``, and a linear decoder ``F``.  :func:`_gains` gives the channel: each
active component of a spectrum gets the gain ``1 - theta / v`` and the
distortion ``min(v, theta)``.  Compress-and-estimate water-fills the
observation spectrum, with :func:`_ce_grid`'s channel, noise and decoder;
the optimal scheme water-fills the estimate's spectrum in its eigenbasis
``V``, which is also its decoder; the floor is the optimal scheme's
channel at infinite rate, where every gain is exactly 1 and every
distortion exactly 0.  The error ``x - F (P x + n)`` is ``B w``, ``w``
standard normal in ``M + L`` entries, with the map
``B = [I - F P | -F diag(sqrt(N)) | 0]`` of :func:`_error_maps`: ``F n``
has the covariance ``F diag(N) F^T``.  The error is Gaussian with
covariance ``B B^T``, so its squared norm has the law of the weighted
chi-square ``sum_i mu_i g_i^2``, with ``mu`` the eigenvalues of ``B B^T``
and ``g`` standard normal.  The simulation samples that law:
:func:`_estimates` takes ``mu`` before sampling, as the squared singular
values of ``B``, which needs no eigensolver and no ``B B^T``.  Each map is
zero-padded to ``M x (M + L)``, which adds only zero singular values, so
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

The optimal scheme's and the floor's maps come from the singular values
``s`` and right vectors ``V`` of the model's cached SVD of ``A``: ``V`` is
the eigenbasis of the MMSE estimate's covariance, and a gain is formed
only on the estimate spectrum's positive values and their basis columns.
The compress-and-estimate maps and the matrix form share :func:`_ce_grid`,
which builds the test channel for a whole rate grid and factors it once:
one stacked SVD of the channel whitened by its noise, with no rank cut-off
of its own, gives every rate's linear MMSE decoder and its distortion.
The channel uses the model's ``A``, whose singular values past
``gram.rank`` are 0, as the other maps do: the rows zeroed there are the
SVD's rounding noise.  The whitening keeps every rate's full ``L x M``
shape: a rate's inactive rows carry no noise, get the weight 0 and become
zero rows, which add only zero singular values.
LAPACK factors each matrix of the stack on its own, so a rate's rows, its
decoder and its distortion included, are the same bits in any grid that
holds it, and one channel can serve both oracles: :func:`_rows` takes the
Monte Carlo rates' rows from it.
Every grid takes one :func:`waterfill._levels` call per spectrum, and the
one-rate functions (:func:`ce_matrix_parts`, :func:`ce_matrix_form`) are
that grid at one rate, so they equal it bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import waterfill
from .spectral import ObservationModel, Spectrum, _read_only

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
    with rows past ``gram.rank``, the SVD's rounding noise, set to 0.
    ``noise_cov``: 1-D diagonal ``s2 gain^2 + gain distortion`` of the
    effective additive noise's covariance.
    ``decoder``: ``M x L`` linear MMSE decoder ``E`` of the source from the
    representation, with columns 0 on the inactive rows.
    ``d_ce``: the decoder's normalized error ``(1/M) tr(I - E P)``, ``P``
    the channel; a scalar at one rate.
    """

    basis: np.ndarray
    gain: np.ndarray
    distortion: np.ndarray
    channel: np.ndarray
    noise_cov: np.ndarray
    decoder: np.ndarray
    d_ce: np.ndarray


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
    on the others.  ``k`` decides, not ``v > theta``: at a threshold the count
    leaves out the component it reaches, while ``theta`` may round a hair below its value.
    At ``R = inf`` every gain is exactly 1 and every distortion exactly 0.
    """
    k, theta, _ = waterfill._levels(spectrum, R)
    v = spectrum.values[:spectrum.rank]
    dist = np.minimum(v, theta[:, None])
    return np.where(np.arange(v.size) < k[:, None], (v - dist) / v, 0.0), dist


def _ce_grid(model: ObservationModel, rates: Sequence[float]) -> CEMatrixParts:
    """The test channel of compress-and-estimate on a grid of valid rates, stacked, and its decoder.

    The gains and distortions are :func:`_gains` of the observation
    spectrum, whose ``L`` values are all positive.  With
    ``D = diag(noise_cov)``, the channel ``P`` is whitened at full height,
    ``Q = D^{-1/2} P``: a rate's inactive rows, ``noise_cov == 0``, have
    gain and channel row 0 and carry nothing, so their ``D^{-1/2}`` is 0 and
    they are zero rows of ``Q``.  One stacked SVD ``Q = U diag(s) V^T``
    gives each rate's decoder ``E = V diag(s / (1 + s^2)) U^T D^{-1/2}`` of
    ``x`` from ``P x + n``, ``n`` with covariance ``D``, and its error:
    ``I - E P = (I + Q^T Q)^{-1}``, whose eigenvalues are ``1 / (1 + s^2)``
    and ``M - len(s)`` ones, a sum of non-negative terms.
    """
    gain, dist = _gains(model.observation, np.asarray(rates, dtype=float))
    channel = (gain[:, :, None] * model.basis.T) @ model.A.data
    channel[:, model.gram.rank:] = 0.0  # the model's A: past the rank, A's rows are rounding noise
    noise = model.sigma2 * gain * gain + gain * dist
    scale = 1.0 / np.sqrt(np.where(noise > 0.0, noise, np.inf))
    u, s, vt = np.linalg.svd(scale[:, :, None] * channel, full_matrices=False)
    with np.errstate(over="ignore"):  # where s^2 overflows, the limits 1/(1+s^2) = 0 and s/(1+s^2) = 1/s
        weight = np.where(np.isinf(s * s), 1.0 / np.maximum(s, 1.0), s / (1.0 + s * s))
        decoder = ((vt.mT * weight[:, None, :]) @ u.mT) * scale[:, None, :]
        d_ce = ((1.0 / (1.0 + s * s)).sum(axis=-1) + (model.M - s.shape[-1])) / model.M
    return CEMatrixParts(model.basis, *_read_only(gain, dist, channel, noise, decoder, d_ce))


def ce_matrix_parts(model: ObservationModel, R: float) -> CEMatrixParts:
    """Build the test-channel matrices for compress-and-estimate at rate ``R``."""
    waterfill._check_rate(R)
    return _rows(_ce_grid(model, (R,)), 0)


def _rows(p: CEMatrixParts, i) -> CEMatrixParts:
    """The read-only parts of a grid at the rates ``i`` indexes: one rate for an int, else a grid."""
    rows = (p.gain, p.distortion, p.channel, p.noise_cov, p.decoder, p.d_ce)
    return CEMatrixParts(p.basis, *_read_only(*(a[i] for a in rows)))


def ce_matrix_forms(model: ObservationModel, rates: Sequence[float]) -> list[float]:
    """Compress-and-estimate distortions from the test channel's matrices on a rate grid.

    ``(1/M) tr(I - E P)`` with ``P`` the channel matrix and ``E`` the
    linear MMSE decoder, the ``d_ce`` of :func:`_ce_grid`.  Must agree with
    the spectral closed form for every model and rate; this is the primary
    cross-check of the piecewise formulas.  The rates may come in any order.
    """
    for R in rates:
        waterfill._check_rate(R)
    return _ce_grid(model, rates).d_ce.tolist()


def ce_matrix_form(model: ObservationModel, R: float) -> float:
    """Compress-and-estimate distortion from the test channel's matrices at rate ``R``."""
    return ce_matrix_forms(model, (R,))[0]


@dataclass(frozen=True)
class McEstimates:
    """The estimates of one :func:`mc_estimates` run, each in the order requested."""

    ce: tuple[McEstimate, ...]
    idrf: tuple[McEstimate, ...]
    mmse: McEstimate | None


def _error_maps(decoder: np.ndarray, channel: np.ndarray, noise: np.ndarray,
                L: int) -> np.ndarray:
    """``[I - F P | -F diag(sqrt(N)) | 0]``, stacked: the error of ``F (P x + n)`` per rate.

    The forward test channel ``P x + n`` has ``n = diag(sqrt(N)) w``, ``w``
    standard normal, and ``F`` is its decoder: one row of ``N`` per rate,
    and one ``F`` per rate or one for all.  Each map acts on ``[x; w]``,
    and the zeros pad it to ``M + L`` columns.  Written into one zero array.
    """
    n, k, M = channel.shape
    b = np.zeros((n, M, M + L))
    b.reshape(n, M * (M + L))[:, ::M + L + 1] = 1.0  # the diagonal of each I
    b[..., :M] -= decoder @ channel
    b[..., M:M + k] = -decoder * np.sqrt(noise)[:, None, :]
    return b


def _maps(model: ObservationModel, ce: CEMatrixParts | None = None,
          idrf_rates: Sequence[float] = (), mmse: bool = False) -> np.ndarray:
    """The error maps ``B`` whose laws :func:`mc_estimates` samples, stacked: CE, optimal, floor.

    One CE map per rate of the test channel ``ce``, none for ``None``.  The
    optimal scheme passes the MMSE estimate, in its covariance's eigenbasis
    ``V``, through the gains ``g`` and distortions ``d`` of :func:`_gains`
    of the conditional spectrum.  With ``A = U diag(s) V^T`` and
    ``obs = s^2 + sigma2``, that estimate is
    ``V (diag(s^2 / obs) V^T x + diag(sigma s / obs) U^T z)``, so the channel
    is ``P = diag(g s^2 / obs) V^T``, its noise ``N = (g sigma s / obs)^2 + g d``
    and its decoder ``V``, over the conditional spectrum's ``r`` positive
    values.  The floor is that channel at infinite rate.
    """
    maps = [_error_maps(ce.decoder, ce.channel, ce.noise_cov, model.L)] if ce is not None else []
    rates = [*idrf_rates, math.inf] if mmse else idrf_rates
    gain, dist = _gains(model.conditional, np.array(rates, dtype=float))
    r = gain.shape[1]  # the conditional rank, at most the gram rank
    _, s, v = model.svd
    s, v = s[:r], v[:, :r]
    obs = s * s + model.sigma2
    g = gain * (math.sqrt(model.sigma2) * s / obs)  # sigma s / obs <= 1/2: no square overflows
    channel = (gain * (s * s / obs))[:, :, None] * v.T
    maps.append(_error_maps(v, channel, g * g + gain * dist, model.L))
    return np.concatenate(maps)


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
    n_samples = _integer("n_samples", n_samples, 1, InvalidSampleCount)
    seed = _integer("seed", seed, 0, ValueError)
    return _estimates(model, n_samples, seed, _ce_grid(model, ce_rates) if len(ce_rates) else None,
                      idrf_rates, mmse)


def _integer(name: str, value, low: int, error: type[ValueError]) -> int:
    """``value`` as an int if it is an integer of at least ``low``; else ``error``, naming ``name``."""
    try:
        n = operator.index(value)  # numpy integers too, and no float
    except TypeError:
        n = low - 1
    if n < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return n


def _estimates(model: ObservationModel, n_samples: int, seed: int, ce: CEMatrixParts | None,
               idrf_rates: Sequence[float], mmse: bool) -> McEstimates:
    """:func:`mc_estimates` on valid arguments, the CE rates given by their test channel ``ce``."""
    M = model.M
    s = np.linalg.svd(_maps(model, ce, idrf_rates, mmse), compute_uv=False)
    weights = s * s / M  # mu / M, mu the eigenvalues of each map's B B^T
    chi2 = np.random.Generator(np.random.SFC64(seed)).chisquare(n_samples, size=M)
    scales = np.frexp(weights.max(axis=-1, initial=0.0))[1]  # w 2^-e is near 1: v @ v cannot underflow
    est = [McEstimate(mean=float(w @ chi2) / n_samples,
                      stderr=math.ldexp(math.sqrt(2.0 * float(v @ v) / n_samples), e),
                      n_samples=n_samples, seed=seed)
           for w, v, e in zip(weights, np.ldexp(weights, -scales[:, None]), scales.tolist())]
    n_ce, n_idrf = 0 if ce is None else len(ce.gain), len(idrf_rates)
    return McEstimates(ce=tuple(est[:n_ce]), idrf=tuple(est[n_ce:n_ce + n_idrf]),
                       mmse=est[-1] if mmse else None)


def mc_ce(model: ObservationModel, R: float, n_samples: int, seed: int) -> McEstimate:
    """Simulate compress-and-estimate coding and estimate its distortion.

    Each sample's error has the law of this: draw the source, push it
    through the forward test channel (channel matrix plus the effective
    additive noise), and estimate the source linearly from the
    representation.  The normalized squared errors are
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
