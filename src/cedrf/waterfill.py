"""Reverse water-filling over an eigenvalue spectrum.

Closed-form rate thresholds, water levels, and the per-component rate and
distortion allocation for a Gaussian vector compressed at a total rate of
``R`` bits per source vector.  All logarithms are base 2; rates are bits.

Each spectrum builds its threshold table once (:attr:`Spectrum.thresholds`);
every function here reads that table.  The water level with ``k`` active
components is ``theta = lam_k 2^{2 (R_k - R) / k}``, the geometric mean of
the ``k`` leading eigenvalues times ``2^{-2R/k}`` rewritten through the
k-th threshold.  It forms no eigenvalue product, so no spectrum scale or
length can overflow it, and ``R = 0`` gives exactly ``lam_1``.

Active counts and water levels are evaluated a whole rate grid at a time
(:func:`_levels`); :func:`active_count` and :func:`water_level` are that
grid at one rate, so a scalar call and a sweep agree bit for bit.
:func:`rate_allocation` forms its one rate's per-component rates in Python
floats.  The oracles take only the rate check, counts and water levels from
here, and form their forward test channels themselves.

Interval convention: the k-th component count applies on the half-open
interval ``(R_k, R_{k+1}]``.  ``R = 0`` maps to ``k = 1`` with the water
level at the top of the spectrum, which keeps the distortion-rate curves
continuous and equal to the source variance at zero rate.  Exact threshold
hits resolve to the lower interval with a small comparison slack so that
computed thresholds never flip the count nondeterministically; repeated
eigenvalues yield tied thresholds and therefore activate together.  A
spectrum with no positive eigenvalue has ``k = 0`` and water level 0 at
every rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum

#: Comparison slack for interval membership at computed thresholds: a rate
#: within this many bits above a threshold still belongs to the lower interval.
BOUNDARY_SLACK = 1e-12


class EmptySpectrum(ValueError):
    """Water-filling over a spectrum with no positive eigenvalues."""


@dataclass(frozen=True)
class WaterfillResult:
    """Active count, water level, and per-component rates/distortions.

    ``rates`` and ``distortions`` have one entry per spectrum value; the
    rates sum to the requested total, and only the ``k`` active components
    carry a positive rate.
    """

    k: int
    theta: float
    rates: tuple[float, ...]
    distortions: tuple[float, ...]


def _check_rate(R: float) -> float:
    r = float(R)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"rate must be a finite non-negative real, got {R!r}")
    return r


def _exp2(e: np.ndarray) -> np.ndarray:
    """``2 ** e`` elementwise through the C library's ``pow``.

    ``np.power`` and ``np.exp2`` may use SIMD kernels that differ from
    ``pow`` in the last ulp, which would make a grid and a scalar call
    disagree; Python's float power is ``pow`` itself.
    """
    return np.array([2.0 ** x for x in e.ravel().tolist()]).reshape(e.shape)


def _levels(spectrum: Spectrum, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Active counts and water levels on a float64 array of valid rates.

    ``k`` is the number of thresholds ``t`` with ``t + BOUNDARY_SLACK < R``,
    at least 1 (``R = 0``); the table's final ``inf`` keeps it at most
    ``rank``.  ``theta = lam_k 2^{2 (R_k - R) / k}``.  Both are 0 at every
    rate for a spectrum of rank 0.
    """
    if spectrum.rank == 0:
        return np.zeros(R.shape, dtype=np.intp), np.zeros_like(R)
    thr, lam, _ = spectrum.arrays
    k = np.maximum(np.searchsorted(thr + BOUNDARY_SLACK, R, side="left"), 1)
    i = k - 1
    with np.errstate(over="ignore"):  # above DBL_MAX / 2 bits, -inf: theta is 2^-inf = 0
        return k, lam[i] * _exp2(2.0 * (thr[i] - R) / k)


def rate_thresholds(spectrum: Spectrum) -> list[float]:
    """Total rates at which successive components become active.

    Returns a copy of :attr:`Spectrum.thresholds`:
    ``[R_1 = 0, R_2, ..., R_rank, inf]``, non-decreasing, with
    ``R_k = (1/2) sum_{l<=k} log2(lam_l / lam_k)``.
    """
    if spectrum.rank == 0:
        raise EmptySpectrum("spectrum has no positive eigenvalues")
    return list(spectrum.thresholds)


def active_count(spectrum: Spectrum, R: float) -> int:
    """Number of components with positive rate: the unique k with R in (R_k, R_{k+1}].

    0 when the spectrum has no positive eigenvalue.
    """
    return water_level(spectrum, R)[0]


def water_level(spectrum: Spectrum, R: float) -> tuple[int, float]:
    """Active count and common water level ``theta`` at total rate ``R``.

    ``theta = lam_k 2^{2 (R_k - R) / k}``, which equals
    ``2^{-2R/k} (prod_{l<=k} lam_l)^{1/k}``, lies between the k-th
    eigenvalue and its successor and is continuous in ``R`` across the
    interval boundaries.  ``(0, 0.0)`` for a spectrum of rank 0.
    """
    k, theta = _levels(spectrum, np.array([_check_rate(R)]))
    return int(k[0]), float(theta[0])


def rate_allocation(spectrum: Spectrum, R: float) -> WaterfillResult:
    """Per-component rates ``(1/2) log2^+(lam_l / theta)`` and distortions ``min(lam_l, theta)``.

    The rate of each active component is formed as
    ``(1/2) log2(lam_l / lam_k) + (R - R_k) / k``, which never divides by
    ``theta``, so it stays finite where ``theta`` underflows to 0.  Zero
    eigenvalues, and every component of a rank-0 spectrum, receive zero
    rate and zero distortion.
    """
    r = _check_rate(R)
    return _allocation(spectrum, r, *water_level(spectrum, r))


def _allocation(spectrum: Spectrum, r: float, k: int, theta: float) -> WaterfillResult:
    """:func:`rate_allocation` at rate ``r``, given its active count and water level.

    Active component ``l`` gets ``(1/2) log2(lam_l / lam_k) + (r - R_k) / k``,
    in Python floats; the others get rate 0.
    """
    values = spectrum.values
    excess = (r - spectrum.thresholds[k - 1]) / k if k else 0.0
    rates = [0.5 * math.log2(v / values[k - 1]) + excess for v in values[:k]]
    return WaterfillResult(k, theta, tuple(rates + [0.0] * (len(values) - k)),
                           tuple(min(v, theta) for v in values))
