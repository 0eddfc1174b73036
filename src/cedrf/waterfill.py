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
from bisect import bisect_left
from dataclasses import dataclass

from .spectral import Spectrum

#: Comparison slack for interval membership at computed thresholds.
BOUNDARY_SLACK = 1e-12


class EmptySpectrum(ValueError):
    """Water-filling over a spectrum with no positive eigenvalues."""


@dataclass(frozen=True)
class WaterfillResult:
    """Active count, water level, and per-component rates/distortions.

    ``rates`` and ``distortions`` have one entry per spectrum value; the
    rates sum to the requested total and are positive exactly for the
    components strictly above the water level.
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
    r = _check_rate(R)
    k = bisect_left(spectrum.thresholds, r, key=lambda t: t + BOUNDARY_SLACK)
    return min(max(k, 1), spectrum.rank)


def water_level(spectrum: Spectrum, R: float) -> tuple[int, float]:
    """Active count and common water level ``theta`` at total rate ``R``.

    ``theta = lam_k 2^{2 (R_k - R) / k}``, which equals
    ``2^{-2R/k} (prod_{l<=k} lam_l)^{1/k}``, lies between the k-th
    eigenvalue and its successor and is continuous in ``R`` across the
    interval boundaries.  ``(0, 0.0)`` for a spectrum of rank 0.
    """
    r = _check_rate(R)
    k = active_count(spectrum, r)
    if k == 0:
        return 0, 0.0
    return k, spectrum.values[k - 1] * 2.0 ** (2.0 * (spectrum.thresholds[k - 1] - r) / k)


def rate_allocation(spectrum: Spectrum, R: float) -> WaterfillResult:
    """Per-component rates ``(1/2) log2^+(lam_l / theta)`` and distortions ``min(lam_l, theta)``.

    Zero eigenvalues, and every component of a rank-0 spectrum, receive
    zero rate and zero distortion.
    """
    k, theta = water_level(spectrum, R)
    rates = []
    for l, v in enumerate(spectrum.values):
        if l < spectrum.rank and v > theta:
            rates.append(0.5 * math.log2(v / theta))
        else:
            rates.append(0.0)
    distortions = tuple(min(v, theta) for v in spectrum.values)
    return WaterfillResult(k, theta, tuple(rates), distortions)
