"""Reverse water-filling over an eigenvalue spectrum.

Closed-form rate thresholds, water levels, and the per-component rate and
distortion allocation for a Gaussian vector compressed at a total rate of
``R`` bits per source vector.  All logarithms are base 2; rates are bits.

Each spectrum builds its threshold table once, a read-only array beside
its ``values`` (:attr:`Spectrum.thresholds`); every function here reads
those two arrays.  The water level with ``k`` active components is
``theta = lam_k 2^{2 (R_k - R) / k}``, the geometric mean of the ``k``
leading eigenvalues times ``2^{-2R/k}`` rewritten through the k-th
threshold.  It forms no eigenvalue product, so no spectrum scale or length
can overflow it, and ``R = 0`` gives exactly ``lam_1``.  Where its power of two
underflows, it is put together from ``frexp`` parts, so a normal level stays normal.

Active counts and water levels are evaluated a whole rate grid at a time
(:func:`_levels`); :func:`active_count` and :func:`water_level` are that
grid at one rate, so a scalar call and a sweep agree bit for bit.
:func:`_rates` forms one rate's per-component rates in Python floats from a
count already found, so a caller that holds the count runs no second
search.  The oracles take only the rate check, counts and water levels from
here, and form their forward test channels themselves.

Interval convention: the k-th component count applies on the half-open
interval ``(R_k, R_{k+1}]``.  ``R = 0`` maps to ``k = 1`` with the water
level at the top of the spectrum, which keeps the distortion-rate curves
continuous and equal to the source variance at zero rate.  Exact threshold
hits resolve to the lower interval with no slack: the water level is
continuous at each threshold, so where rounding flips a count the curves move
by that rounding times their slope, at most ``2 ln 2 / M`` per bit.  Tied
eigenvalues activate together.  A spectrum with no positive eigenvalue has
``k = 0`` and water level 0 at every rate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .spectral import Spectrum, _log2_ratio

class WaterfillResult(NamedTuple):
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
    """The rate ``R`` read by :func:`linalg.real`, ``-0.0`` as ``0.0`` and every other rate with its
    bits, if it is a finite non-negative real; else a :class:`ValueError` naming it."""
    r = linalg.real("R", R)
    if not 0.0 <= r < math.inf:  # NaN too
        raise ValueError(f"rate must be a finite non-negative real, got {r!r}")
    return r + 0.0


def _check_rates(rates, name: str = "rates") -> np.ndarray:
    """``rates`` read by :func:`linalg.vector` as a new float64 array, each checked as
    :func:`_check_rate` checks one, which names the first that fails."""
    r = linalg.vector(name, rates)
    bad = ~((r >= 0.0) & (r < math.inf))
    if bad.any():
        _check_rate(r[bad.argmax()].item())
    return r + 0.0


def _exp2(e: np.ndarray) -> np.ndarray:
    """``2 ** e`` elementwise through the C library's ``pow``.

    ``np.power`` and ``np.exp2`` may use SIMD kernels that differ from
    ``pow`` in the last ulp (on an AVX-512 host, about 1 argument in 20),
    so the CSV bits would depend on the CPU.  ``np.float_power``'s float64
    loop calls ``pow`` itself, one element at a time, as Python's float
    power does; ``tests/test_waterfill.py`` checks that it still does.
    """
    return np.float_power(2.0, e)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(2^f, n)`` of finite ``x = f + n``, ``n`` integral (int64), ``|f| < 1``: ``m 2^e 2^x`` as
    ``ldexp(m 2^f, e + n)`` stays normal until that one final rounding where ``2^x`` underflows."""
    f, n = np.modf(x)
    return _exp2(f), n.astype(np.int64)


def _levels(spectrum: Spectrum, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active counts, water levels and the levels' powers of two on a float64 array of valid rates.

    ``k`` is the number of thresholds strictly below ``R``, at least 1
    (``R = 0``); the table's final ``inf`` keeps it at most ``rank``.
    ``theta = lam_k 2^x`` with the power ``2^x``, ``x = 2 (R_k - R) / k``, in ``(0, 1]``
    unless it underflows.  Only for ``-4000 < x < -1022`` (one test per call), ``theta`` is
    ``ldexp(m 2^f, e + n)``, ``lam_k = m 2^e``, ``(2^f, n)`` of :func:`_split`.  All three are 0
    at every rate for a spectrum of rank 0.
    """
    if spectrum.rank == 0:
        zeros = np.zeros_like(R)
        return np.zeros(R.shape, dtype=np.intp), zeros, zeros
    thr, lam = spectrum.thresholds, spectrum.values
    i = thr[1:].searchsorted(R, side="left")  # k - 1, as R_1 = 0 is below every rate but 0
    k = i + 1
    with np.errstate(over="ignore"):  # above DBL_MAX / 2 bits, -inf: theta is 2^-inf = 0
        x = 2.0 * (thr[i] - R) / k
    power = _exp2(x)
    theta = lam[i] * power
    if np.minimum.reduce(x, initial=0.0, where=x > -4000.0) < -1022.0:  # below -4000, theta is 0
        low = (x > -4000.0) & (x < -1022.0)
        m, e = np.frexp(lam[i[low]])
        head, n = _split(x[low])
        theta[low] = np.ldexp(m * head, e + n)
    return k, theta, power


def rate_thresholds(spectrum: Spectrum) -> list[float]:
    """:attr:`Spectrum.thresholds`, the rates where successive components activate, as a list."""
    return spectrum.thresholds.tolist()


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
    k, theta, _ = _levels(spectrum, np.array([_check_rate(R)]))
    return int(k[0]), float(theta[0])


def _rates(spectrum: Spectrum, R: float, k: int) -> list[float]:
    """Per-component rates at a valid rate ``R`` with ``k`` active components, as a list.

    The rate of each active component is ``(1/2) log2(lam_l / lam_k) + (R - R_k) / k``, its log
    by :func:`spectral._log2_ratio`, which forms neither ``lam_l / theta`` nor ``lam_l / lam_k``,
    so it stays finite where either would overflow; every other component's is 0.
    """
    values = spectrum.values.tolist()
    excess = (R - float(spectrum.thresholds[k - 1])) / k if k else 0.0
    rates = [0.5 * _log2_ratio(v, values[k - 1]) + excess for v in values[:k]]
    return rates + [0.0] * (len(values) - k)


def rate_allocation(spectrum: Spectrum, R: float) -> WaterfillResult:
    """Per-component rates ``(1/2) log2^+(lam_l / theta)`` and distortions ``min(lam_l, theta)``.

    The rates are :func:`_rates`'.  Zero eigenvalues, and every component of a rank-0 spectrum,
    receive zero rate and zero distortion.
    """
    r = _check_rate(R)
    k, theta = water_level(spectrum, r)
    return WaterfillResult(k, theta, tuple(_rates(spectrum, r, k)),
                           tuple(min(v, theta) for v in spectrum.values.tolist()))
