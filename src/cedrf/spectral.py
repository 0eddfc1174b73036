"""Spectra of linear Gaussian observation models.

Turns an observation model ``y = A x + z`` (source ``x ~ N(0, I_M)``,
noise ``z ~ N(0, sigma2 I_L)``) into the three spectra the
distortion-rate formulas consume:

* the spectrum ``lam_l`` of ``A A^T``,
* the observation-covariance spectrum ``lam_l + sigma2``, and
* the spectrum ``lam_l / (lam_l + sigma2)`` of the covariance of the
  MMSE estimate of ``x`` from ``y``.

Each :class:`Spectrum` holds two read-only float64 arrays: ``values`` and its reverse
water-filling ``thresholds``, built once, on first use; every log of values is a ratio's
(:func:`_log2_ratio`).  :func:`spectra` derives the last two spectra from the first,
once per model, with the floor sum the curves add their per-component terms to.
Source whitening handles non-identity source covariances.  Every
closed form is purely spectral, so ``lam_l`` comes from the singular values of ``A``;
those at the SVD's rounding noise (:func:`linalg.above_noise`) count as 0.
One full SVD of ``A``, with its singular vectors, is built on first use
and kept, for the matrix and Monte Carlo oracles only: its ``U`` is the
eigenbasis of ``A A^T``, and its ``V`` that of the MMSE estimate's covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import linalg
from .linalg import Matrix


class NotPositiveDefinite(ValueError):
    """A positive-definite matrix was required."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Non-increasing, non-negative eigenvalues; ``rank`` counts the positive ones.

    ``values`` is a read-only float64 copy of the input; the derived table
    ``thresholds``, read-only too, is built on first use and kept.
    """

    values: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        vals = arr.tolist()  # validated in Python floats: spectra are short
        if len(vals) == 0:
            raise ValueError("spectrum must contain at least one value")
        for i, v in enumerate(vals):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"spectrum values must be finite and >= 0, got {v!r}")
            if i > 0 and v > vals[i - 1]:
                raise ValueError("spectrum values must be non-increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "rank", sum(1 for v in vals if v > 0.0))

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Total rates (bits) at which successive components become active in reverse water-filling.

        ``[R_1 = 0, R_2, ..., R_rank, inf]`` as a running sum, ``R_{k+1} = R_k + (k/2)
        log2(lam_k / lam_{k+1})`` (:func:`_log2_ratio`), of steps ``>= 0`` as rounded: ties give
        equal thresholds, no clamp is needed.  A spectrum of rank 0 has the table ``[0.0]``.
        """
        v = self.values[: self.rank].tolist()
        steps = (0.5 * k * _log2_ratio(a, b) for k, (a, b) in enumerate(zip(v, v[1:]), 1))
        return _read_only(np.array([*accumulate(steps, initial=0.0), math.inf] if v else [0.0]))[0]


def _log2_ratio(a: float, b: float) -> float:
    """``log2(a / b)`` of positive floats, forming no quotient that can overflow: up to ``a = 2b``,
    ``log1p((a - b) / b) / ln 2`` with ``a - b`` exact, so a near tie keeps its relative accuracy
    and a tie gives 0; above, ``log2(m_a / m_b) + (e_a - e_b)`` from ``frexp`` parts.  So
    ``a >= b`` gives ``>= 0`` as rounded, and no power-of-two scale moves a bit."""
    if a <= 2.0 * b:
        return math.log1p((a - b) / b) / math.log(2.0)
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    return math.log2(ma / mb) + (ea - eb)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each marked read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def spectra(gram: Spectrum, sigma2: float, M: int) -> tuple[Spectrum, Spectrum, float]:
    """The spectra ``obs = lam + sigma2`` and ``cond = lam / obs``, and ``M`` times the floor.

    ``obs`` keeps the gram's order: it adds one constant with correct
    rounding.  A running minimum clamps the last-ulp inversions of the
    rounded division, and a value that underflows to 0 leaves the rank.
    The floor sum is ``(M - r) + sum_{l<=r} s2 / obs_l``, ``r = cond.rank``,
    added by ``math.fsum``: each ``1 - cond_l`` is one rounded quotient, so
    the floor keeps its relative accuracy where ``cond_l`` is near 1.
    Raises :class:`ValueError` unless ``sigma2`` is a positive finite real
    and ``lam_1 + sigma2`` is finite.
    """
    s2 = float(sigma2)
    if not math.isfinite(s2) or s2 <= 0.0:
        raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
    lam = gram.values
    top = float(lam[0])
    if math.isinf(top + s2):
        raise ValueError(f"lambda1 + sigma2 overflows double precision: {top:.3e} + {s2:.3e}")
    obs = Spectrum(lam + s2)
    cond = Spectrum(np.minimum.accumulate(lam / obs.values))
    floor_sum = math.fsum([M - cond.rank, *(s2 / o for o in obs.values[: cond.rank].tolist())])
    return obs, cond, floor_sum


class ObservationModel:
    """Source ``x ~ N(0, I_M)`` observed as ``y = A x + z``, ``z ~ N(0, sigma2 I_L)``.

    ``gram``, the spectrum of ``A A^T``, is the squared singular values of
    ``A`` zero-padded to ``L``: ``eps kappa`` relative error in the small
    eigenvalues, where forming ``A A^T`` costs ``eps kappa^2``.  A singular
    value at most ``max(M, L) eps s_1`` is rounding noise, stored as 0
    (:func:`linalg.above_noise`): ``gram.rank`` is ``matrix_rank(A)`` unless
    a kept ``s^2`` underflows.  The observation and conditional spectra and
    ``floor_sum``, ``M`` times the estimation floor, are built once beside it,
    by :func:`spectra`; ``svd``, and ``basis`` with it, is built on first use.
    ``full_rank`` records whether ``gram.rank`` is ``min(M, L)``;
    rank-deficient models are accepted and handled throughout.

    Raises :class:`ValueError` as :func:`spectra` does: the observation
    covariance's largest eigenvalue ``s_1^2 + sigma2`` must be finite, ``s_1``
    the largest singular value of ``A``, which the error names when ``s_1^2``
    alone overflows.  Nothing forms ``A A^T``, so no other bound on ``A`` applies.
    """

    def __init__(self, A: Matrix, sigma2: float):
        self.A = A
        self.sigma2 = float(sigma2)
        self.L = A.rows
        self.M = A.cols
        self.r = min(self.M, self.L)
        s = np.linalg.svd(A.data, compute_uv=False)
        s1 = float(s[0])
        # in Python floats, before numpy squares s, so that the error names s_1
        if math.isinf(s1 * s1):
            raise ValueError(f"lambda1 + sigma2 overflows double precision: lambda1 is the square "
                             f"of A's largest singular value {s1:.3e}")
        kept = s[linalg.above_noise(s, max(self.M, self.L))]
        w = np.zeros(self.L)
        w[: kept.size] = kept * kept
        self.gram = Spectrum(w)
        self.full_rank = self.gram.rank == self.r
        self.observation, self.conditional, self.floor_sum = spectra(self.gram, sigma2, self.M)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(U, s, V)`` of ``A``, built on first use, for the oracles only.

        ``U`` holds all ``L`` left singular vectors by descending singular
        value, each signed so that its largest-magnitude entry (the first on
        ties) is positive.  ``s`` and the ``M x rank`` ``V`` keep the leading
        ``gram.rank`` triplets, ``V``'s columns signed with their partners,
        so that ``A = U[:, :rank] diag(s) V^T`` up to the SVD's rounding noise.
        """
        u, s, vt = np.linalg.svd(self.A.data)
        lead = u[np.abs(u).argmax(axis=0), np.arange(self.L)]
        sign = np.where(lead < 0.0, -1.0, 1.0)
        k = self.gram.rank
        return _read_only(u * sign, s[:k], vt[:k].T * sign[:k])

    @property
    def basis(self) -> np.ndarray:
        """``svd``'s ``U``: eigenvectors of ``A A^T`` as columns, by descending eigenvalue."""
        return self.svd[0]

    @property
    def mmse_floor(self) -> float:
        """Both curves' limit ``1 - (1/M) sum lam/(lam+s2)``, as ``floor_sum / M``: the curves' first term."""
        return self.floor_sum / self.M

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ObservationModel(M={self.M}, L={self.L}, sigma2={self.sigma2}, "
            f"rank={self.gram.rank})"
        )


def whiten(sigma_x: Matrix, A: Matrix, sigma2: float) -> ObservationModel:
    """Reduce a model with source covariance ``sigma_x`` to the identity-source form.

    Returns the model with observation matrix ``A sigma_x^{1/2}`` and unit
    source covariance.  Distortion for the returned model is measured on
    the whitened source ``x' = sigma_x^{-1/2} x``, not the original one.

    Raises :class:`NotPositiveDefinite` when the smallest eigenvalue of
    ``sigma_x`` is at most ``M eps`` times the largest, the rank rule of
    :func:`linalg.above_noise`.
    """
    w, v = linalg.sym_eig(sigma_x.data)
    if not linalg.above_noise(w, w.size).all():
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(w[-1]):.3e} is not above the rank tolerance"
        )
    sqrt_sx = (v * np.sqrt(w)) @ v.T
    return ObservationModel(Matrix(A.data @ sqrt_sx), sigma2)
