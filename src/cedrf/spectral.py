"""Spectra of linear Gaussian observation models.

Turns an observation model ``y = A x + z`` (source ``x ~ N(0, I_M)``,
noise ``z ~ N(0, sigma2 I_L)``) into the three eigenvalue lists the
distortion-rate formulas consume:

* the spectrum ``lam_l`` of ``A A^T``,
* the observation-covariance spectrum ``lam_l + sigma2``, and
* the spectrum ``lam_l / (lam_l + sigma2)`` of the covariance of the
  MMSE estimate of ``x`` from ``y``,

plus the estimation-error floor and source whitening for non-identity
source covariances.  Every closed form is purely spectral, so ``lam_l``
comes from the singular values of ``A``.  One full SVD of ``A``, with its
singular vectors, is built on first use and kept, for the matrix and
Monte Carlo oracles only: its ``U`` is the eigenbasis of ``A A^T``, and
its ``V`` that of the MMSE estimate's covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import Matrix

#: An eigenvalue counts as zero when it is at most RANK_RTOL times the
#: largest one (RANK_ATOL absolute when the largest is itself zero).
RANK_RTOL = 1e-10
RANK_ATOL = 1e-14


class NotPositiveDefinite(ValueError):
    """A positive-definite matrix was required."""


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing list of non-negative eigenvalues with a numerical rank.

    Immutable, so derived tables are built on first use and kept.
    """

    values: tuple[float, ...]
    rank: int

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("spectrum must contain at least one value")
        for i, v in enumerate(self.values):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"spectrum values must be finite and >= 0, got {v!r}")
            if i > 0 and v > self.values[i - 1]:
                raise ValueError("spectrum values must be non-increasing")
        if not 0 <= self.rank <= len(self.values):
            raise ValueError(f"rank {self.rank} out of range for {len(self.values)} values")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Spectrum":
        """Sort descending and classify near-zero values by the rank tolerance."""
        vals = tuple(sorted((float(v) for v in values), reverse=True))
        return cls(vals, _numerical_rank(vals))

    @cached_property
    def thresholds(self) -> tuple[float, ...]:
        """Total rates (bits) at which successive components become active in reverse water-filling.

        ``(R_1 = 0, R_2, ..., R_rank, inf)``, non-decreasing, with
        ``R_k = (1/2) sum_{l<=k} log2(lam_l / lam_k)``.  A spectrum of rank 0
        has the table ``(0.0,)``: no component ever becomes active.
        """
        logs = [math.log2(v) for v in self.values[: self.rank]]
        if not logs:
            return (0.0,)
        out = [0.0]
        prefix = logs[0]
        for k in range(2, self.rank + 1):
            prefix += logs[k - 1]
            # clamp repairs ulp-level inversions between near-tied thresholds
            out.append(max(0.5 * (prefix - k * logs[k - 1]), out[-1]))
        out.append(math.inf)
        return tuple(out)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float64 ``(thresholds, values, prefix_sums(values))``.

        The form in which grid evaluations index the table by active count.
        """
        values = np.array(self.values)
        out = (np.array(self.thresholds), values, prefix_sums(values))
        for a in out:
            a.flags.writeable = False
        return out


def prefix_sums(values: Sequence[float]) -> np.ndarray:
    """``[0, v_1, v_1 + v_2, ...]``, added left to right: entry ``k`` sums the first ``k`` values."""
    return np.add.accumulate(np.concatenate(([0.0], values)))


def _numerical_rank(sorted_desc: Sequence[float]) -> int:
    top = sorted_desc[0] if sorted_desc else 0.0
    cutoff = RANK_RTOL * top if top > 0.0 else RANK_ATOL
    return sum(1 for v in sorted_desc if v > cutoff)


def _monotone_clamp(values: list[float]) -> tuple[float, ...]:
    # lam / (lam + s2) is monotone on an already-sorted spectrum; this only
    # repairs last-ulp rounding inversions so Spectrum validation stays strict.
    for i in range(1, len(values)):
        if values[i] > values[i - 1]:
            values[i] = values[i - 1]
    return tuple(values)


class ObservationModel:
    """Source ``x ~ N(0, I_M)`` observed as ``y = A x + z``, ``z ~ N(0, sigma2 I_L)``.

    ``gram``, the spectrum of ``A A^T``, is the squared singular values of
    ``A`` zero-padded to ``L``: ``eps kappa`` relative error in the small
    eigenvalues, where forming ``A A^T`` costs ``eps kappa^2``.  The derived
    spectra are cached beside it; ``svd``, and ``basis`` with it, is built
    on first use.
    ``full_rank`` records whether ``A`` has numerical rank ``min(M, L)``;
    rank-deficient models are accepted and handled throughout.

    Raises :class:`ValueError` when ``sigma2`` is not a positive finite
    real, or when ``A A^T`` overflows double precision, judged as ``2 s_1^2``
    overflowing: ``s_1 = |A|_2`` bounds every entry of ``A A^T``.
    """

    def __init__(self, A: Matrix, sigma2: float):
        s2 = float(sigma2)
        if not math.isfinite(s2) or s2 <= 0.0:
            raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
        self.A = A
        self.sigma2 = s2
        self.L = A.rows
        self.M = A.cols
        self.r = min(self.M, self.L)
        s = np.linalg.svd(A.data, compute_uv=False)
        if not math.isfinite(2.0 * float(s[0]) * float(s[0])):  # Python floats: inf, no warning
            raise ValueError(
                f"A A^T overflows double precision (largest |A| entry "
                f"{float(np.abs(A.data).max()):.3e})"
            )
        w = np.zeros(self.L)
        w[: s.size] = s * s
        # values at or below the rank cut-off are rounding noise of about
        # (eps |A|)^2; kept, they would weigh lam / (lam + s2)^2 >> 1 at small s2
        w[_numerical_rank(w.tolist()):] = 0.0
        self.gram = Spectrum.from_values(w)
        self.full_rank = self.gram.rank == self.r
        self.observation = observation_spectrum(self.gram, s2)
        self.conditional = conditional_spectrum(self.gram, s2)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(U, s, V)`` of ``A``, built on first use, for the oracles only.

        ``U`` holds all ``L`` left singular vectors by descending singular
        value, each signed so that its largest-magnitude entry (the first on
        ties) is positive.  ``s`` and the ``M x rank`` ``V`` keep the leading
        ``gram.rank`` triplets, ``V``'s columns signed with their partners,
        so that ``A = U[:, :rank] diag(s) V^T`` up to the rank cut-off.
        """
        u, s, vt = np.linalg.svd(self.A.data)
        lead = u[np.argmax(np.abs(u), axis=0), np.arange(self.L)]
        sign = np.where(lead < 0.0, -1.0, 1.0)
        k = self.gram.rank
        out = (u * sign, s[:k], vt[:k].T * sign[:k])
        for a in out:
            a.flags.writeable = False
        return out

    @property
    def basis(self) -> np.ndarray:
        """``svd``'s ``U``: eigenvectors of ``A A^T`` as columns, by descending eigenvalue."""
        return self.svd[0]

    @property
    def mmse_floor(self) -> float:
        return mmse_floor(self.gram, self.sigma2, self.M)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ObservationModel(M={self.M}, L={self.L}, sigma2={self.sigma2}, "
            f"rank={self.gram.rank})"
        )


def observation_spectrum(gram: Spectrum, sigma2: float) -> Spectrum:
    """Spectrum of the observation covariance: ``lam_l + sigma2``.

    Full rank by construction since ``sigma2 > 0``.  Adding one constant
    with correct rounding keeps the order, so unlike
    :func:`conditional_spectrum` this needs no clamp.
    """
    vals = tuple(v + sigma2 for v in gram.values)
    return Spectrum(vals, len(vals))


def conditional_spectrum(gram: Spectrum, sigma2: float) -> Spectrum:
    """Spectrum of the MMSE-estimate covariance: ``lam_l / (lam_l + sigma2)``.

    The map is monotone increasing, so descending order is preserved (up to
    the rounded division's last-ulp inversions, which are clamped) and the
    rank equals the number of nonzero ``lam_l``.
    """
    vals = _monotone_clamp([v / (v + sigma2) for v in gram.values])
    return Spectrum(vals, gram.rank)


def mmse_floor(gram: Spectrum, sigma2: float, M: int) -> float:
    """Normalized error of estimating the source from the raw observation.

    This is the common large-rate limit of both distortion-rate functions.
    """
    return 1.0 - sum(v / (v + sigma2) for v in gram.values) / M


def whiten(sigma_x: Matrix, A: Matrix, sigma2: float) -> ObservationModel:
    """Reduce a model with source covariance ``sigma_x`` to the identity-source form.

    Returns the model with observation matrix ``A sigma_x^{1/2}`` and unit
    source covariance.  Distortion for the returned model is measured on
    the whitened source ``x' = sigma_x^{-1/2} x``, not the original one.

    Raises :class:`NotPositiveDefinite` when the smallest eigenvalue of
    ``sigma_x`` is at or below the rank tolerance.
    """
    w, v = linalg.sym_eig(sigma_x.data)
    if _numerical_rank(w.tolist()) < len(w):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(w[-1]):.3e} is not above the rank tolerance"
        )
    sqrt_sx = (v * np.sqrt(w)) @ v.T
    return ObservationModel(Matrix(A.data @ sqrt_sx), sigma2)
