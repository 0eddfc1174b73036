"""Validated input matrices and symmetric spectral decompositions.

Every spectrum and pseudoinverse in the package comes from here.
:class:`Matrix` holds a finite, non-empty, read-only 2-D array and is kept
for user input.  :func:`sym_eig` and :func:`pinv` take plain arrays, check
that they are finite, square and symmetric, then diagonalize them with
LAPACK's symmetric eigensolver through :func:`numpy.linalg.eigh`.  Results
are bit-identical from run to run on one platform and numpy/BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSymmetric(ValueError):
    """A symmetric-only operation received an asymmetric (or non-square) matrix."""


#: Maximum absolute asymmetry |S - S^T| accepted by symmetric routines.
SYMMETRY_ATOL = 1e-10

#: :func:`pinv` treats eigenvalues at most this fraction of the largest
#: magnitude as zero.
PINV_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense real matrix (row-major float64 storage).

    Rejects non-finite entries and empty shapes at construction.  ``data``
    accepts anything :func:`numpy.asarray` turns into a 2-D array.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.array(self.data, dtype=float, order="C", copy=True)
        except ValueError as exc:
            raise DimensionMismatch(f"not a rectangular real matrix: {exc}") from exc
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` sorted descending (stable
    order on ties) and orthogonal eigenvector columns aligned with them,
    so that ``S = V diag(w) V^T``.

    Raises :class:`NotSymmetric` unless the input is a non-empty square
    array symmetric within ``SYMMETRY_ATOL``; :class:`ValueError` on NaN/inf.
    """
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.size == 0 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a non-empty square 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    asym = float(np.abs(m - m.T).max())
    if asym > SYMMETRY_ATOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_ATOL:.0e}")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(-w, kind="stable")
    # kept C-ordered: matmul's rounding depends on operand layout
    return w[order], np.ascontiguousarray(v[:, order])


def pinv(s: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Eigenvalues at most ``PINV_RTOL`` times the largest magnitude are
    treated as zero.  Raises as :func:`sym_eig` does.
    """
    w, v = sym_eig(s)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.zeros_like(v)
    inv_w = np.zeros_like(w)
    keep = np.abs(w) > PINV_RTOL * scale
    inv_w[keep] = 1.0 / w[keep]
    return (v * inv_w) @ v.T
