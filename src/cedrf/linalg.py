"""Validated input matrices and symmetric spectral decompositions.

:class:`Matrix` holds a finite, non-empty, read-only 2-D array and is kept
for user input.  The model spectrum, the oracles' singular vectors and the
compress-and-estimate decoder come from ``numpy.linalg.svd`` in
:mod:`cedrf.spectral` and :mod:`cedrf.oracle`; what is left here whitens a
source covariance (:func:`sym_eig`) and holds the rank rule that the model,
whitening and :func:`pinv` share (:func:`above_noise`).  :func:`pinv` has
no caller in the library: the tests check the decoder against it.  It and
:func:`sym_eig` take plain arrays, check that they are finite, square and
symmetric, then diagonalize them with LAPACK's symmetric eigensolver
through :func:`numpy.linalg.eigh`.  Results are bit-identical from run to
run on one platform and numpy/BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSymmetric(ValueError):
    """A symmetric-only operation received an asymmetric (or non-square) matrix."""


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
    array whose asymmetry ``max|S - S^T|`` is at most ``n eps max|S|``, the
    relative rule of :func:`above_noise`; :class:`ValueError` on NaN/inf.
    """
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.size == 0 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a non-empty square 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    half, half_t = m / 2.0, m.T / 2.0  # m + m.T and m - m.T overflow past DBL_MAX / 2
    asym, n = 2.0 * float(np.abs(half - half_t).max()), m.shape[0]
    tol = float(np.abs(m).max()) * (n * np.finfo(float).eps)
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {n} eps max|S| = {tol:.3e}")
    w, v = np.linalg.eigh(half + half_t)
    order = np.argsort(-w, kind="stable")
    # kept C-ordered: matmul's rounding depends on operand layout
    return w[order], np.ascontiguousarray(v[:, order])


def above_noise(values: np.ndarray, n: int) -> np.ndarray:
    """Mask of the ``values`` above ``n eps`` times their largest: the rest are rounding noise.

    For the singular values or eigenvalues of an ``n``-wide matrix, this is
    :func:`numpy.linalg.matrix_rank`'s default cut: ``eps`` is a power of two,
    so the cut rounds as numpy's ``top * n * eps`` does, unless it is subnormal.
    """
    v = np.asarray(values, dtype=float)
    return v > v.max() * (n * np.finfo(float).eps)  # n eps first: top * n may overflow


def pinv(s: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Inverts the eigenvalues that :func:`above_noise` keeps in magnitude
    and zeroes the rest.  Raises as :func:`sym_eig` does.
    """
    w, v = sym_eig(s)
    inv_w = np.zeros_like(w)
    keep = above_noise(np.abs(w), w.size)
    inv_w[keep] = 1.0 / w[keep]
    return (v * inv_w) @ v.T
