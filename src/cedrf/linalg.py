"""Validated inputs and symmetric spectral decompositions.

Every number a caller passes is read by :func:`real` (one number) or
:func:`reals` (an array), which raise a :class:`TypeError` naming the parameter
for anything that is not real; :func:`vector` is :func:`reals` for a 1-D
parameter.  :class:`Matrix` holds a finite, non-empty, read-only 2-D array and
is kept for user input; :func:`as_matrix` wraps any real 2-D array in one, and
both read under :data:`rectangular`, which names rows of unequal lengths.

The model spectrum, the oracles' singular vectors and the
compress-and-estimate decoder come from ``numpy.linalg.svd`` in
:mod:`cedrf.spectral` and :mod:`cedrf.oracle`: ``spectral`` factors ``A`` at
unit scale, divided by a power of two, and the oracle's stacked SVDs take
matrices that are already scale-free.  What is left here whitens a
source covariance (:func:`sym_eig`) and holds the rank rule that the model,
whitening and :func:`pinv` share (:func:`above_noise`, :func:`noise_level`).  :func:`pinv` has
no caller in the library; the benchmark's tracer wraps it by name.  It and
:func:`sym_eig` take plain arrays, check that they are finite, square and
symmetric, then diagonalize them with LAPACK's symmetric eigensolver
through :func:`numpy.linalg.eigh`.  Results are bit-identical from run to
run on one platform and numpy/BLAS build.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
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
    is read by :func:`reals`, so it is any real array that is 2-D, and copied
    unless it is a read-only float64 array that owns its C-ordered data.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        with rectangular:
            arr = reals("data", self.data)
        if arr.flags.writeable or not (arr.flags.owndata and arr.flags.c_contiguous):
            arr = np.array(arr, order="C")
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


class _Rectangular:
    """Raise numpy's :class:`ValueError` for nested rows of unequal lengths, met while an array
    is read in a ``with rectangular:`` block, as a :class:`DimensionMismatch` naming the cause."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise DimensionMismatch(f"not a rectangular real matrix: {exc}") from exc


rectangular = _Rectangular()


def _shown(value) -> str:
    """``value``'s type and a repr cut to a few dozen characters, for an error message."""
    return f"{type(value).__name__} {reprlib.repr(value)}"


def real(name: str, value) -> float:
    """``value`` as a float if it is a :class:`numbers.Real` that is no ``bool`` (numpy's scalars
    are), or a 0-d array of one; else a :class:`TypeError` naming ``name``.  An int past the
    largest double reads as an infinity, as the CLI's JSON reader reads it."""
    # the ABC check last: it is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        if isinstance(value, np.ndarray) and value.ndim == 0:
            return real(name, value[()])
        raise TypeError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def reals(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, if numpy reads it with ``dtype.kind`` in ``"iuf"``; else a
    :class:`TypeError` naming ``name``.  Nested sequences of unequal lengths raise numpy's
    :class:`ValueError`.  ``astype(copy=False)`` returns a float64 array as it is, not copied.
    A Python int that neither int64 nor uint64 holds makes numpy's array one of objects, so it
    is that :class:`TypeError`, where :func:`real` reads it alone as an infinity."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be an array of real numbers, got {_shown(value)}")
    return arr.astype(np.float64, copy=False)


def vector(name: str, value) -> np.ndarray:
    """``value`` read by :func:`reals` if it is 1-D, else a :class:`ValueError` naming its shape."""
    arr = reals(name, value)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


def as_matrix(name: str, value) -> Matrix:
    """``value`` if it is a :class:`Matrix`, else one of ``value`` as :func:`reals` reads it."""
    if isinstance(value, Matrix):
        return value
    with rectangular:
        arr = reals(name, value)
    return Matrix(arr)


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` sorted descending (stable
    order on ties) and orthogonal eigenvector columns aligned with them,
    so that ``S = V diag(w) V^T``.

    Raises :class:`NotSymmetric` unless the input is a non-empty square
    array whose asymmetry ``max|S - S^T|`` is at most ``n eps max|S|``
    (:func:`noise_level`); :class:`ValueError` on NaN/inf.
    """
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.size == 0 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a non-empty square 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    half, half_t = m / 2.0, m.T / 2.0  # m + m.T and m - m.T overflow past DBL_MAX / 2
    asym, n = 2.0 * float(np.abs(half - half_t).max()), m.shape[0]
    tol = noise_level(np.abs(m).max(), n)
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {n} eps max|S| = {tol:.3e}")
    w, v = np.linalg.eigh(half + half_t)
    order = np.argsort(-w, kind="stable")
    # kept C-ordered: matmul's rounding depends on operand layout
    return w[order], np.ascontiguousarray(v[:, order])


def noise_level(top: float, n: int) -> float:
    """``n eps top``, the rounding noise of an ``n``-wide matrix's singular values or eigenvalues,
    ``top`` the largest: ``n eps`` first, as ``top * n`` may overflow.  ``eps`` is a power of two,
    so it rounds as numpy's ``top * n * eps`` does, unless it is subnormal."""
    return float(top) * (n * sys.float_info.epsilon)


def above_noise(values: np.ndarray, n: int) -> np.ndarray:
    """Mask of the ``values`` above their :func:`noise_level`: the rest are rounding noise.

    For the singular values or eigenvalues of an ``n``-wide matrix, this is
    :func:`numpy.linalg.matrix_rank`'s default cut.
    """
    v = np.asarray(values, dtype=float)
    return v > noise_level(v.max(), n)


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
