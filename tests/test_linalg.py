
import math

import numpy as np
import pytest

from cedrf.linalg import DimensionMismatch, Matrix, NotSymmetric, pinv, sym_eig


def frob(a: np.ndarray) -> float:
    return float(np.sqrt((a * a).sum()))


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[1.0, float("inf")]])
    with pytest.raises(DimensionMismatch):
        Matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        Matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch):
        Matrix(np.zeros((0, 3)))


def test_matrix_entries_row_major():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.rows == 2 and m.cols == 2
    assert m.data.flags.c_contiguous and m.data[0, 1] == 2.0
    assert not m.data.flags.writeable


def test_sym_eig_identity():
    w, v = sym_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)


def test_sym_eig_diagonal_sorted_descending():
    w, _ = sym_eig(np.diag([0.5, 20.0]))
    assert np.allclose(w, [20.0, 0.5], atol=0.0)


def test_sym_eig_hand_derived_2x2():
    # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 = 0 -> x = 3, 1
    w, v = sym_eig([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)
    s = v @ np.diag(w) @ v.T
    assert np.allclose(s, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_sym_eig_reconstruction_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    s = rng.uniform(-10.0, 10.0, size=(n, n))
    s = (s + s.T) / 2.0
    w, v = sym_eig(s)
    assert all(a >= b for a, b in zip(w, w[1:]))
    scale = max(frob(s), 1e-30)
    assert frob(v @ np.diag(w) @ v.T - s) / scale < 1e-9
    assert frob(v @ v.T - np.eye(n)) < 1e-9
    assert abs(float(w.sum()) - float(np.trace(s))) < 1e-9 * max(1.0, scale)


@pytest.mark.parametrize("seed", range(10))
def test_sym_eig_matches_lapack(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 8))
    s = rng.uniform(-10.0, 10.0, size=(n, n))
    s = (s + s.T) / 2.0
    w, _ = sym_eig(s)
    ref = np.linalg.eigvalsh(s)[::-1]
    assert np.allclose(w, ref, atol=1e-9 * max(1.0, frob(s)))


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eig([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(NotSymmetric):
        sym_eig([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])


def test_sym_eig_accepts_tiny_asymmetry():
    # up to n eps max|S| = 4.4e-16 here: one ulp of 0.5 is accepted, 1e-11 is not
    w, _ = sym_eig([[1.0, math.nextafter(0.5, 1.0)], [0.5, 1.0]])
    assert np.allclose(w, [1.5, 0.5], atol=1e-15)
    with pytest.raises(NotSymmetric, match=r"asymmetry 1\.000e-11 exceeds 2 eps max\|S\|"):
        sym_eig([[1.0, 1e-11], [0.0, 1.0]])


def test_pinv_diagonal_cases():
    assert np.allclose(pinv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)
    with pytest.raises(NotSymmetric):
        pinv(np.zeros((2, 3)))
    assert np.allclose(pinv(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_pinv_inverts_nonsingular():
    a = np.diag([2.0, 5.0])
    assert np.allclose(a @ pinv(a), np.eye(2), atol=1e-12)
    # 1e-14 of the largest magnitude lies above n eps = 4.4e-16: inverted, not zeroed
    assert pinv(np.diag([-1.0, 1e-14])).tolist() == [[-1.0, 0.0], [0.0, 1e14]]


def _penrose_errors(a: np.ndarray, p: np.ndarray) -> float:
    ap, pa = a @ p, p @ a
    return max(
        frob(a @ p @ a - a) / max(1.0, frob(a)),
        frob(p @ a @ p - p) / max(1.0, frob(p)),
        frob(ap - ap.T) / max(1.0, frob(ap)),
        frob(pa - pa.T) / max(1.0, frob(pa)),
    )


@pytest.mark.parametrize("seed", range(12))
def test_pinv_penrose_identities_all_ranks(seed):
    rng = np.random.default_rng(200 + seed)
    l_dim = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    for rank in range(0, min(l_dim, m) + 1):
        if rank == 0:
            a = np.zeros((l_dim, m))
        else:
            a = rng.uniform(-3.0, 3.0, size=(l_dim, rank)) @ rng.uniform(
                -3.0, 3.0, size=(rank, m)
            )
        s = a @ a.T
        p = pinv(s)
        assert _penrose_errors(s, p) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_pinv_matches_numpy_on_symmetric_psd(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 6))
    b = rng.uniform(-2.0, 2.0, size=(n, n))
    s = b @ b.T
    ours = pinv(s)
    ref = np.linalg.pinv(s, rcond=1e-12, hermitian=True)
    assert np.allclose(ours, ref, atol=1e-8 * max(1.0, frob(ref)))


def test_sym_eig_medium_size():
    rng = np.random.default_rng(55)
    n = 40
    s = rng.uniform(-5.0, 5.0, size=(n, n))
    s = (s + s.T) / 2.0
    w, v = sym_eig(s)
    assert frob(v @ np.diag(w) @ v.T - s) / frob(s) < 1e-9
    assert frob(v @ v.T - np.eye(n)) < 1e-9


@pytest.mark.parametrize("fn", [sym_eig, pinv])
@pytest.mark.parametrize(
    "bad, error, cause",
    [
        (np.array([1.0, 2.0]), NotSymmetric, "square 2-D"),
        (np.zeros((0, 0)), NotSymmetric, "non-empty"),
        (np.zeros((2, 3)), NotSymmetric, "square"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError, "finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError, "finite"),
        (np.array([[1.0, 2.0], [0.5, 1.0]]), NotSymmetric, "asymmetry"),
    ],
)
def test_array_routines_name_what_is_wrong(fn, bad, error, cause):
    with pytest.raises(error, match=cause):
        fn(bad)


def test_array_routines_return_c_ordered_arrays():
    # products with these arrays round by their layout; callers rely on C order
    s = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    w, v = sym_eig(s)
    for out in (w, v, pinv(s), pinv(np.zeros((2, 2)))):
        assert out.flags.c_contiguous
