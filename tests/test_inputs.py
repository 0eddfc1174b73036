"""Every number a public entry point takes is read by one owner: ``linalg.real`` or ``reals``.

A real number is a ``numbers.Real`` that is no ``bool``, or what numpy reads
with ``dtype.kind`` in ``"iuf"``; anything else is a ``TypeError`` that
names the parameter.  What is accepted keeps every bit it had.
"""

import inspect
import math
import re

import numpy as np
import pytest

import cedrf
from cedrf import (
    Matrix,
    ObservationModel,
    Spectrum,
    ce_matrix_forms,
    drf,
    idrf,
    max_gap_2d,
    mc_ce,
    mc_estimates,
    mc_mmse,
    sweep,
    whiten,
)
from cedrf.linalg import DimensionMismatch
from support import example_model

#: a valid value for every parameter of a public function or class, by name
VALID = {
    "R": 1.0, "R_grid": [0.0, 1.0], "rates": [0.5], "ce_rates": [0.5], "idrf_rates": [0.5],
    "n_samples": 10, "seed": 0, "sigma2": 1.0, "lambda1": 20.0, "lambda2": 0.5,
    "values": [2.0, 1.0], "data": [[1.0]], "A": np.eye(2), "sigma_x": np.eye(2),
}
#: parameters that take no number: a model, a spectrum, and mc_estimates' flag
NOT_NUMBERS = {"model", "spectrum", "mmse"}
BAD = ["1", b"1", True, None, 1j]


def _entry_points():
    """``(name, parameter)`` for every number-taking parameter of ``cedrf.__all__``'s functions
    and input classes; result records (named tuples) are outputs, not inputs."""
    found = []
    for name in cedrf.__all__:
        obj = getattr(cedrf, name)
        if isinstance(obj, type) and issubclass(obj, tuple):
            continue
        for param in inspect.signature(obj).parameters:
            assert param in VALID or param in NOT_NUMBERS, f"{name}({param}): classify it"
            if param in VALID:
                found.append((name, param))
    return found


MODEL, ENTRY_POINTS = example_model(), _entry_points()


def _call(name, **given):
    obj = getattr(cedrf, name)
    defaults = {"model": MODEL, "spectrum": MODEL.observation, "mmse": True, **VALID}
    kwargs = {p: given.get(p, defaults[p]) for p in inspect.signature(obj).parameters}
    return obj(**kwargs)


def test_every_number_taking_entry_point_is_listed():
    names = {name for name, _ in ENTRY_POINTS}
    assert {"Matrix", "ObservationModel", "Spectrum", "whiten", "sweep", "am_gm_pair", "gap_2d",
            "max_gap_2d", "mc_estimates", "ce_matrix_forms", "water_level"} <= names


@pytest.mark.parametrize("name, param", ENTRY_POINTS, ids=[f"{n}-{p}" for n, p in ENTRY_POINTS])
def test_a_value_that_is_no_real_number_is_a_type_error_naming_the_parameter(name, param):
    _call(name)  # the valid call runs
    for bad in BAD:
        with pytest.raises(TypeError, match=rf"^{param} must be (a real number|an array of real "
                                            rf"numbers), got {type(bad).__name__} "):
            _call(name, **{param: bad})


@pytest.mark.parametrize("name, param", [(n, p) for n, p in ENTRY_POINTS
                                         if not isinstance(VALID[p], (list, np.ndarray))])
def test_a_list_where_one_number_is_due_is_a_type_error_naming_the_parameter(name, param):
    for bad in ([1.0], np.array([1.0]), [[1.0]]):
        with pytest.raises(TypeError, match=rf"^{param} must be a real number, got "):
            _call(name, **{param: bad})


def test_a_model_of_a_plain_array_equals_its_matrix_form_bit_for_bit():
    rng = np.random.default_rng(3)
    a, sx = rng.uniform(-2.0, 2.0, size=(3, 2)), np.array([[2.0, 0.5], [0.5, 1.0]])
    pairs = [(ObservationModel(np.eye(2), 1.0), ObservationModel(Matrix(np.eye(2)), 1.0)),
             (ObservationModel(a, 0.1), ObservationModel(Matrix(a), 0.1)),
             (ObservationModel(a.tolist(), 0.1), ObservationModel(Matrix(a), 0.1)),
             (whiten(np.eye(2), np.eye(2), 1.0), whiten(Matrix(np.eye(2)), Matrix(np.eye(2)), 1.0)),
             (whiten(sx, a, 0.1), whiten(Matrix(sx), Matrix(a), 0.1))]
    grid = np.linspace(0.0, 12.0, 49)
    for plain, wrapped in pairs:
        assert isinstance(plain.A, Matrix) and plain.A.data.tobytes() == wrapped.A.data.tobytes()
        assert plain.sigma2.hex() == wrapped.sigma2.hex()
        for p, w in zip(drf._columns(plain, grid), drf._columns(wrapped, grid), strict=True):
            assert p.tobytes() == w.tobytes()
        assert ce_matrix_forms(plain, grid) == ce_matrix_forms(wrapped, grid)
    model = pairs[1][1]
    assert ObservationModel(model.A, 0.1).A is model.A  # a Matrix is kept, not copied


def test_a_list_rate_in_monte_carlo_names_the_rate():
    model = example_model()
    with pytest.raises(TypeError, match=r"^R must be a real number, got list \[1\.0\]$"):
        mc_ce(model, [1.0], 10, 0)


def test_accepted_numbers_keep_every_bit():
    # Python ints within int64, and numpy integer, float32 and float64 scalars and arrays
    model = example_model()
    for r, same in ((1, 1.0), (np.int64(3), 3.0), (np.uint8(2), 2.0),
                    (np.float32(0.3), 0.30000001192092896), (np.float64(0.7), 0.7),
                    (np.array(0.7), 0.7), (2 ** 62 + 1, float(2 ** 62 + 1))):
        assert idrf(model, r).hex() == idrf(model, same).hex(), r
        assert mc_ce(model, r, 100, 1) == mc_ce(model, same, 100, 1), r
    grids = ([0, 1, 2], np.arange(3), np.arange(3, dtype=np.uint16), np.arange(3, dtype=np.float32),
             np.arange(3.0).tolist())
    for grid in grids:
        assert sweep(model, grid) == sweep(model, [0.0, 1.0, 2.0])
        assert ce_matrix_forms(model, grid) == ce_matrix_forms(model, [0.0, 1.0, 2.0])
    for data in ([[2, 0], [0, 1]], np.array([[2, 0], [0, 1]], dtype=np.int32),
                 np.array([[2, 0], [0, 1]], dtype=np.float32)):
        assert Matrix(data).data.tobytes() == Matrix([[2.0, 0.0], [0.0, 1.0]]).data.tobytes()
        assert Spectrum(data[0]).values.tobytes() == Spectrum([2.0, 0.0]).values.tobytes()
    assert max_gap_2d(20, np.float32(0.5), np.int64(1)) == max_gap_2d(20.0, 0.5, 1.0)
    assert mc_estimates(model, np.int64(10), np.uint32(1), mmse=True) == mc_estimates(
        model, 10, 1, mmse=True)
    # a Python int past int64 is an integer still: a seed too large for a double keeps every
    # bit, so one a unit apart draws another stream
    est = mc_mmse(model, 10, 10 ** 400)
    assert est.seed == 10 ** 400 and est.mean != mc_mmse(model, 10, 10 ** 400 + 1).mean


def test_an_int_past_the_largest_double_reads_as_infinite():
    # as the CLI's JSON reader reads 10**400, so the range check names it
    model = example_model()
    with pytest.raises(ValueError, match=r"^rate must be a finite non-negative real, got inf$"):
        idrf(model, 10 ** 400)
    with pytest.raises(ValueError, match="sigma2 must be a positive finite real"):
        ObservationModel(np.eye(2), 10 ** 400)
    # in an array, an int that neither int64 nor uint64 holds makes numpy's array one of objects
    for grid in ([0, 10 ** 400], [2 ** 64], [-2 ** 63 - 1]):
        with pytest.raises(TypeError, match=r"^R_grid must be an array of real numbers, got list"):
            sweep(model, grid)


def test_shapes_and_ranges_keep_their_messages():
    model = example_model()
    for build in (lambda a: Matrix(a), lambda a: ObservationModel(a, 1.0),
                  lambda a: whiten(np.eye(1), a, 1.0), lambda a: whiten(a, np.eye(1), 1.0)):
        with pytest.raises(DimensionMismatch, match=r"^not a rectangular real matrix: "):
            build([[1.0], [1.0, 2.0]])
    with pytest.raises(DimensionMismatch, match=r"^expected a 2-D array, got ndim=1$"):
        ObservationModel([1.0, 2.0], 1.0)
    with pytest.raises(drf.InvalidGrid, match=r"^R_grid must be a 1-D array, got shape \(\)$"):
        sweep(model, 1.0)
    with pytest.raises(ValueError, match=re.escape("rates must be a 1-D array, got shape (1, 1)")):
        ce_matrix_forms(model, [[1.0]])
    with pytest.raises(ValueError, match=re.escape("ce_rates must be a 1-D array, got shape ()")):
        mc_estimates(model, 10, 1, ce_rates=1.0)
    with pytest.raises(ValueError, match=re.escape("values must be a 1-D array, got shape ()")):
        drf.am_gm_pair(4.0)
    # the first bad rate is named, as the one-rate check names it
    for rates, bad in (([0.5, -1, math.nan], -1.0), ([math.nan, -1.0], math.nan),
                       (np.array([1.0, np.inf]), math.inf)):
        with pytest.raises(ValueError, match=re.escape(
                f"rate must be a finite non-negative real, got {bad!r}")):
            ce_matrix_forms(model, rates)


def test_a_rate_grid_names_its_first_bad_rate_and_its_shape():
    # sweep reads its grid as the oracles read a list of rates, then checks the order
    model = example_model()
    for grid, text in (([0.0, -1.0], "rate must be a finite non-negative real, got -1.0"),
                       ([-1.0, 2.0], "rate must be a finite non-negative real, got -1.0"),
                       ([0.0, math.nan], "rate must be a finite non-negative real, got nan"),
                       ([[0.0, 1.0]], "R_grid must be a 1-D array, got shape (1, 2)"),
                       ([], "rate grid is empty"),
                       ([0, 1, 1], "rates must be strictly increasing")):
        with pytest.raises(drf.InvalidGrid, match=f"^{re.escape(text)}$"):
            sweep(model, grid)
    with pytest.raises(ValueError, match=r"^values must be a 1-D array, got shape \(2, 2\)$"):
        Spectrum(np.ones((2, 2)))
