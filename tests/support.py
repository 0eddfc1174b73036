"""Shared fixtures-in-spirit: model builders used across the test modules."""

import math

import numpy as np

from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel

# Frozen reference constants for the two-component demonstration model
# (lam = [20, 0.5], sigma2 = 1, M = L = 2), derived independently with
# 40-digit arithmetic from the closed forms.
R2_COND = 0.7572865864148791
R2_OBS = 1.9036774610288021
MMSE_EXAMPLE = 5.0 / 14.0
IDRF_AT_1 = 0.6388609420523627
CE_AT_1 = 0.6428571428571429
GAP_AT_1 = 0.003996200804780188
GAP_AT_19037 = 0.05009483899565168
GAP_AT_2 = 0.04686016317421198
GAP_AT_3 = 0.02343008158710599
MAX_GAP = 0.05009562162463500
LB_AT_2 = 0.012523905406158749
UB_AT_2 = 1.3125


def example_model() -> ObservationModel:
    return ObservationModel(Matrix(np.diag([math.sqrt(20.0), math.sqrt(0.5)])), 1.0)


def model_from_eigs(lambdas, sigma2) -> ObservationModel:
    """Diagonal observation matrix with prescribed gram eigenvalues."""
    return ObservationModel(Matrix(np.diag([math.sqrt(v) for v in lambdas])), sigma2)


def random_model(rng: np.random.Generator, max_dim: int = 6,
                 sigma2_choices=(0.1, 1.0, 10.0)) -> ObservationModel:
    m = int(rng.integers(1, max_dim + 1))
    l_dim = int(rng.integers(1, max_dim + 1))
    a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
    return ObservationModel(Matrix(a), float(rng.choice(sigma2_choices)))


def rank_deficient_model(rng: np.random.Generator, l_dim: int = 4, m: int = 3,
                         rank: int = 2, sigma2: float = 1.0) -> ObservationModel:
    b = rng.uniform(-2.0, 2.0, size=(l_dim, rank))
    c = rng.uniform(-2.0, 2.0, size=(rank, m))
    return ObservationModel(Matrix(b @ c), sigma2)


_IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]
_HUGE = 10 ** 400  # a 401-digit JSON integer, which no double holds

#: Model files that every command must reject: ``(doc, message)``, the file
#: ``json.dumps(doc)`` and the start of the error line after ``error: ``, with
#: ``{path}`` for the file's path
MALFORMED_MODELS = [
    ([[1.0]], "ParseError: {path}: top-level document must be a JSON object\n"),
    ({"A": [[1.0]], "sigma2": "1"}, "ParseError: field 'sigma2': expected a number, got str\n"),
    ({"A": _IDENTITY_2, "sigma2": 1.0, "sigma_x": [["a", 0.0], [0.0, 1.0]]},
     "ParseError: field 'sigma_x': expected numbers, got str\n"),
    ({"A": _IDENTITY_2, "sigma2": 1.0, "sigma_x": [[1.0]]},
     "InvalidModel: field 'sigma_x': expected 2x2, got 1x1\n"),
    ({"A": [[_HUGE, 1]], "sigma2": 1}, "InvalidModel: field 'A': matrix entries must be finite"),
    ({"A": [[1]], "sigma2": _HUGE}, "InvalidModel: sigma2 must be a positive finite real, got inf\n"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1, 0], [0, -_HUGE]]},
     "InvalidModel: field 'sigma_x': matrix entries must be finite"),
    ({"A": [["1.5", True]], "sigma2": 1}, "ParseError: field 'A': expected numbers, got bool\n"),
    ({"A": [[1.5, "2"]], "sigma2": 1}, "ParseError: field 'A': expected numbers, got str\n"),
    ({"A": [[1.5, None]], "sigma2": 1}, "ParseError: field 'A': expected numbers, got NoneType\n"),
    ({"A": [[1.5]], "sigma2": True}, "ParseError: field 'sigma2': expected a number, got bool\n"),
    ({"A": "abc", "sigma2": 1}, "ParseError: field 'A': expected an array of arrays, got str\n"),
    ({"A": 3.0, "sigma2": 1}, "ParseError: field 'A': expected an array of arrays, got float\n"),
    ({"A": [1.0, 2.0], "sigma2": 1},
     "ParseError: field 'A': expected an array of arrays, got an array holding float\n"),
    ({"A": [[1.0], 2.0], "sigma2": 1},
     "ParseError: field 'A': expected an array of arrays, got an array holding float\n"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": {"a": 1}},
     "ParseError: field 'sigma_x': expected an array of arrays, got dict\n"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1.0, 0.0], "0 1"]},
     "ParseError: field 'sigma_x': expected an array of arrays, got an array holding str\n"),
    ({"A": [[1.0], [1.0, 2.0]], "sigma2": 1}, "InvalidModel: field 'A': not a rectangular real matrix"),
    ({"A": [], "sigma2": 1}, "InvalidModel: field 'A': expected a 2-D array, got ndim=1\n"),
    ({"A": [[[1.0]]], "sigma2": 1}, "ParseError: field 'A': expected numbers, got list\n"),
    ({"A": [[1.0, [2.0]]], "sigma2": 1}, "ParseError: field 'A': expected numbers, got list\n"),
    ({"A": [[]], "sigma2": 1},
     "InvalidModel: field 'A': matrix dimensions must be positive, got (1, 0)\n"),
    ({"A": [[5e153]], "sigma2": 1.7e308},
     "InvalidModel: lambda1 + sigma2 overflows double precision: 2.500e+307 + 1.700e+308"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1.0, 2.0], [0.0, 1.0]]},
     "InvalidModel: field 'sigma_x': asymmetry 2.000e+00 exceeds 2 eps max|S| = 8.882e-16\n"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1.0, 0.0], [0.0, 0.0]]},
     "InvalidModel: field 'sigma_x': smallest eigenvalue 0.000e+00 is not above the rank tolerance\n"),
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1.0, 0.0], [0.0, -1e-3]]},
     "InvalidModel: field 'sigma_x': smallest eigenvalue -1.000e-03 is not above the rank tolerance\n"),
    # at most M eps = 4.4e-16 of the largest: rounding noise
    ({"A": _IDENTITY_2, "sigma2": 1, "sigma_x": [[1.0, 0.0], [0.0, 4e-16]]},
     "InvalidModel: field 'sigma_x': smallest eigenvalue 4.000e-16 is not above the rank tolerance\n"),
]

_DEEP = "[" * 10_000 + "]" * 10_000  # past json's nesting limit; orjson has none

#: Model files that ``json.dumps`` cannot write, each of which a reader other
#: than ``json`` could misread: name -> ``(file bytes, message)``, as in
#: :data:`MALFORMED_MODELS`
RAW_MALFORMED_MODELS = {
    "sigma2-minus-zero": (b'{"A": [[1.0]], "sigma2": -0}',
                          "InvalidModel: sigma2 must be a positive finite real, got -0.0\n"),
    "int-entry-and-minus-zero": (b'{"A": [[1, 0], [0, 2]], "sigma2": -0}',
                                 "InvalidModel: sigma2 must be a positive finite real, got -0.0\n"),
    "nan-entry": (b'{"A": [[1.0, NaN]], "sigma2": 1.0}',
                  "InvalidModel: field 'A': matrix entries must be finite (no NaN/Inf)\n"),
    "float-1e400": (b'{"A": [[1.0]], "sigma2": 1e400}',
                    "InvalidModel: sigma2 must be a positive finite real, got inf\n"),
    "utf8-bom": (b'\xef\xbb\xbf{"A": [[1.0]], "sigma2": 1.0}',
                 "ParseError: {path}: line 1, column 1: "
                 "Unexpected UTF-8 BOM (decode using utf-8-sig)\n"),
    # universal newlines: each lone \r ends a line, as json on the raw bytes would not count it
    "lone-cr-line-3": (b'{\r"A": [[1.0]],\r"sigma2": }',
                       "ParseError: {path}: line 3, column 11: Expecting value\n"),
    "deep-unknown-key": (f'{{"A": [[1.0]], "sigma2": 1.0, "x": {_DEEP}}}'.encode(),
                         "ParseError: {path}: arrays or objects nested too deeply\n"),
    "duplicate-sigma2": (b'{"A": [[1.0]], "sigma2": 1.0, "sigma2": -2.0}',
                         "InvalidModel: sigma2 must be a positive finite real, got -2.0\n"),
}

#: Valid model files that a reader other than ``json`` could misread:
#: name -> ``(file bytes, A, sigma2)`` as ``json.loads(text, parse_int=float)`` reads them
RAW_MODELS = {
    "int-entries": (b'{"A": [[1, -0], [0, 2]], "sigma2": 1.0}', [[1.0, -0.0], [0.0, 2.0]], 1.0),
    # past 64 bits, orjson reads an integer as a double
    "long-int-entry": (b'{"A": [[123456789012345678901234567890]], "sigma2": 1.0}',
                       [[1.2345678901234568e+29]], 1.0),
    "duplicate-sigma2-last-wins": (b'{"A": [[1.0]], "sigma2": -1.0, "sigma2": 2.0}', [[1.0]], 2.0),
    "crlf-and-null-sigma-x": (b'{"A": [[0.1, 2.5e-300]],\r\n"sigma2": 3.0,\r\n"sigma_x": null}\r\n',
                              [[0.1, 2.5e-300]], 3.0),
}
