"""Command-line front end.

Subcommands: ``analyze`` (one-rate report), ``sweep`` (rate grid to
CSV/JSON), ``verify`` (closed forms against the matrix/Monte-Carlo
oracles, from one closed-form grid and one compress-and-estimate test
channel per model), and ``example`` (the built-in two-component
demonstration model with its figure data).

``sweep`` and ``example`` write their tables straight from the column
kernel ``drf._columns``, with no per-row objects, as bytes in pieces of 512
rows.  A CSV table (``_csv``) spells a float ``"%.17g" % v`` and an integer
(an active count) ``"%d" % k``, through a digit engine built from numpy
arrays and not by ``%``.  Each value's 17 decimal digits come from an exact
product with a double-double table of powers of ten (Dekker's TwoProduct).
The text comes from digit lookup tables and a byte mask per key
``(X, count)`` (``_KEY_SHAPE``), with the column's one-byte separator
in the leading byte of every value's block, and one ``bytes.translate``
deletes the masked bytes.  The digit step's arrays and a piece's blocks,
masks and digit groups are views of one work buffer that each piece of a
table reuses.  Every column the program writes is non-negative, so the
engine decides only ``+0.0`` and ``x`` in ``[1e-290, 1e290)``.  ``%``
writes the rest (nan, inf, ``-0.0`` and negative values among them) and each
value the engine cannot prove: one whose ``floor(log10 x)`` is not its
exponent, one whose digits carry into the next decade, and one whose scaled
fraction lies within ``_MARGIN`` (2^-40) of 1/2 (ties, which ``%`` rounds to even).
The JSON sweep file (``_json``) is orjson's: in each piece, one
``orjson.dumps`` of each column's numpy slice writes its values, with no
Python list between, and a template of the piece's rows takes them.

Model files are JSON documents with keys ``A`` (nested array of L rows of
M reals), ``sigma2`` (positive real), and optionally ``sigma_x`` (an M x M
source covariance, which triggers whitening; distortion is then measured
on the whitened source).  ``load_model`` decodes a file with ``orjson``, a
runtime dependency, and keeps the document when it has no key beyond these
three and passes every check.  The stdlib ``json`` decoder, reading integers
as doubles, rules on every other file and gives its result or message.  Both
round every number correctly, so a model's doubles do not depend on which
one read it.  Rates are bits unless ``--nats`` is given, in
which case rate-valued inputs are divided by one factor, ln 2, on the way in
and outputs multiplied by it on the way out.
The ``analyze`` text spells floats ``"%.12g"``, one ``%`` per list
(``_fnums``).  Both JSON files are orjson's RFC 8259 bytes: each float in
the shortest digits that read back as the same double, in orjson's layout,
integers as integers, and ``null`` for a non-finite float.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from . import drf, oracle, waterfill
from .linalg import DimensionMismatch, Matrix, NotSymmetric, rectangular
from .spectral import _LN2, NotPositiveDefinite, ObservationModel, whiten

CSV_HEADER = ",".join(drf.DistortionPoint._fields)

#: The keys of a model file
_MODEL_KEYS = frozenset(("A", "sigma2", "sigma_x"))


class ParseError(ValueError):
    """Model file is not valid JSON or has a malformed field."""


class InvalidModel(ValueError):
    """Model file violates a model invariant."""


def _to_bits(rate: float, unit: float, option: str) -> float:
    """``rate / unit``, a typed rate in bits, where ``unit`` is one bit in the typed unit (``_LN2``
    nats, or 1.0); a finite nats rate whose bits overflow is an error naming ``option``."""
    bits = rate / unit  # Python floats: inf, no warning
    if math.isinf(bits) and math.isfinite(rate):
        raise ValueError(f"{option} must convert to a finite rate in bits, got {rate} nats")
    return bits


def _json_indent2(doc) -> bytes:
    """The ``analyze --json`` file of ``doc``: orjson's bytes, a 2-space indent and a newline."""
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)


def _matrix(doc: dict, field: str) -> Matrix:
    """``doc[field]`` as a :class:`Matrix`: rows of JSON numbers."""
    rows = doc[field]
    if not isinstance(rows, list):
        raise ParseError(f"field '{field}': expected an array of arrays, got {type(rows).__name__}")
    for row in rows:
        if not isinstance(row, list):
            raise ParseError(f"field '{field}': expected an array of arrays, "
                             f"got an array holding {type(row).__name__}")
    kinds = set(map(type, itertools.chain.from_iterable(rows))) - {float}
    if kinds:
        raise ParseError(f"field '{field}': expected numbers, got {min(k.__name__ for k in kinds)}")
    try:
        with rectangular:  # floats only by now, so numpy infers no dtype
            data = np.array(rows, dtype=float)
        data.setflags(write=False)  # so Matrix keeps it and does not copy it again
        return Matrix(data)
    except ValueError as exc:
        raise InvalidModel(f"field '{field}': {exc}") from exc


def _fields(doc, path) -> tuple[Matrix, float, Matrix | None]:
    """``A``, ``sigma2`` and ``sigma_x`` (or ``None``) of a decoded model file."""
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be a JSON object")
    for field in ("A", "sigma2"):
        if field not in doc:
            raise ParseError(f"{path}: missing field '{field}'")
    a = _matrix(doc, "A")
    sigma2 = doc["sigma2"]
    if type(sigma2) is not float:
        raise ParseError(f"field 'sigma2': expected a number, got {type(sigma2).__name__}")
    return a, sigma2, None if doc.get("sigma_x") is None else _matrix(doc, "sigma_x")


def _stdlib_fields(data: bytes, path) -> tuple[Matrix, float, Matrix | None]:
    """:func:`_fields` of ``data`` decoded by ``json``, whose errors name the fault."""
    try:  # integers too are doubles: one too large for a double is inf, as 1e400 is
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(),
                         parse_int=float)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays or objects nested too deeply") from exc
    return _fields(doc, path)


def _orjson_fields(data: bytes, path) -> tuple[Matrix, float, Matrix | None] | None:
    """:func:`_fields` of ``data`` decoded by ``orjson``, or ``None`` where ``json`` must rule.

    Only a document with no key beyond ``A``, ``sigma2`` and ``sigma_x`` is
    used: orjson has no depth limit, so an unknown key could hold nesting
    that json refuses.
    """
    try:
        doc = orjson.loads(data)
        if isinstance(doc, dict) and doc.keys() <= _MODEL_KEYS:
            return _fields(doc, path)
    except (orjson.JSONDecodeError, ParseError, InvalidModel):
        pass
    return None


def load_model(path: str | Path) -> ObservationModel:
    """Read and validate a model JSON file: orjson's reading where :func:`_orjson_fields`
    accepts it, else json's, from the text as ``Path.read_text`` decodes it."""
    data = Path(path).read_bytes()
    a, sigma2, sx = _orjson_fields(data, path) or _stdlib_fields(data, path)
    try:
        return ObservationModel(a, sigma2) if sx is None else whiten(sx, a, sigma2)
    except (DimensionMismatch, NotSymmetric, NotPositiveDefinite) as exc:  # only whitening raises these
        raise InvalidModel(f"field 'sigma_x': {exc}") from exc
    except ValueError as exc:
        raise InvalidModel(str(exc)) from exc


#: The demonstration model's gram spectrum ``lam_1, lam_2`` and its ``sigma2``
_EXAMPLE = (20.0, 0.5, 1.0)


def example_model() -> ObservationModel:
    """The built-in two-observation demonstration model: ``A = diag(sqrt(lam))``."""
    return ObservationModel(Matrix(np.diag(np.sqrt(_EXAMPLE[:2]))), _EXAMPLE[2])


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analysis_report(model: ObservationModel, rate: float, nats: bool) -> dict:
    """The ``analyze`` report at a valid ``rate`` in its typed unit, which ``point.R`` echoes."""
    units, unit = ("nats", _LN2) if nats else ("bits", 1.0)
    rate_bits = _to_bits(rate, unit, "--rate")
    region = drf.equality_region(model)
    point = drf._points(model, np.array([rate_bits]))[0]
    return {
        "units": units,
        "model": {
            "M": model.M,
            "L": model.L,
            "r": model.r,
            "sigma2": model.sigma2,
            "rank": model.gram.rank,
            "full_rank": model.full_rank,
            "mmse_floor": model.mmse_floor,
        },
        "spectra": {name: getattr(model, name).values.tolist()
                    for name in ("gram", "observation", "conditional")},
        "thresholds": {name: [t * unit for t in getattr(model, name).thresholds.tolist()]
                       for name in ("observation", "conditional")},
        "equality_region": dict(region._asdict(), R_limit=region.R_limit * unit),
        "point": dict(point._asdict(), R=rate),
        "rates": {
            "idrf": [r * unit for r in waterfill._rates(model.conditional, rate_bits, point.k_idrf)],
            "ce": [r * unit for r in waterfill._rates(model.observation, rate_bits, point.k_ce)],
        },
    }


def _fnums(values: list) -> str:
    return ("%.12g " * len(values))[:-1] % tuple(values)


def _print_analysis(report: dict) -> None:
    m = report["model"]
    print("model: M=%s L=%s sigma2=%.12g rank=%s full_rank=%s mmse_floor=%.12g"
          % (m["M"], m["L"], m["sigma2"], m["rank"], m["full_rank"], m["mmse_floor"]))
    for name, values in report["spectra"].items():
        print(f"spectrum {name + ':':<12} {_fnums(values)}")
    unit = report["units"]
    for name, values in report["thresholds"].items():
        print(f"thresholds {name} ({unit}): {_fnums(values)}")
    eq = report["equality_region"]
    print("equality region: r0=%s R_limit=%.12g unconditional=%s"
          % (eq["r0"], eq["R_limit"], eq["unconditional"]))
    p = report["point"]
    print("at R = %.12g %s:" % (p["R"], unit))
    print("  d_idrf = %.12g  (k=%s, theta=%.12g)" % (p["d_idrf"], p["k_idrf"], p["theta_idrf"]))
    print("  d_ce   = %.12g  (k=%s, theta=%.12g)" % (p["d_ce"], p["k_ce"], p["theta_ce"]))
    print("  gap    = %.12g  bounds [%.12g, %.12g]" % (p["gap"], p["gap_lb"], p["gap_ub"]))
    for name, values in report["rates"].items():
        print(f"rates {name:<4} ({unit}): {_fnums(values)}")


def cmd_analyze(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    report = _analysis_report(model, waterfill._check_rate(args.rate), args.nats)
    _print_analysis(report)
    if args.json:
        Path(args.json).write_bytes(_json_indent2(report))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


#: values the digit step decides: x in [1e-290, 1e290), where no product it splits
#: overflows or leaves the normal range; +0.0 is decided apart, the rest goes to ``%``
_FAST_RANGE = (1e-290, 1e290)
#: the largest |X| in the tables of 10^(16-X) and exponent words: the range's, and a margin
#: for a ``floor(log10 x)`` rounded past it
_X_MAX = round(math.log10(_FAST_RANGE[1])) + 2
#: a scaled value whose fraction lies this close to 1/2, a tie, goes to ``%``; the digit
#: step's error is below 2^-47
_MARGIN = 2.0 ** -40
_CHUNK_ROWS = 512  # rows per piece of text: one piece's arrays stay near 1 MB
#: one value's 48-byte block, six 8-byte words: two framing bytes (the separator and a pad),
#: a pad and the "0.000" that leads fixed notation below 1; the 17 digits, each followed by
#: a point slot; a pad, "e", and the exponent's sign and three digits
_BLOCK = b"\0" * 3 + b"0.000" + b"0." * 17 + b"\0e+000"
_DIGIT0, _EXP = _BLOCK.index(b"0." * 17), _BLOCK.index(b"e")  # the first digit's and "e"'s offsets
_GROUP_OFFSETS = np.arange(0, 40_000, 10_000)


@functools.cache
def _pow10() -> np.ndarray:
    """Columns ``(hi, head, tail, lo)`` of 10^s, s = 16 - X, for X in ``[-_X_MAX, _X_MAX]``.

    Built on first use.  ``hi`` is 10^s rounded to a double and
    ``hi = head + tail`` its split into halves of at most 26 bits, taken at
    ``frexp`` scale, where Veltkamp's split neither overflows nor goes
    subnormal.  ``lo`` is ``10^s - hi`` rounded, so ``hi + lo`` is 10^s
    within 2^-106 relative.
    """
    rows = []
    for s in range(16 + _X_MAX, 15 - _X_MAX, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den  # int true division rounds correctly
        n, d = hi.as_integer_ratio()
        m, e = math.frexp(hi)
        c = 134217729.0 * m  # 2^27 + 1
        head = c - (c - m)
        rows.append((hi, math.ldexp(head, e), math.ldexp(m - head, e),
                     (num * d - n * den) / (den * d)))
    return np.array(rows).T.copy()


@functools.cache
def _words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables for the 8-byte words of ``_BLOCK``, built on first use.

    For ``g`` in 0..9999, the word of its four digits, each followed by a
    point.  At ``10^4 i + g``, for the i-th group of four digits (from 0)
    holding ``g``, the place among the 16 digits of its last nonzero one,
    counted from 1, or 0.  For ``X`` from ``-_X_MAX`` to ``_X_MAX``, the
    last word, with ``X`` as the exponent, whose hundreds digit is NUL
    when ``|X| < 100``.
    """
    digit = np.arange(10, dtype=np.int8)
    quads = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    place = np.zeros((10, 10, 10, 10), np.int8)
    for i in range(4):  # the i-th digit of g varies along axis i
        shape = (10,) + (1,) * (3 - i)
        quads[..., 2 * i] = digit.reshape(shape) + ord("0")
        place = np.maximum(place, np.int8(i + 1) * (digit > 0).reshape(shape))
    places = np.concatenate([np.where(place > 0, place + np.int8(4 * i), place).ravel()
                             for i in range(4)])
    x = np.arange(-_X_MAX, _X_MAX + 1)
    tails = np.tile(np.frombuffer(_BLOCK[-8:], np.uint8), (x.size, 1))
    tails[:, 4] = np.where(x < 0, ord("-"), ord("+"))
    tails[:, 5:] = np.stack([abs(x) // 100, abs(x) // 10 % 10, abs(x) % 10], axis=1) + ord("0")
    tails[abs(x) < 100, 5] = 0  # deleted with the other NUL bytes
    return quads.view(np.int64).ravel(), places, tails.view(np.int64).ravel()


def _digits(x: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, X, fast)``: ``x`` is ``n 10^(X-16)``, rounded, where ``fast`` holds.

    ``n`` is an int64 in ``[10^16, 10^17)``, ``x`` rounded to 17 digits,
    and 0 for a zero and where ``fast`` fails.  ``X`` is ``floor(log10 x)``,
    and the product ``x 10^s``, s = 16 - X, is taken exactly as
    ``p + e1 + e2``, with ``hi + lo`` the table's 10^s (:func:`_pow10`):
    ``p`` is the rounded ``x hi``, an integer since it exceeds 2^53, ``e1``
    its rounding error by Dekker's TwoProduct, and ``e2`` the rounded
    ``x lo``.  ``rest = e1 + e2`` is off from the exact ``x 10^s - p`` by
    less than 2^-47: ``x (hi + lo - 10^s)``, the rounding of ``e2`` and
    that of the sum are each below 2^-49 while the product is below 2^57.
    So ``floor(rest)`` and the fraction ``rest - floor(rest)`` give the
    rounded ``n`` unless the fraction is within that error of 1/2, where
    ``"%.17g"`` rounds a tie to even; every fraction within ``_MARGIN``
    (2^-40) of 1/2 is left to ``%``.  A fraction near 0 or 1 may be
    misplaced by one unit, which moves the floor and the round-up bit in
    opposite directions and not ``n``.  The floor ``p + floor(rest)`` must
    be at least 10^16 (``X`` is right) and the rounded ``n`` below 10^17 (no
    carry into the next decade), or ``%`` decides.  Every array of the step
    is a row of ``work``, 13 rows of ``x.size`` words that every piece of a
    table reuses, so that no piece allocates and frees arrays of its own.
    Plain numpy expressions give the same bytes, but their heap churn lands
    on the benchmark's worker process, which an in-process timing such as
    ``tests/interleave.py`` does not see: without the rows, one set of
    alternating perfbench curves pairs read 0.89 times the ``ops_per_s``,
    and re-runs read 1.00 (ROADMAP, Speed).
    """
    table = _pow10()
    n, exp10, whole_n = work[:3]
    y, rest, p, xh, xl, whole = work[3:9].view(np.float64)
    terms = work[9:13].view(np.float64)  # 10^s as (hi, head, tail, lo)
    zero = x.view(np.int64) == 0  # +0.0 only
    fast = x >= _FAST_RANGE[0]
    fast &= x < _FAST_RANGE[1]  # false for nan, inf, zero and negative values
    np.copyto(y, x)
    np.copyto(y, 1.0, where=~fast)  # y: x where fast holds, else 1, whose log10 is 0
    np.floor(np.log10(y, out=rest), out=rest)
    np.copyto(exp10, rest, casting="unsafe")
    exp10 += _X_MAX  # a row of the table until the end
    table.take(exp10, axis=1, out=terms, mode="clip")  # every index is in the table
    hi, head, tail, lo = terms
    np.multiply(y, 134217729.0, out=xh)
    np.subtract(xh, y, out=xl)
    np.subtract(xh, xl, out=xh)
    np.subtract(y, xh, out=xl)
    np.multiply(y, hi, out=p)
    np.multiply(xh, head, out=rest)
    rest -= p
    for u, v in ((xh, tail), (xl, head), (xl, tail), (y, lo)):
        rest += np.multiply(u, v, out=hi)
    np.floor(rest, out=whole)
    rest -= whole  # the fraction
    np.copyto(n, p, casting="unsafe")
    np.copyto(whole_n, whole, casting="unsafe")
    n += whole_n  # the floor
    fast &= n >= 10 ** 16
    n += rest > 0.5
    fast &= n < 10 ** 17
    rest -= 0.5
    fast &= np.abs(rest, out=rest) >= _MARGIN
    n *= fast  # 0 for a zero and for each value % writes: an n of 10^17 would pass the tables
    exp10 -= _X_MAX  # 0 for a zero
    fast |= zero
    return n, exp10, fast


#: the decimal exponents ``X`` of the mask table: the fixed-notation range and one
#: exponent-notation ``X`` at either end, whose mask every ``X`` beyond that end shares
_LAYOUT_X = range(-5, 18)
#: the mask table's key (X - ``_LAYOUT_X[0]``, count of significant digits), clipped
#: to this shape, so that an ``X`` beyond ``_LAYOUT_X`` reads its end's mask
_KEY_SHAPE = (len(_LAYOUT_X), 18)


@functools.cache
def _keep_words() -> np.ndarray:
    """The masks of the text layouts, as rows of six words, one per key of ``_KEY_SHAPE``.

    Row ``np.ravel_multi_index(key, _KEY_SHAPE)`` is 0xff at the bytes of a
    value's block that its text keeps, 0 elsewhere.  The text is
    ``"%.17g" % v`` of a non-negative ``v``, set by its decimal exponent
    ``X`` and its count of significant digits (0 for zero).  The two
    framing bytes are kept.
    """
    x, count = np.indices(_KEY_SHAPE).reshape(len(_KEY_SHAPE), -1)
    exp10 = x + _LAYOUT_X[0]
    fixed = (exp10 >= -4) & (exp10 < 17)
    shown = np.where(fixed, np.maximum(count, exp10 + 1), count)  # zeros before the point too
    point = np.where(fixed, exp10, 0)  # the point follows this digit, if a digit follows it
    point = np.where(shown > point + 1, point, -1)
    keep = np.zeros((exp10.size, len(_BLOCK)), bool)
    keep[:, :2] = True
    keep[:, 3:_DIGIT0] = np.arange(5) < np.where(fixed & (exp10 < 0), 1 - exp10, 0)[:, None]
    keep[:, _DIGIT0:_EXP - 1:2] = np.arange(17) < shown[:, None]
    keep[:, _DIGIT0 + 1:_EXP - 1:2] = np.arange(17) == point[:, None]
    keep[:, _EXP:] = ~fixed[:, None]
    return (keep * np.uint8(0xFF)).view(np.int64)


def _text(x: np.ndarray, lead: np.ndarray, work: np.ndarray) -> bytes:
    """The values ``x``, each as ``"%.17g" % v`` after its column's separator.

    ``x`` runs row by row, and ``lead`` holds each column's first word of
    ``_BLOCK``, whose first byte is the column's separator.  Each value
    fills one block from the lookup tables; its bytes outside its text are
    zeroed, and all zero bytes are deleted at once.  The blocks, their
    masks, the digit groups and their words, and the arrays of
    :func:`_digits` are views of ``work``, 33 rows of at least ``x.size``
    words that every piece of a table reuses: six rows each hold the blocks
    and the masks, four each the groups and the words, and the last 13 the
    digit step's arrays.
    """
    quads, places, tails = _words()
    size = x.size
    blocks, masks, groups, words = (work[a:b].ravel()[:(b - a) * size].reshape(size, b - a)
                                    for a, b in ((0, 6), (6, 12), (12, 16), (16, 20)))
    n, exp10, fast = _digits(x, work[20:, :size])
    q = n // 10
    d16 = n - 10 * q
    high = q // 10 ** 8
    halves = np.stack([high, q - high * 10 ** 8], axis=1)
    top = halves // 10 ** 4
    np.stack([top, halves - top * 10 ** 4], axis=2, out=groups.reshape(-1, 2, 2))
    blocks.reshape(-1, len(lead), 6)[:, :, 0] = lead
    blocks[:, 1:5] = quads.take(groups, out=words)
    blocks[:, 5] = tails.take(exp10 + _X_MAX)
    blocks.view(np.uint8)[:, _DIGIT0 + 32] = d16 + ord("0")

    groups += _GROUP_OFFSETS
    p1, p2, p3, p4 = places.take(groups).T
    count = np.where(d16 > 0, 17, np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))
    key = np.ravel_multi_index((exp10 - _LAYOUT_X[0], count), _KEY_SHAPE, mode="clip")
    blocks &= _keep_words().take(key, axis=0, out=masks)

    slow = np.flatnonzero(~fast)
    if slow.size:  # nan, inf, negatives, out-of-range values and those the step leaves: % writes them
        width = len(_BLOCK) - 2
        text = "".join([("%.17g" % v).ljust(width, "\0") for v in x[slow].tolist()])
        blocks.view(np.uint8)[slow, 2:] = np.frombuffer(text.encode(), np.uint8).reshape(-1, width)
    return blocks.tobytes().translate(None, b"\0")


def _csv(head: str, columns):
    """The CSV file of ``head`` and the rows of ``columns``, in pieces of ``_CHUNK_ROWS`` rows.

    A float column's values are ``"%.17g" % v``.  An integer column must stay
    below 2^53 in magnitude: then its values are exact as doubles, whose
    ``%.17g`` text is their ``%d`` text.  Written piece by piece, the text
    and the byte blocks of a whole table are never held at once.  The
    pieces share one work buffer, allocated once per table: every array of
    :func:`_text` and of its digit step is a row of it, so the writer's
    allocations do not grow with its pieces (see :func:`_digits` for why).
    """
    separators = [b"\n"] + [b","] * (len(columns) - 1)
    lead = np.frombuffer(b"".join(sep + _BLOCK[1:8] for sep in separators), np.int64)
    values = np.stack(columns, axis=1, dtype=np.float64)
    work = np.empty((33, min(len(values), _CHUNK_ROWS) * len(columns)), np.int64)  # see _text
    yield head.encode()
    for i in range(0, len(values), _CHUNK_ROWS):
        yield _text(values[i:i + _CHUNK_ROWS].ravel(), lead, work)
    yield b"\n"


#: one row of the JSON sweep file, a ``%s`` per field, after the comma that ends the row before
_JSON_ROW = (",\n    {\n" + ",\n".join(f'      "{f}": %s' for f in drf.DistortionPoint._fields)
             + "\n    }").encode()


def _json(columns):
    """The ``--format json`` sweep file: ``{"rows": rows}`` with a 2-space indent and a newline.

    Each piece of ``_CHUNK_ROWS`` rows takes each column's values from one
    ``orjson.dumps`` of its contiguous slice, split at its commas, into
    ``_JSON_ROW``'s fields: an integer column's values as integers, a float
    column's as orjson writes a float, ``null`` where it is not finite.
    """
    yield b'{\n  "rows": ['
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        pieces = [np.ascontiguousarray(c[i:i + _CHUNK_ROWS]) for c in columns]
        tokens = [b""] * (pieces[0].size * len(pieces))
        for j, piece in enumerate(pieces):
            text = orjson.dumps(piece, option=orjson.OPT_SERIALIZE_NUMPY)
            tokens[j::len(pieces)] = text[1:-1].split(b",")
        rows = (_JSON_ROW * pieces[0].size) % tuple(tokens)
        yield rows[1:] if i == 0 else rows
    yield b"\n  ]\n}\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if args.steps < 2:
        raise drf.InvalidGrid(f"steps must be >= 2, got {args.steps}")
    if not math.isfinite(args.max):
        raise drf.InvalidGrid(f"--max must be finite, got {args.max}")
    if not (0.0 <= args.min < args.max):
        raise drf.InvalidGrid(f"need 0 <= min < max, got min={args.min}, max={args.max}")
    unit = _LN2 if args.nats else 1.0
    for option, rate in (("--min", args.min), ("--max", args.max)):  # raises, before numpy warns
        _to_bits(rate, unit, option)
    try:  # numpy refuses a size past its limit, and memory it cannot get, before filling
        grid = np.linspace(args.min, args.max, args.steps)
    except (MemoryError, ValueError) as exc:
        raise drf.InvalidGrid(f"cannot allocate a grid of {args.steps} steps") from exc
    columns = drf._columns(model, drf._check_grid(grid / unit))
    columns = (grid, *columns[1:])  # the R column in the input unit
    with open(args.out, "wb") as out:
        out.writelines(_csv(CSV_HEADER, columns) if args.format == "csv" else _json(columns))
    print(f"wrote {grid.size} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    tolerance: float
    observed: float

    @property
    def passed(self) -> bool:
        """At most the tolerance; a NaN fails."""
        return self.observed <= self.tolerance


def _random_verify_model(rng: np.random.Generator) -> ObservationModel:
    m, l_dim = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
    sigma2 = (0.1, 1.0, 10.0)[rng.integers(0, 3)]  # the draw and the value of rng.choice
    return ObservationModel(Matrix(a), sigma2)


_RATE_SPAN = 12.0  # bits: the top rate of the oracle-equivalence, sandwich and equality checks
#: oracle-equivalence rates; each model adds the rates 0.05 either side of its thresholds
_ORACLE_RATES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, _RATE_SPAN)
#: Monte Carlo rates, all in ``_ORACLE_RATES``: they add no rate to the CE test channel
_MC_RATES = (0.5, 1.0, 3.0)
#: rates every model's closed-form grid holds
_SANDWICH_RATES = np.linspace(0.0, _RATE_SPAN, 50)
#: the equality-region rates as fractions of the model's cap
_REGION_FRACTIONS = np.linspace(0.0, 1.0, 21)


def _worst_mc(name: str, estimates, closed: list[float]) -> CheckResult:
    """The first estimate furthest past its tolerance ``max(4 stderr, 1e-3)``, or the first NaN."""
    pairs = [(abs(e.mean - v), max(4.0 * e.stderr, 1e-3)) for e, v in zip(estimates, closed)]
    diff, tol = max(pairs, key=lambda d: math.inf if math.isnan(d[0] - d[1]) else d[0] - d[1])
    return CheckResult(name, tol, diff)


def _verify_model(model: ObservationModel, samples: int, seed: int) -> list[CheckResult]:
    """Every check on one model, a function of ``(model, samples, seed)`` alone: no rate is drawn.

    The closed forms are evaluated once, on one grid: the oracle-equivalence rates,
    both spectra's finite thresholds ``R_{k+1}`` and the rates 0.05 either side (at
    least 0), ``_SANDWICH_RATES`` and ``_REGION_FRACTIONS`` of the cap ``min(R_limit,
    _RATE_SPAN)``; equal rates give equal rows.  ``equality-region`` reads the rows up
    to the cap, ``bound-sandwich`` and ``monotonicity`` every row.  The matrix form and
    the Monte Carlo CE maps share one test channel, on the oracle-equivalence rates and
    the observation thresholds' neighbours.  ``continuity`` reads the grid's levels at
    each ``R_{k+1}``: ``v_{k+1}``.  A NaN residual or estimate fails its check.
    """
    edges = [s.thresholds[1:s.rank] for s in (model.observation, model.conditional)]  # R_{k+1}
    near = [[r for t in e.tolist() if t > 0 for r in (max(0.0, t - 0.05), t + 0.05)] for e in edges]
    ce_rates = np.array(sorted({*_ORACLE_RATES, *near[0]}))
    parts = oracle._ce_grid(model, ce_rates)
    cap = min(drf.equality_region(model).R_limit, _RATE_SPAN)
    grid = np.sort(np.concatenate([ce_rates, near[1], cap * _REGION_FRACTIONS, _SANDWICH_RATES, *edges]))
    _, d_idrf, d_ce, gap, gap_ub, gap_lb, _, _, theta_idrf, theta_ce = drf._columns(model, grid)
    worst = np.abs(parts.d_ce - d_ce[grid.searchsorted(ce_rates)]).max()
    checks = [CheckResult("oracle-equivalence", 1e-9, worst)]
    at = grid <= cap
    checks.append(CheckResult("equality-region", 1e-10, np.abs(d_ce[at] - d_idrf[at]).max()))
    # at least 0; + 0.0 turns a maximum of -0.0 into the 0.0 the report prints
    violation = np.concatenate([gap_lb - gap, gap - gap_ub, d_idrf - d_ce]).max(initial=0.0) + 0.0
    increase = np.diff([d_idrf, d_ce]).max(initial=0.0) + 0.0
    checks.append(CheckResult("bound-sandwich", 1e-10, violation))
    checks.append(CheckResult("monotonicity", 1e-12, increase))
    misses = [np.abs(theta[grid.searchsorted(t)] / s.values[1:s.rank] - 1.0) for theta, t, s in
              zip((theta_ce, theta_idrf), edges, (model.observation, model.conditional))]
    checks.append(CheckResult("continuity", 1e-12, np.concatenate(misses).max(initial=0.0)))
    mc = oracle._rows(parts, ce_rates.searchsorted(_MC_RATES))
    run = oracle._estimates(model, samples, seed, mc, _MC_RATES, mmse=True)
    at = grid.searchsorted(_MC_RATES)
    checks.append(_worst_mc("monte-carlo-ce", run.ce, d_ce[at].tolist()))
    checks.append(_worst_mc("monte-carlo-idrf", run.idrf, d_idrf[at].tolist()))
    checks.append(_worst_mc("monte-carlo-mmse", (run.mmse,), (model.mmse_floor,)))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify a model file, or ``--random N`` models one at a time: each drawn, checked, printed."""
    if args.random is None:
        models = ((load_model(args.model), str(args.model)),)
    else:
        rng = np.random.default_rng(args.seed)
        models = ((_random_verify_model(rng), f"random[{i}]") for i in range(args.random))
    failures = 0
    for i, (model, label) in enumerate(models):
        # each model its own draw: under one seed every chisquare(n, size=M) starts alike
        checks = _verify_model(model, args.samples, args.seed + i)
        lines = [f"== {label}: M={model.M} L={model.L} sigma2={model.sigma2}"]
        lines += [f"  {'PASS' if c.passed else 'FAIL'} {c.name:<18} observed {c.observed:.3e}  "
                  f"tol {c.tolerance:.3e}" for c in checks]
        print("\n".join(lines))  # one write per model
        failures += sum(not c.passed for c in checks)
    print("all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args: argparse.Namespace) -> int:
    model = example_model()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    region = drf.equality_region(model)
    r_star, g_star = drf.max_gap_2d(*_EXAMPLE)
    for name in ("conditional", "observation"):
        print(f"second activation ({name}): {getattr(model, name).thresholds[1]:.6f} bits")
    print(f"equality region: r0={region.r0} R_limit={region.R_limit:.6f} bits")
    print(f"max gap: {g_star:.6f} at R = {r_star:.6f} bits")
    print(f"mmse floor: {model.mmse_floor:.6f}")

    r, d_idrf, d_ce, gap = drf._columns(model, np.linspace(0.0, 4.5, 451))[:4]
    curves = out_dir / "drf_curves.csv"
    gaps = out_dir / "gap_curve.csv"
    for path, head, columns in ((curves, "R,d_idrf,d_ce", [r, d_idrf, d_ce]),
                                (gaps, "R,gap", [r, gap])):
        with path.open("wb") as out:
            out.writelines(_csv(head, columns))
    print(f"wrote {curves} and {gaps}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedrf",
        description="Distortion-rate curves for remote Gaussian vector sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one model at one rate")
    p_an.add_argument("model", help="model JSON file")
    p_an.add_argument("--rate", type=float, required=True, help="rate (bits, or nats with --nats)")
    p_an.add_argument("--nats", action="store_true", help="rates in/out are nats")
    p_an.add_argument("--json", metavar="PATH", help="also write the report as JSON")

    p_sw = sub.add_parser("sweep", help="evaluate the curves on a rate grid")
    p_sw.add_argument("model", help="model JSON file")
    p_sw.add_argument("--min", type=float, required=True)
    p_sw.add_argument("--max", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--out", required=True, help="output file")
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.add_argument("--nats", action="store_true", help="rates in/out are nats")

    p_ve = sub.add_parser("verify", help="check closed forms against the oracles")
    p_ve.add_argument("model", nargs="?", help="model JSON file")
    p_ve.add_argument("--random", type=int, metavar="N", help="verify N random models instead")
    p_ve.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples per run")
    p_ve.add_argument("--seed", type=int, default=20240117, help="seed for models and sampling")

    p_ex = sub.add_parser("example", help="built-in two-component demonstration model")
    p_ex.add_argument("--out", default=".", help="directory for the figure CSV files")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if (args.model is None) == (args.random is None):
            parser.error("verify needs exactly one of: a model file, or --random N")
        for option, value, lowest in (("--random", args.random, 1), ("--samples", args.samples, 1),
                                      ("--seed", args.seed, 0)):
            if value is not None and value < lowest:
                parser.error(f"{option} needs N >= {lowest}, got {value}")
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ParseError, InvalidModel) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
