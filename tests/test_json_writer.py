"""The JSON sweep writer (``cli._json``) against one ``orjson.dumps`` and a strict reader.

The reference is ``orjson.dumps({"rows": rows})`` with a 2-space indent and
a newline, of rows of Python floats and ints, so it shares no code with the
writer's numpy slices, row template and pieces.  Each file must also read
back under ``json.loads`` refusing ``NaN`` and ``Infinity``: every float as
the same double, ``null`` where it is not finite, and every integer column
as JSON integers.  No test pins orjson's spelling of a float.
"""

import json
import math
import struct
import sys

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _assert_reads_back, _assert_sweep_reads_back, _reference_sweep, _strict_loads
from test_csv_writer import _corpus as _csv_corpus

from cedrf import cli, drf
from cedrf.cli import main

DBL_MAX = sys.float_info.max
FIELDS = drf.DistortionPoint._fields


def _mismatches(columns) -> list[tuple[str, str]]:
    """The lines where the sweep file of ``columns`` differs from the reference's.

    The file must also read back as the rows, bit for bit.
    """
    rows = [dict(zip(FIELDS, row)) for row in zip(*[c.tolist() for c in columns])]
    text = b"".join(cli._json(columns))
    _assert_reads_back(text, {"rows": rows})
    want = orjson.dumps({"rows": rows}, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    got, want = text.decode().split("\n"), want.decode().split("\n")
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def _ten_columns(values: np.ndarray) -> list[np.ndarray]:
    """``values`` laid out row by row over the eight float fields, with two integer columns."""
    floats = values[:values.size // 8 * 8].reshape(-1, 8).T
    counts = np.arange(floats.shape[1]) * 7919 % 100_003
    return [*floats[:6], counts, counts // 3, *floats[6:]]


def _in_one_column(values: np.ndarray) -> list[np.ndarray]:
    """``values`` in the ``d_ce`` column, every other column 0, the counts as integers."""
    return [values if f == "d_ce" else np.zeros(values.size, int if f.startswith("k_") else float)
            for f in FIELDS]


def _values(columns, field: str) -> list:
    """``field``'s values as a strict reader reads them from the sweep file of ``columns``."""
    return [row[field] for row in _strict_loads(b"".join(cli._json(columns)))["rows"]]


def _corpus() -> np.ndarray:
    """Doubles at every switch of shortest-digit rounding and of float layouts.

    The powers of two (whose gap below is half that above), 10^k and its
    neighbours, the layout switches of ``repr`` and orjson at 10^16, 10^-4
    and 10^-5, values whose shortest digits round up to the next decade,
    the extremes, the CSV writer's corpus, the doubles from 2^54, whose half-ulp
    intervals end on even integers, a fifth of them multiples of 10, and
    the quarters from 2^49, each an exact tie between two 16-digit
    decimals, which ``repr`` rounds to the even one.
    """
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    switches = np.array([1e16, 1e-4, 1e-5, 1e15, 1e17])
    decades = np.array([9.999999999999999e22, 9.999999999999999e15, 9.999999999999999e-5,
                        9.999999999999999e-6, 0.9999999999999999, 99.99999999999999])
    edges = np.array([5e-324, DBL_MAX, 0.0, -0.0, math.inf, -math.inf, math.nan])
    values = np.concatenate([tens, switches, decades])
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, math.inf)])
    integers = np.arange(2 ** 54, 2 ** 54 + 4 * 2000, 4).astype(np.float64)
    ties = (2.0 ** 51 + np.arange(1, 4000, 2)) / 4
    values = np.concatenate([values, powers, integers, ties, edges, _csv_corpus()])
    return np.concatenate([values, -values])


def test_corpus_equals_json_in_one_and_in_ten_columns():
    values = _corpus()
    assert values.size == 74082
    assert _mismatches(_in_one_column(values)) == []
    assert _mismatches(_ten_columns(values)) == []


#: values on either side of the switches between fixed and exponent layouts;
#: 9.999999999999999e22 is the double nearest 1e23, whose digits round up to the next decade
LAYOUTS = [3.0, 0.0, -0.0, 1e16, 1.5e16, 1e-5, 3.51e-05, -3.51e-05, 1e-4, 1e-08, 123.456, 1e100,
           5e-324, 9.999999999999999e22, 1.0000000000000001e23, 500.0000680557637, math.nan,
           math.inf, -math.inf]


def test_layouts_and_spellings():
    # each reads back as the same double, or null
    assert _mismatches(_in_one_column(np.array(LAYOUTS))) == []


#: (column, dtype, its values, their text in CSV): the dtype, not the field, sets the kind
COLUMN_KINDS = [
    ("R", int, [0, -7, 3, 9007199254740991], ["0", "-7", "3", "9007199254740991"]),
    ("d_idrf", float, [3.0, 0.1, -2.5e-07, 1e16],
     ["3", "0.10000000000000001", "-2.4999999999999999e-07", "10000000000000000"]),
    ("d_ce", float, [0.0, -7.0, 3.0, 9007199254740991.0], ["0", "-7", "3", "9007199254740991"]),
    ("k_idrf", float, [0.0, -7.0, 3.0, 9007199254740991.0], ["0", "-7", "3", "9007199254740991"]),
    ("k_ce", int, [0, -7, 3, 9007199254740991], ["0", "-7", "3", "9007199254740991"]),
]


def test_column_kinds_come_from_dtypes():
    columns = _in_one_column(np.zeros(4))
    for field, dtype, values, _ in COLUMN_KINDS:
        columns[FIELDS.index(field)] = np.array(values, dtype=dtype)
    for field, dtype, values, _ in COLUMN_KINDS:  # an integer column reads back as integers
        got = _values(columns, field)
        assert [(type(v), v) for v in got] == [(dtype, v) for v in values]
    assert _mismatches(columns) == []
    kinds = [columns[FIELDS.index(field)] for field, *_ in COLUMN_KINDS]
    rows = b"".join(cli._csv("h", kinds)).decode("ascii").split()[1:]
    as_csv = [list(row) for row in zip(*[csv for *_, csv in COLUMN_KINDS])]
    assert [row.split(",") for row in rows] == as_csv


def test_non_finite_values_at_piece_boundaries_read_back_as_null():
    # rows 511 and 1023 end a piece of text, and row 512 starts one: each non-finite
    # value there reads back as null
    columns = _ten_columns(np.linspace(-3.0, 5.0, 8 * (2 * cli._CHUNK_ROWS + 30)) ** 3)
    at = [cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, 2 * cli._CHUNK_ROWS - 1]
    for i in (0, 5, 9):  # R, the last float before the counts, theta_ce
        columns[i][at] = [math.nan, math.inf, -math.inf]
    assert _mismatches(columns) == []
    for field in ("R", "gap_lb", "theta_ce"):
        values = _values(columns, field)
        assert [values[i] for i in at] == [None] * 3
        assert None not in values[:at[0]] + values[at[1] + 1:at[2]] + values[at[2] + 1:]


def test_a_piece_where_one_column_alone_holds_exponent_form_values():
    # d_ce alone holds values in exponent form or below 1e-4; beside it, a float that
    # only looks like one (500.0000680557637), a NaN and a strided slice
    values = np.array([3.51e-05, 1e-08, 1e16, 2.0])
    columns = _in_one_column(values)
    columns[FIELDS.index("d_idrf")] = np.array([500.0000680557637, 0.5, 1.0, 2.0])
    columns[FIELDS.index("gap")] = np.array([1.0, math.nan, 0.25, 3.0])
    columns[FIELDS.index("theta_ce")] = (np.arange(8.0) + 0.5)[::2]
    assert not columns[FIELDS.index("theta_ce")].flags.c_contiguous
    assert _values(columns, "d_ce") == values.tolist()
    assert _values(columns, "gap")[1] is None
    assert _values(columns, "theta_ce") == [0.5, 2.5, 4.5, 6.5]
    assert _mismatches(columns) == []


@pytest.mark.parametrize("steps", [2, 511, 512, 513, 1025])
def test_sweeps_across_piece_boundaries(steps, tmp_path, capsys):
    # the row separators of rows 512 and 1024 fall where one piece of text ends
    path, out = tmp_path / "model.json", tmp_path / "sweep.json"
    path.write_text(json.dumps({"A": [[1.0, 0.5, 0.0], [0.2, 2.0, 0.3]], "sigma2": 0.3}))
    model = cli.load_model(path)
    for nats in (False, True):
        argv = ["sweep", str(path), "--min", "0", "--max", "12", "--steps", str(steps),
                "--out", str(out), "--format", "json"] + ["--nats"] * nats
        assert main(argv) == 0
        grid = np.linspace(0.0, 12.0, steps)
        assert out.read_bytes() == _reference_sweep(model, grid, "json", nats).encode()
        _assert_sweep_reads_back(out.read_bytes(), model, grid, nats)
    capsys.readouterr()


_bits = st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_doubles = st.one_of(_bits, st.floats(), st.sampled_from([0.0, -0.0, 5e-324, DBL_MAX, 1e16]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_doubles, min_size=1, max_size=700))
def test_one_column_equals_json(values):
    assert _mismatches(_in_one_column(np.array(values))) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_doubles, min_size=8, max_size=8), min_size=1, max_size=80),
       st.lists(st.integers(0, 2 ** 53 - 1), min_size=2, max_size=2))
def test_ten_columns_with_two_integer_columns_equal_json(rows, counts):
    floats = np.array(rows).T
    ints = [np.full(len(rows), k) for k in counts]
    assert _mismatches([*floats[:6], *ints, *floats[6:]]) == []
