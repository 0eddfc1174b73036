"""The JSON sweep writer (``cli._json``) and its shortest-digit step against ``json.dumps``.

The reference is ``json.dumps(..., indent=2)``, whose floats are
``float.__repr__``, so it shares no code with the writer's digit step.
"""

import inspect
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _reference_sweep
from test_csv_writer import _corpus as _csv_corpus

from cedrf import cli, drf
from cedrf.cli import main

DBL_MAX = sys.float_info.max
FIELDS = drf.DistortionPoint._fields


def _list_mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """``values`` as a one-column table, a JSON list, against ``json.dumps(values, indent=2)``."""
    text = "[" + "".join(cli._rows([values], [",\n  "], json=True))[1:] + "\n]"
    got, want = text.split("\n"), json.dumps(values.tolist(), indent=2).split("\n")
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def _table(columns) -> None:
    """Assert that the sweep file of ``columns`` is ``json.dumps``'s, byte for byte."""
    rows = [dict(zip(FIELDS, row)) for row in zip(*[c.tolist() for c in columns])]
    assert "".join(cli._json(columns)) == json.dumps({"rows": rows}, indent=2) + "\n"


def _ten_columns(values: np.ndarray) -> list[np.ndarray]:
    """``values`` laid out row by row over the eight float fields, with two integer columns."""
    floats = values[:values.size // 8 * 8].reshape(-1, 8).T
    counts = np.arange(floats.shape[1]) * 7919 % 100_003
    return [*floats[:6], counts, counts // 3, *floats[6:]]


def _corpus() -> np.ndarray:
    """Doubles at every switch of the shortest-digit step and of the ``repr`` layout.

    The powers of two (whose gap below is half that above), 10^k and its
    neighbours, the layout switches at 10^16, 10^-4 and 10^-5, values
    whose shortest digits round up to the next decade, the extremes, the
    CSV writer's corpus, the doubles from 2^54, whose half-ulp
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


def _corpus_mismatches() -> list[tuple[str, str]]:
    return _list_mismatches(_corpus())


def test_corpus_equals_json_in_one_and_in_ten_columns():
    values = _corpus()
    assert _list_mismatches(values) == []
    _table(_ten_columns(values))


def test_layouts_and_spellings():
    # 9.999999999999999e22 is the double nearest 1e23: its digits round up to the next decade
    values = np.array([3.0, 0.0, -0.0, 1e16, 1.5e16, 1e-5, 1e-4, 123.456, 1e100, 5e-324,
                       9.999999999999999e22, 1.0000000000000001e23, math.nan, math.inf, -math.inf])
    text = "".join(cli._rows([values], [" "], json=True))
    assert text.split() == ["3.0", "0.0", "-0.0", "1e+16", "1.5e+16", "1e-05", "0.0001", "123.456",
                            "1e+100", "5e-324", "1e+23", "1.0000000000000001e+23", "NaN",
                            "Infinity", "-Infinity"]


def test_column_kinds_come_from_dtypes():
    # an integer column is %d, a float column repr in JSON; in CSV both are %.17g
    ints = np.array([0, -7, 3, 2 ** 53 - 1])
    floats = np.array([3.0, 0.1, -2.5e-7, 1e16])
    pairs = list(zip(ints.tolist(), floats.tolist()))
    for json_, want in ((True, [t for k, v in pairs for t in ("%d" % k, repr(v))]),
                        (False, [t for k, v in pairs for t in ("%.17g" % k, "%.17g" % v)])):
        assert "".join(cli._rows([ints, floats], [" ", " "], json=json_)).split() == want


def test_a_zero_bound_margin_misplaces_interval_ends(monkeypatch):
    # negative control: without the margin the step decides values whose interval ends
    # on a short decimal, and takes the end as inside whatever the significand's parity
    monkeypatch.setattr(cli, "_MARGIN", 0.0)
    assert len(_corpus_mismatches()) > 100


def test_values_near_a_tie_between_multiples_of_ten_are_left_to_repr():
    # x = m 2^-(j+s) with m 5^(s-1) = 2^j +- 1 (mod 2^(j+1)): V = x 10^s lies within 2^-40
    # of a tie between two multiples of 10, not on it, and its half-ulp interval is at
    # least 5 wide; without the guard the step writes repr's digits but calls them decided
    values = np.array([0.0004895107801545252, 6.108973636177329e-05, 9.820206352444189e-07])
    assert not cli._digits(values, np.ones(values.size, bool))[2].any()
    assert _list_mismatches(values) == []


def test_the_lower_multiple_instead_of_the_nearest_misrounds(monkeypatch):
    # negative control: rounding V down to the chosen power of ten, not to the nearest
    # multiple, gives digits that read back as the same double but are not repr's
    source = inspect.getsource(cli._shortest)
    assert source.count("np.rint(v / step)") == 1
    namespace = dict(vars(cli))
    exec(source.replace("np.rint(v / step)", "np.floor(v / step)"), namespace)
    monkeypatch.setattr(cli, "_shortest", namespace["_shortest"])
    assert len(_corpus_mismatches()) > 100


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
        expected = _reference_sweep(model, np.linspace(0.0, 12.0, steps), "json", nats)
        assert out.read_bytes() == expected.encode()
    capsys.readouterr()


_bits = st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_doubles = st.one_of(_bits, st.floats(), st.sampled_from([0.0, -0.0, 5e-324, DBL_MAX, 1e16]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_doubles, min_size=1, max_size=700))
def test_one_column_equals_json(values):
    assert _list_mismatches(np.array(values)) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_doubles, min_size=8, max_size=8), min_size=1, max_size=80),
       st.lists(st.integers(0, 2 ** 53 - 1), min_size=2, max_size=2))
def test_ten_columns_with_two_integer_columns_equal_json(rows, counts):
    floats = np.array(rows).T
    ints = [np.full(len(rows), k) for k in counts]
    _table([*floats[:6], *ints, *floats[6:]])
