"""The 17-digit CSV writer (``cli._csv``) against Python's ``%``, value by value.

The reference formats each row with ``"%.17g"`` (``"%d"`` for integers)
in plain Python, so it shares no code with the writer's digit step.
"""

import math
import struct
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedrf import cli, drf
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel

DBL_MAX = sys.float_info.max


def _reference(head: str, columns) -> str:
    rows = zip(*[c.tolist() for c in columns])
    return head + "\n" + "".join(
        ",".join(["%d" % v if isinstance(v, int) else "%.17g" % v for v in row]) + "\n"
        for row in rows)


def _mismatches(columns) -> list[tuple[str, str]]:
    got = b"".join(cli._csv("h", columns)).decode().split("\n")
    want = _reference("h", columns).split("\n")
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def _ties() -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits, the last a 5: ties at 17 digits.

    ``k / 2^t`` with ``k`` odd is ``k 5^t / 10^t``, whose digits are those of
    the odd multiple of 5 ``k 5^t``; ``k`` is chosen so that it has 18.
    """
    ties = []
    for t in range(1, 26):
        low = 10 ** 17 // 5 ** t + 1
        for k in range(low | 1, low + 400, 2):
            if k * 5 ** t < 10 ** 18 and k < 2 ** 53:  # k / 2^t is a double
                ties.append(k / 2 ** t)
    return np.array(ties)


def _corpus() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.array([1e-290, 1e290, DBL_MAX, 5e-324, sys.float_info.min, 0.0, math.inf,
                      math.nan, 0.5, 0.1, 1e16, 1e17, 9007199254740993.0])
    values = np.concatenate([powers, edges, _ties()])
    with np.errstate(over="ignore"):  # DBL_MAX's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, math.inf)])
    return np.concatenate([values, -values])


def test_ties_are_ties():
    # the corpus's ties round half to even under %: both neighbours occur
    from decimal import Decimal
    ties = _ties()
    assert ties.size > 4000
    for x in ties[::97].tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    last = {("%.17g" % x).rstrip("0")[-1] for x in ties.tolist()}
    assert last & set("13579") and last & set("02468")


def test_corpus_equals_percent_in_one_and_in_ten_columns():
    values = _corpus()
    assert _mismatches([values]) == []
    width = values.size // 10 * 10
    assert _mismatches(list(values[:width].reshape(-1, 10).T)) == []


def test_corpus_holds_every_kind_of_value_that_percent_writes():
    # the engine decides only +0.0 and x in _FAST_RANGE whose floor(log10 x) is the
    # decimal exponent and whose 17 digits stay in its decade; the corpus test covers
    # each kind it leaves to %
    values = _corpus()
    x = values[(values >= cli._FAST_RANGE[0]) & (values < cli._FAST_RANGE[1])]
    exponent = np.array([Decimal(v).adjusted() for v in x.tolist()])
    assert (np.floor(np.log10(x)) != exponent).any()  # a misjudged exponent
    printed = np.array([int(("%.16e" % v).split("e")[1]) for v in x.tolist()])
    assert (printed != exponent).any()  # 17 digits that carry into the next decade
    assert (values < 0.0).any()
    assert ((values == 0.0) & np.signbit(values)).any()  # -0.0


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_a_log10_one_ulp_off_leaves_its_misjudged_values_to_percent(monkeypatch, direction):
    # the engine takes X = floor(log10 x) unchecked.  A log10 one ulp high puts the floor
    # below 10^16 near a power of ten; one ulp low puts it at 10^17 - 1 or rounds it up to
    # 10^17 (every exact power of ten).  The floor and decade checks send each to %
    real = np.log10

    def off(x, out):
        real(x, out=out)
        return np.nextafter(out, direction, out=out, where=x != 1.0)  # log10(1) stays 0

    monkeypatch.setattr(np, "log10", off)
    values = _corpus()
    assert _mismatches([values]) == []


def _sweep_columns(model: ObservationModel, nats: bool) -> list[np.ndarray]:
    """The columns ``sweep --min 0 --max 12 --steps 2001`` writes, with ``--nats`` or not."""
    grid = np.linspace(0.0, 12.0, 2001)
    columns = drf._columns(model, grid / cli._LN2 if nats else grid)
    return [grid, *columns[1:]]


def test_the_digit_step_decides_every_value_of_curves_like_sweeps():
    # no value the program writes on such models goes to %: each is +0.0 or
    # positive in _FAST_RANGE, and its exponent and digits are decided exactly.
    # Every third A has rank 1 to 4, as the curves benchmark's rank-deficient ones do
    rng = np.random.default_rng(7)
    zeros = 0
    for i in range(60):
        l_dim, m = (int(n) for n in rng.integers(2, 17, size=2))
        k = max(1, min(l_dim, m) // 4) if i % 3 == 0 else m
        a = rng.standard_normal((l_dim, k)) @ rng.standard_normal((k, m)) / np.sqrt(k * m)
        model = ObservationModel(Matrix(a * np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
                                 float(rng.choice([0.1, 1.0, 10.0])))
        for nats in (False, True):
            values = np.stack(_sweep_columns(model, nats), axis=1, dtype=np.float64).ravel()
            _, _, fast = cli._digits(values, np.empty((13, values.size), np.int64))
            assert fast.all(), (i, nats, values[~fast][:5])
            zeros += np.count_nonzero(values == 0.0)
    assert zeros > 0  # +0.0 is among them


def test_zero_columns_and_integer_columns():
    # an all-zero column, as gap_lb often is, and active counts wider than one 4-digit group
    counts = np.array([0, 7, 12345, 987654321, 2 ** 53 - 1, -98765, 10 ** 15, 10 ** 4])
    zeros = np.zeros(counts.size)
    assert _mismatches([zeros, -zeros, counts, counts.astype(np.float64)]) == []
    assert b"".join(cli._csv("a,b", [zeros, counts])).split(b"\n")[1] == b"0,0"


def test_a_zero_tie_margin_misrounds_the_ties(monkeypatch):
    # negative control: without the margin the fast route decides the ties, and gets
    # half of them wrong, for it cannot round a tie to even
    ties = _ties()
    monkeypatch.setattr(cli, "_MARGIN", 0.0)
    assert len(_mismatches([ties])) > ties.size // 10


def test_tables_longer_than_one_chunk():
    values = np.linspace(-3.0, 7.0, 3 * cli._CHUNK_ROWS + 17) ** 3
    assert _mismatches([values, values / 7.0]) == []


_bits = st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_doubles = st.one_of(_bits, st.floats(), st.sampled_from([0.0, -0.0, 5e-324, DBL_MAX, 1e-290]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_doubles, min_size=1, max_size=700))
def test_one_column_equals_percent(values):
    assert _mismatches([np.array(values)]) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_doubles, min_size=10, max_size=10), min_size=1, max_size=80))
def test_ten_columns_equal_percent(rows):
    assert _mismatches(list(np.array(rows).T)) == []
