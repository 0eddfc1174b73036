import dataclasses
import functools
import json
import math
import os
import struct
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (GAP_AT_3, MALFORMED_MODELS, MAX_GAP, R2_COND, R2_OBS, RAW_MALFORMED_MODELS,
                     RAW_MODELS, example_model)
from test_csv_writer import _doubles

import cedrf.drf
from cedrf import cli, drf, oracle, waterfill
from cedrf.cli import CSV_HEADER, load_model, main
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel, Spectrum, spectra


EXAMPLE_JSON = {
    "A": [[math.sqrt(20.0), 0.0], [0.0, math.sqrt(0.5)]],
    "sigma2": 1.0,
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(EXAMPLE_JSON))
    return path


def test_load_model_valid(model_file):
    model = load_model(model_file)
    assert model.M == model.L == 2
    assert model.gram.values == pytest.approx((20.0, 0.5), abs=1e-12)


def test_load_model_errors(tmp_path):
    from cedrf.cli import InvalidModel, ParseError

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"A": [[1.0]]}))
    with pytest.raises(ParseError, match="sigma2"):
        load_model(missing)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"A": [[1.0]],\n "sigma2": }')
    with pytest.raises(ParseError, match="line 2"):
        load_model(bad_json)

    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"A": [[1.0, 2.0], [3.0]], "sigma2": 1.0}))
    with pytest.raises(InvalidModel, match="'A'"):
        load_model(ragged)

    nonpos = tmp_path / "nonpos.json"
    nonpos.write_text(json.dumps({"A": [[1.0]], "sigma2": 0.0}))
    with pytest.raises(InvalidModel, match="sigma2"):
        load_model(nonpos)

    badcov = tmp_path / "badcov.json"
    badcov.write_text(
        json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0,
                    "sigma_x": [[1.0, 0.0], [0.0, 0.0]]})
    )
    with pytest.raises(InvalidModel):
        load_model(badcov)


def test_load_model_whitening(tmp_path):
    scaled = tmp_path / "scaled.json"
    scaled.write_text(
        json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0,
                    "sigma_x": [[4.0, 0.0], [0.0, 4.0]]})
    )
    model = load_model(scaled)
    # identical spectra to the pre-scaled observation matrix 2I
    assert model.gram.values == pytest.approx((4.0, 4.0), abs=1e-12)


def test_sigma_x_symmetry_check_is_relative_to_its_largest_entry(tmp_path, capsys):
    # asymmetry up to n eps max|S| is rounding, at any scale: one ulp (2^-14)
    # at 5e11 is accepted, a 9x asymmetry at 1e-20 refused
    path = tmp_path / "model.json"
    close = [[1e12, 5e11 + 2**-14], [5e11, 1e12]]
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "sigma_x": close}))
    assert load_model(path).gram.values == pytest.approx((1.5e12, 5e11), rel=1e-12)
    far = [[1e-20, 9e-21], [1e-21, 1e-20]]
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "sigma_x": far}))
    assert main(["analyze", str(path), "--rate", "1"]) == 2
    assert capsys.readouterr().err == ("error: InvalidModel: field 'sigma_x': asymmetry 8.000e-21 "
                                       "exceeds 2 eps max|S| = 4.441e-36\n")


def test_analyze_text_report(model_file, capsys):
    assert main(["analyze", str(model_file), "--rate", "1.9037"]) == 0
    out = capsys.readouterr().out
    assert "equality region: r0=1" in out
    assert "0.757286586" in out
    assert "1.903677461" in out
    assert "d_ce" in out and "gap" in out


def test_analyze_json_report(model_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(model_file), "--rate", "1.9037",
                 "--json", str(report_path)]) == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    model = example_model()
    assert doc["point"]["gap"] == pytest.approx(drf.gap(model, 1.9037), abs=1e-15)
    assert doc["point"]["gap"] == pytest.approx(0.0501, abs=5e-4)
    assert doc["point"]["k_ce"] == 2
    assert doc["thresholds"]["conditional"][1] == pytest.approx(R2_COND, abs=1e-12)
    assert doc["thresholds"]["observation"][1] == pytest.approx(R2_OBS, abs=1e-12)
    assert doc["thresholds"]["observation"][2] is None  # unbounded sentinel
    assert doc["equality_region"]["R_limit"] == pytest.approx(R2_COND, abs=1e-12)


def test_analyze_zero_rate(model_file, tmp_path, capsys):
    report_path = tmp_path / "zero.json"
    assert main(["analyze", str(model_file), "--rate", "0",
                 "--json", str(report_path)]) == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    assert doc["point"]["d_idrf"] == 1.0 and doc["point"]["d_ce"] == 1.0
    assert all(r == 0.0 for r in doc["rates"]["idrf"])
    assert all(r == 0.0 for r in doc["rates"]["ce"])


def test_analyze_nats_conversion(model_file, tmp_path, capsys):
    bits_path, nats_path = tmp_path / "bits.json", tmp_path / "nats.json"
    assert main(["analyze", str(model_file), "--rate", "1.0",
                 "--json", str(bits_path)]) == 0
    rate_nats = 1.0 * math.log(2.0)
    assert main(["analyze", str(model_file), "--rate", repr(rate_nats), "--nats",
                 "--json", str(nats_path)]) == 0
    capsys.readouterr()
    bits, nats = json.loads(bits_path.read_text()), json.loads(nats_path.read_text())
    assert nats["point"]["d_idrf"] == pytest.approx(bits["point"]["d_idrf"], abs=1e-12)
    assert nats["thresholds"]["observation"][1] == pytest.approx(
        bits["thresholds"]["observation"][1] * math.log(2.0), abs=1e-12
    )


def test_a_rate_of_minus_zero_is_read_as_zero(model_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    for unit in ("bits", "nats"):
        argv = ["analyze", str(model_file), "--rate", "-0", "--json", str(report_path)]
        assert main(argv + ["--nats"] * (unit == "nats")) == 0
        assert f"at R = 0 {unit}:" in capsys.readouterr().out
        R = json.loads(report_path.read_text())["point"]["R"]
        assert R == 0.0 and math.copysign(1.0, R) == 1.0, unit
    model = example_model()
    for grid in ([-0.0], [-0.0, 1.0], np.array([-0.0])):
        assert math.copysign(1.0, drf.sweep(model, grid)[0].R) == 1.0, grid
    assert math.copysign(1.0, waterfill._check_rate(-0.0)) == 1.0


def _strict_loads(text: str | bytes):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def _read_back(doc):
    """``doc``, through its lists and dict values, as a JSON file of it must read back: each
    finite float as its ``hex()``, each non-finite float as ``None``, and every other value
    tagged with its type, so that a float cannot pass for an integer."""
    if isinstance(doc, dict):
        return {k: _read_back(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return list(map(_read_back, doc))
    if isinstance(doc, float):
        return ("float", doc.hex()) if math.isfinite(doc) else ("NoneType", None)
    return (type(doc).__name__, doc)


def _assert_reads_back(text: bytes, doc):
    """``text`` is RFC 8259 JSON text that reads back as ``doc``, bit for bit."""
    assert _read_back(_strict_loads(text)) == _read_back(doc)


def test_json_writer_writes_valid_json_with_null_for_non_finite_floats():
    # every float reads back bit for bit, a non-finite one as null, at any depth
    inf, nan = math.inf, math.nan
    doc = {"floats": [1.0, -0.0, 5e-324, 1e300, inf, -inf, nan, 0.1, 1e16, 3.51e-05, 1e-08],
           "ints": [0, 1, -7, 2**64 - 1, -2**63],
           "words": [None, True, False], "empty": [[], {}], "nested": {"a": {"b": [[1.5, -inf]]}},
           "text": ["bits", "inf", "nan", "quote \" \\ \n \x00 \x1f", "k\": 1e5", "0.00001",
                    "\x7f", "\u00e9"],
           "scalar": nan, "none": None}
    text = cli._json_indent2(doc)
    _assert_reads_back(text, doc)
    assert text.endswith(b"}\n")
    for value in ({}, [], 2.5, 3, True, None, "s", inf, -inf, nan, 1e16, 3.51e-05):
        _assert_reads_back(cli._json_indent2(value), value)
    # outside JSON's reach the writer raises; it never writes what does not read back
    for value in (2**70, 2**64, -2**63 - 1, np.float64(1.5), {1: 2}):
        with pytest.raises((TypeError, ValueError)):
            cli._json_indent2({"x": [value]})


def _report_shaped(values: list) -> dict:
    """``values`` where an analyze report holds floats: as object values and as list items."""
    return {"units": "bits", "point": {f"v{i}": v for i, v in enumerate(values)},
            "spectra": {"gram": values, "observation": []}, "rates": {"idrf": values[::-1]}}


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(_doubles, max_size=20))
def test_json_writer_reads_back_every_float_strictly(values):
    # every bit pattern reads back as the same double, or null where it is not finite
    _assert_reads_back(cli._json_indent2(_report_shaped(values)), _report_shaped(values))
    for v in values[:3]:
        _assert_reads_back(cli._json_indent2(v), v)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(), st.one_of(st.text(), st.floats()), max_size=5))
def test_json_writer_reads_back_any_text_strictly(doc):
    # any text, keys and values, reads back as itself beside the floats
    _assert_reads_back(cli._json_indent2({"a": [doc]}), {"a": [doc]})


def _float_corpus() -> list[float]:
    """Every ``1e{k}`` and its neighbours, the switches of orjson's and ``repr``'s layouts,
    powers of two, zeros, subnormals and non-finite values, each with both signs."""
    tens = [float(f"1e{k}") for k in range(-324, 309)]
    switches = [1e-5, 1e-4, 1e16, 3.51e-05, 9.99e-05, 1.2e-08, 9999999999999998.0]
    near = [math.nextafter(x, t) for x in tens + switches for t in (0.0, math.inf)]
    subnormal = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values = tens + switches + near + [2.0**k for k in range(-1074, 1024)] + subnormal
    return [s * v for v in values + [0.0, math.inf] for s in (1.0, -1.0)] + [math.nan]


def test_json_writer_reads_back_the_float_corpus_strictly():
    values = _float_corpus()
    assert len(values) == 8049
    for i in range(0, len(values), 64):
        doc = _report_shaped(values[i:i + 64])
        _assert_reads_back(cli._json_indent2(doc), doc)
    for v in values:
        _assert_reads_back(cli._json_indent2(v), v)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_doubles, max_size=20))
def test_text_report_lists_are_spelled_as_format_spells_them(values):
    assert cli._fnums(values) == " ".join(map("{:.12g}".format, values))


def test_analyze_and_sweep_run_no_eigensolver(model_file, tmp_path, capsys, monkeypatch):
    # the spectrum comes from A's singular values; only the oracles build
    # singular vectors, through the model's cached full SVD
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    svd = np.linalg.svd

    def values_only(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            raise AssertionError("full SVD called")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", values_only)
    monkeypatch.setattr(cedrf.linalg, "sym_eig", refuse)
    assert main(["analyze", str(model_file), "--rate", "1.5",
                 "--json", str(tmp_path / "report.json")]) == 0
    assert main(["sweep", str(model_file), "--min", "0", "--max", "12", "--steps", "201",
                 "--out", str(tmp_path / "sweep.json"), "--format", "json"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "report.json").read_text())["spectra"]["gram"] == pytest.approx(
        [20.0, 0.5], rel=1e-15)


def test_analyze_at_huge_rates_warns_nothing(model_file, tmp_path, capsys):
    # pytest turns any RuntimeWarning into an error
    reports = []
    for rate in ("1e300", "1e308", "1.7e308"):
        out = tmp_path / f"{rate}.json"
        assert main(["analyze", str(model_file), "--rate", rate, "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    capsys.readouterr()
    for report in reports[1:]:
        assert {**report["point"], "R": 0} == {**reports[0]["point"], "R": 0}


def test_analyze_with_an_overflowing_gap_prefactor_warns_nothing(tmp_path, capsys):
    # the bound's prefactor 2.5e499 overflows; at 1e300 bits the bound is 0, not NaN
    model = tmp_path / "big.json"
    model.write_text(json.dumps({"A": [[1e100, 0], [0, 1]], "sigma2": 1e-300}))
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--rate", "1e300", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["point"]["gap_ub"] == 0.0


def test_bounds_of_a_scale_twin_whose_4_sigma2_overflows(tmp_path, capsys):
    # c = 3e153 twin of diag(2, 0.6), sigma2 = 10: 4 sigma2 = 3.6e308 is inf, so a
    # prefactor formed over 4 sigma2 made the upper bound 0 and failed bound-sandwich
    c = 3e153
    base = ObservationModel(Matrix(np.diag([2.0, 0.6])), 10.0)
    doc = {"A": [[c * 2.0, 0.0], [0.0, c * 0.6]], "sigma2": c * c * 10.0}
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(doc))
    twin = load_model(path)
    rates = [0.0, 0.5, 3.0, 20.0]
    for pt, ref in zip(drf.sweep(twin, rates), drf.sweep(base, rates)):
        for field in ("d_idrf", "d_ce", "gap", "gap_ub", "gap_lb"):
            assert getattr(pt, field) == pytest.approx(getattr(ref, field), rel=1e-12, abs=0.0), \
                (pt.R, field)
        assert pt.gap_ub > 0.0
    assert main(["verify", str(path)]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_gap_lower_bound_whose_square_overflows_is_finite(tmp_path):
    # sigma2 is subnormal and f = sqrt(lam) / (lam + sigma2) is about 5e159, so (f1 - f2)^2
    # overflows a double; 60-digit arithmetic gives the bound 0.006977684838456197 at
    # R = 1 bit and half of it per further bit.  (d_ce is inf on this model: another
    # defect of subnormal sigma2, not checked here.)
    path, out = tmp_path / "tiny.json", tmp_path / "report.json"
    path.write_text(json.dumps({"A": [[1e-160, 0], [0, 4e-161]], "sigma2": 1e-320}))
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cedrf", "analyze", str(path), "--rate", "1", "--json", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(out.read_text())["point"]["gap_lb"] == pytest.approx(
        0.006977684838456197, rel=1e-14)
    with np.errstate(over="ignore", invalid="ignore"):  # the d_ce defect's warnings
        lower = drf._columns(load_model(path), np.array([1.0, 2.0, 3.0]))[5]
    assert lower.tolist() == pytest.approx([0.006977684838456197 / 2 ** i for i in range(3)],
                                           rel=1e-14)


def test_analyze_json_writes_an_infinite_point_value_as_null(tmp_path, capsys):
    # the report is valid JSON: an infinite gap_ub is null, as infinite thresholds are
    model = tmp_path / "big.json"
    model.write_text(json.dumps({"A": [[1e100, 0], [0, 1]], "sigma2": 1e-300}))
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--rate", "1", "--json", str(out)]) == 0
    assert "bounds [0, inf]" in capsys.readouterr().out

    def invalid(word):
        raise ValueError(f"not JSON: {word}")

    report = json.loads(out.read_text(), parse_constant=invalid)
    assert report["point"]["gap_ub"] is None
    assert report["thresholds"]["observation"][-1] is None


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/model.json", "--rate", "1"]) == 2
    assert "not found" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad), "--rate", "1"]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_model_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"A": [[1.0]]}')
    assert main(["analyze", str(bad), "--rate", "1"]) == 2
    assert capsys.readouterr().err == \
        f"error: ParseError: {bad}: not UTF-8: invalid start byte at byte 0\n"


def test_deeply_nested_model_is_a_parse_error_naming_the_file(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, past its nesting limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10_000 + "]" * 10_000)
    assert main(["analyze", str(deep), "--rate", "1"]) == 2
    assert capsys.readouterr().err == \
        f"error: ParseError: {deep}: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("doc, message", [
    *MALFORMED_MODELS,
    *(pytest.param(data, message, id=name) for name, (data, message) in RAW_MALFORMED_MODELS.items()),
])
def test_analyze_names_each_malformed_field(tmp_path, capsys, doc, message):
    # every command that reads a model exits 2 with the field named; for
    # verify, 1 would mean a failed check
    path = tmp_path / "model.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    out = tmp_path / "out.csv"
    for argv in (["analyze", str(path), "--rate", "1"], ["verify", str(path)],
                 ["sweep", str(path), "--min", "0", "--max", "1", "--steps", "2", "--out", str(out)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path)), argv


@pytest.mark.parametrize("name", list(RAW_MODELS))
def test_model_files_give_the_doubles_json_reads(tmp_path, name):
    data, a, sigma2 = RAW_MODELS[name]
    path = tmp_path / "model.json"
    path.write_bytes(data)
    model = load_model(path)
    assert model.A.data.tobytes() == np.array(a).tobytes()
    assert model.sigma2.hex() == sigma2.hex()


def test_an_accepted_model_file_is_decoded_once(model_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads ran on a file orjson decoded")

    monkeypatch.setattr(cli.json, "loads", refuse)
    assert load_model(model_file).A.data.tolist() == EXAMPLE_JSON["A"]


def _assert_decoders_agree(text: str):
    """Where ``orjson`` reads ``text`` as a float, the only number ``load_model`` keeps from it,
    the float is ``json.loads(text, parse_int=float)``'s, bit for bit."""
    fast, slow = orjson.loads(text), json.loads(text, parse_int=float)
    if type(fast) is float:
        assert fast.hex() == slow.hex(), text
    else:  # an integer literal within 64 bits, which json decodes again
        assert type(fast) is int and text.lstrip("-").isdigit(), text


_finite = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 2 ** 52 - 1).map(lambda b: b | 2 ** 63 * (b & 1)),  # subnormals of either sign
).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(_finite, st.sampled_from(["%r", "%.17g", "%.25e"]))
def test_orjson_reads_every_double_as_json_does(x, spelling):
    _assert_decoders_agree(spelling % x)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(_finite.filter(lambda x: abs(x) < sys.float_info.max),
       st.sampled_from([None, 40]))
def test_orjson_rounds_decimal_midpoints_as_json_does(x, digits):
    # the exact midpoint of x and the next double away from zero, in full or cut to 40 digits
    with localcontext(prec=2000):
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.copysign(math.inf, x)))) / 2
    mantissa, exponent = f"{mid:e}".split("e")
    if digits is not None:
        mantissa = mantissa[:digits + 1 + mantissa.startswith("-")]
    _assert_decoders_agree(f"{mantissa}e{exponent}")


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 308, 10 ** 308))
def test_orjson_reads_integer_literals_as_json_does(n):
    _assert_decoders_agree(str(n))


def test_gram_overflow_names_the_cause(tmp_path):
    # A is finite, but lambda1 = s_1^2 is not representable in double precision
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"A": [[1e160, 0.0], [0.0, 1.0]], "sigma2": 1.0}))
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    path_dirs = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
    proc = subprocess.run(
        [sys.executable, "-m", "cedrf.cli", "analyze", str(path), "--rate", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("error: InvalidModel: lambda1 + sigma2 overflows double precision: "
                           "lambda1 is the square of A's largest singular value 1.000e+160\n")


@pytest.mark.parametrize("doc", [
    # lambda1 = 1e308: below DBL_MAX, but 2 lambda1 is not
    pytest.param({"A": [[1e154, 0.0], [0.0, 1.0]], "sigma2": 1.0}, id="lambda1 1e308"),
    pytest.param({"A": (math.sqrt(sys.float_info.max) * np.eye(2)).tolist(), "sigma2": 1e10},
                 id="sqrt(DBL_MAX) I"),
    pytest.param({"A": [[9e153, 1e153, 3e152], [2e152, 1e153, 5e150]], "sigma2": 1e300}, id="2x3"),
    # whitening symmetrizes sigma_x from halves: its sum overflowed
    pytest.param({"A": [[1.0]], "sigma2": 1.0, "sigma_x": [[1e308]]}, id="huge sigma_x"),
])
def test_huge_models_give_finite_outputs_without_warnings(tmp_path, capsys, doc):
    # RuntimeWarnings are errors here (pyproject.toml)
    path, report, rows = tmp_path / "model.json", tmp_path / "report.json", tmp_path / "rows.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--rate", "1", "--json", str(report)]) == 0
    assert main(["sweep", str(path), "--min", "0", "--max", "3000", "--steps", "301",
                 "--format", "json", "--out", str(rows)]) == 0
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("  PASS ") == 8 and out.endswith("all checks passed\n")
    point = json.loads(report.read_text())["point"]
    assert all(v is not None and math.isfinite(v) for v in point.values()), point
    for row in json.loads(rows.read_text())["rows"]:
        assert all(math.isfinite(v) for v in row.values()), row


def test_verify_of_a_high_snr_model_warns_nothing(tmp_path, capsys):
    # the oracle's s^2 overflows; s/(1 + inf) and 1/(1 + inf) are the exact limits, 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[1e153, 0.0], [0.0, 1.0]], "sigma2": 1e-300}))
    assert main(["verify", str(path)]) == 0  # RuntimeWarnings are errors here (pyproject.toml)
    assert capsys.readouterr().out.count("  PASS ") == 8


def test_sweep_csv_round_trip(model_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(model_file), "--min", "0", "--max", "4.5",
                 "--steps", "91", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 92
    model = example_model()
    for line in lines[1:]:
        cells = line.split(",")
        r = float(cells[0])
        assert float(cells[1]) == drf.idrf(model, r)  # bit-for-bit round trip
        assert float(cells[2]) == drf.ce_drf(model, r)
        assert float(cells[3]) == drf.gap(model, r)
        assert float(cells[4]) == drf.gap_upper_bound(model, r)
        assert float(cells[5]) == drf.gap_lower_bound(model, r)
        assert int(cells[6]) == waterfill.active_count(model.conditional, r)
        assert int(cells[7]) == waterfill.active_count(model.observation, r)
        assert float(cells[8]) == waterfill.water_level(model.conditional, r)[1]
        assert float(cells[9]) == waterfill.water_level(model.observation, r)[1]
    # the sweep points carry the levels the CSV prints
    rates = [float(line.split(",")[0]) for line in lines[1:]]
    for line, pt in zip(lines[1:], drf.sweep(model, rates)):
        cells = line.split(",")
        assert (float(cells[8]), float(cells[9])) == (pt.theta_idrf, pt.theta_ce)


def test_sweep_without_signal(tmp_path, capsys):
    # A = 0: the estimate spectrum is empty, so the optimal scheme has no
    # water level and reports theta_idrf = 0 while the blind one still fills
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"A": [[0.0, 0.0], [0.0, 0.0]], "sigma2": 2.0}))
    out = tmp_path / "zero.csv"
    assert main(["sweep", str(path), "--min", "0", "--max", "3",
                 "--steps", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    model = load_model(path)
    for line in out.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        r = float(cells[0])
        assert float(cells[1]) == 1.0 and cells[6] == "0"
        assert float(cells[8]) == 0.0
        assert float(cells[9]) == waterfill.water_level(model.observation, r)[1]


@pytest.mark.parametrize("rows, cols", [(2, 2), (1, 3)])
def test_analyze_without_signal(tmp_path, capsys, rows, cols):
    # A = 0: the estimate spectrum has rank 0, so its threshold table is
    # [0.0], the optimal scheme never activates and the curves stay at 1
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"A": [[0.0] * cols] * rows, "sigma2": 2.0}))
    report_path = tmp_path / "zero_report.json"
    assert main(["analyze", str(path), "--rate", "1.9", "--json", str(report_path)]) == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    assert doc["equality_region"] == {
        "r0": min(rows, cols), "R_limit": None, "unconditional": True,
    }
    assert doc["thresholds"]["conditional"] == [0.0]
    p = doc["point"]
    assert (p["k_idrf"], p["theta_idrf"]) == (0, 0.0)
    assert p["d_idrf"] == p["d_ce"] == 1.0
    assert doc["rates"]["idrf"] == [0.0] * rows


def test_analyze_where_the_estimate_spectrum_underflows(tmp_path, capsys):
    # lam = 1e-320 is positive, but lam / (lam + 1e10) underflows to 0: the
    # estimate spectrum has rank 0 and no threshold takes log2(0)
    path = tmp_path / "faint.json"
    path.write_text(json.dumps({"A": [[1e-160]], "sigma2": 1e10}))
    report_path = tmp_path / "faint_report.json"
    assert main(["analyze", str(path), "--rate", "1", "--json", str(report_path)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(report_path.read_text())
    assert doc["model"]["rank"] == 1 and doc["spectra"]["conditional"] == [0.0]
    assert doc["equality_region"]["unconditional"] is True
    p = doc["point"]
    assert p["d_idrf"] == p["d_ce"] == 1.0 and p["gap"] == 0.0


def test_analyze_where_water_level_underflows(tmp_path, capsys):
    # 2^(-2R) is 0.0 in double precision at R = 1100, so theta_ce is 0; the
    # rates must still be finite and sum to the requested total
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"A": [[1.0]], "sigma2": 1.0}))
    report_path = tmp_path / "one_report.json"
    assert main(["analyze", str(path), "--rate", "1100", "--json", str(report_path)]) == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    assert doc["point"]["theta_ce"] == 0.0
    for scheme in ("idrf", "ce"):
        rates = doc["rates"][scheme]
        assert all(math.isfinite(r) for r in rates)
        assert math.fsum(rates) == pytest.approx(1100.0, rel=1e-9)


def test_thresholds_built_once_per_spectrum(tmp_path, monkeypatch, capsys):
    builds = []
    real = Spectrum.__dict__["thresholds"].func

    def counted(spectrum):
        builds.append(spectrum)
        return real(spectrum)

    prop = functools.cached_property(counted)
    prop.__set_name__(Spectrum, "thresholds")
    monkeypatch.setattr(Spectrum, "thresholds", prop)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[1.0, 0.5, -0.3], [0.2, -1.1, 0.7]], "sigma2": 0.5}))
    assert main(["analyze", str(path), "--rate", "1.9"]) == 0
    capsys.readouterr()
    assert 1 <= len(builds) <= 2  # the observation and estimate spectra
    assert len({id(s) for s in builds}) == len(builds)

    builds.clear()
    model = example_model()
    drf.sweep(model, [4.5 * i / 450 for i in range(451)])
    assert len(builds) <= 2
    assert len({id(s) for s in builds}) == len(builds)
    assert all(s is model.observation or s is model.conditional for s in builds)


def test_sweep_gap_profile(model_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(model_file), "--min", "0", "--max", "4.5",
                 "--steps", "451", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    gaps = {float(r[0]): float(r[3]) for r in rows}
    assert all(g <= 1e-12 for r, g in gaps.items() if r <= 0.75)
    peak_r = max(gaps, key=gaps.get)
    assert peak_r == pytest.approx(R2_OBS, abs=0.011)
    assert max(gaps.values()) == pytest.approx(MAX_GAP, abs=5e-4)
    # increasing up to the peak, decreasing after
    rs = sorted(gaps)
    after = [gaps[r] for r in rs if r >= peak_r]
    assert all(b <= a + 1e-12 for a, b in zip(after, after[1:]))


def test_sweep_json_and_minimal_grid(model_file, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", str(model_file), "--min", "0", "--max", "1",
                 "--steps", "2", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    model = example_model()
    assert doc["rows"][1]["d_ce"] == drf.ce_drf(model, 1.0)


def test_sweep_invalid_grid(model_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", str(model_file), "--min", "1", "--max", "1",
                 "--steps", "10", "--out", str(out)]) == 2
    assert main(["sweep", str(model_file), "--min", "0", "--max", "2",
                 "--steps", "1", "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["sweep", str(model_file), "--min", "0", "--max", "inf",
                 "--steps", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --max must be finite, got inf\n"
    assert not out.exists()


def test_sweep_names_a_step_count_whose_grid_cannot_be_allocated(model_file, tmp_path, capsys):
    # 8 PB: numpy refuses the allocation before touching memory
    out = tmp_path / "x.csv"
    assert main(["sweep", str(model_file), "--min", "0", "--max", "1",
                 "--steps", str(10 ** 15), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot allocate a grid of {10 ** 15} steps\n"
    assert not out.exists()


def test_sweep_rejects_an_infinite_max_without_warnings(model_file, tmp_path):
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cedrf", "sweep", str(model_file), "--min", "0", "--max", "inf",
         "--steps", "5", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --max must be finite, got inf\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("bounds, option, typed", [
    (("0", "1.7e308"), "--max", "1.7e+308"),
    (("1.3e308", "1.7e308"), "--min", "1.3e+308"),
])
def test_sweep_names_a_nats_rate_that_overflows_in_bits(model_file, tmp_path, capsys, bounds,
                                                        option, typed):
    # pytest turns the RuntimeWarning of an overflowing division into an error
    out = tmp_path / "x.csv"
    argv = ["sweep", str(model_file), "--min", bounds[0], "--max", bounds[1], "--steps", "3",
            "--out", str(out), "--nats"]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {option} must convert to a finite rate in bits, got {typed} nats\n"
    assert not out.exists()
    # the largest nats rates that still convert are a valid grid
    assert main(argv[:3] + ["0", "--max", "1.2e308"] + argv[6:]) == 0
    capsys.readouterr()
    assert float(out.read_text().splitlines()[-1].split(",")[0]) == 1.2e308


def test_nats_overflow_is_an_error_under_dash_w_error(model_file, tmp_path):
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["sweep", str(model_file), "--min", "0", "--max", "1.7e308", "--steps", "3",
                  "--out", str(tmp_path / "x.csv"), "--nats"],
                 ["analyze", str(model_file), "--rate", "1.7e308", "--nats"]):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "cedrf", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        option = "--max" if argv[0] == "sweep" else "--rate"
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == \
            f"error: {option} must convert to a finite rate in bits, got 1.7e+308 nats\n"
    assert not (tmp_path / "x.csv").exists()


def test_analyze_names_a_nats_rate_that_overflows_in_bits(model_file, capsys):
    assert main(["analyze", str(model_file), "--rate", "1.7e308", "--nats"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --rate must convert to a finite rate in bits, got 1.7e+308 nats\n"
    # an infinite rate is rejected as before, in bits and in nats
    for nats in ([], ["--nats"]):
        assert main(["analyze", str(model_file), "--rate", "inf", *nats]) == 2
        assert capsys.readouterr().err == "error: rate must be a finite non-negative real, got inf\n"


def test_sweep_nats_round_trip(model_file, tmp_path, capsys):
    out = tmp_path / "nats.csv"
    assert main(["sweep", str(model_file), "--min", "0", "--max", "2",
                 "--steps", "5", "--out", str(out), "--nats"]) == 0
    capsys.readouterr()
    model = example_model()
    for line in out.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        r_bits = float(cells[0]) / math.log(2.0)
        assert float(cells[1]) == drf.idrf(model, r_bits)


# One sweep row as ``%`` writes it: every double to 17 digits, the active counts as integers.
# A literal, so the reference shares no code with the writer.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%.17g,%.17g"


def _reference_points(model, grid, nats) -> list[drf.DistortionPoint]:
    """``drf.sweep``'s rows on ``grid``, with ``R`` in the input unit."""
    points = drf.sweep(model, grid / math.log(2.0) if nats else grid)
    if nats:
        points = [pt._replace(R=r) for r, pt in zip(grid.tolist(), points)]
    return points


# Sweep files as they were written one ``%`` per row (CSV) and by one ``orjson.dumps`` of
# the row dicts (JSON); the column writers must keep their bytes.
def _reference_sweep(model, grid, fmt, nats):
    points = _reference_points(model, grid, nats)
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [_CSV_ROW % pt for pt in points]) + "\n"
    doc = {"rows": [pt._asdict() for pt in points]}
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()


def _assert_sweep_reads_back(text: bytes, model, grid, nats):
    """The JSON sweep file ``text`` reads back strictly as ``drf.sweep``'s rows, bit for bit."""
    _assert_reads_back(text, {"rows": [pt._asdict() for pt in _reference_points(model, grid, nats)]})


BYTE_MODELS = {
    "example": EXAMPLE_JSON,
    "rank-deficient 4x3": {"A": [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]], "sigma2": 0.5},
    "rank 0": {"A": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "sigma2": 2.0},
    "1x1": {"A": [[1.3]], "sigma2": 0.7},
    "whitened": {"A": [[1.0, 0.5], [0.2, 2.0]], "sigma2": 0.3,
                 "sigma_x": [[2.0, 0.3], [0.3, 1.0]]},
    # (g_1 + sigma2) / sigma2 overflows, so gap_ub is inf at every rate
    "infinite gap bound": {"A": [[1e100, 0.0], [0.0, 1.0]], "sigma2": 1e-300},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(BYTE_MODELS))
def test_sweep_files_keep_their_bytes(name, fmt, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BYTE_MODELS[name]))
    model = load_model(path)
    out = tmp_path / "sweep.out"
    for steps in (2, 2001):
        for nats in (False, True):
            argv = ["sweep", str(path), "--min", "0", "--max", "12", "--steps", str(steps),
                    "--out", str(out), "--format", fmt] + ["--nats"] * nats
            assert main(argv) == 0
            grid = np.linspace(0.0, 12.0, steps)
            assert out.read_bytes() == _reference_sweep(model, grid, fmt, nats).encode()
            if fmt == "json":
                _assert_sweep_reads_back(out.read_bytes(), model, grid, nats)
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n" * 2 + f"wrote 2001 rows to {out}\n" * 2
    if name == "infinite gap bound":  # inf takes the CSV writer's % path
        assert ("null" if fmt == "json" else "inf") in out.read_text()
    if name in ("1x1", "rank 0") and fmt == "csv":  # zeros take its digit path
        assert {row.split(",")[5] for row in out.read_text().split()[1:]} == {"0"}


@pytest.mark.parametrize("name", list(BYTE_MODELS))
def test_analyze_json_is_indented_orjson_that_reads_back_strictly(name, tmp_path, capsys):
    # the file is orjson's bytes in a 2-space indent with a final newline, and strict JSON
    # that reads back as the report, bit for bit
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(BYTE_MODELS[name]))
    model = load_model(path)
    for rate in (0.0, 0.3, 1.9037, 40.0):
        for nats in (False, True):
            argv = ["analyze", str(path), "--rate", repr(rate), "--json", str(out)]
            assert main(argv + ["--nats"] * nats) == 0
            report = cli._analysis_report(model, rate / math.log(2.0) if nats else rate, nats)
            _assert_reads_back(out.read_bytes(), report)
            assert out.read_bytes() == orjson.dumps(
                report, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    capsys.readouterr()


def _types(doc) -> set:
    """The type of ``doc`` and of everything in it, through its lists and dict keys and values."""
    if isinstance(doc, dict):
        return {dict}.union(*map(_types, doc), *map(_types, doc.values()))
    if isinstance(doc, list):
        return {list}.union(*map(_types, doc))
    return {type(doc)}


@pytest.mark.parametrize("name", list(BYTE_MODELS))
def test_analysis_report_holds_only_builtin_json_types(name, tmp_path):
    # no numpy scalar reaches the JSON writer or the text report
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BYTE_MODELS[name]))
    model = load_model(path)
    for rate in (0.0, 0.3, 1.9037, 40.0):
        for nats in (False, True):
            types = _types(cli._analysis_report(model, rate, nats))
            assert types <= {float, int, bool, str, type(None), list, dict}, (rate, nats, types)


def test_sweep_files_spell_non_finite_values_as_null(model_file, tmp_path, capsys, monkeypatch):
    inf, nan = math.inf, math.nan
    points = [
        drf.DistortionPoint(0.0, 1.0, 1.0, 0.0, inf, 0.0, 1, 1, 20.0, 0.5),
        drf.DistortionPoint(1.5, nan, -inf, inf, -0.0, 5e-324, 2, 0, nan, 1e300),
    ]
    # the two rows as the column kernel returns them: float columns, integer active counts
    columns = tuple(np.array(c, dtype=int if f.startswith("k_") else float)
                    for f, c in zip(drf.DistortionPoint._fields, zip(*points)))
    monkeypatch.setattr(cedrf.drf, "_columns", lambda model, grid: columns)
    out = tmp_path / "sweep.out"
    for fmt in ("csv", "json"):
        for nats in (False, True):
            argv = ["sweep", str(model_file), "--min", "0", "--max", "1.5", "--steps", "2",
                    "--out", str(out), "--format", fmt] + ["--nats"] * nats
            assert main(argv) == 0
            expected = _reference_sweep(None, np.array([0.0, 1.5]), fmt, nats)
            assert out.read_bytes() == expected.encode()
            if fmt == "json":
                _assert_sweep_reads_back(out.read_bytes(), None, np.array([0.0, 1.5]), nats)
    capsys.readouterr()
    rows = _strict_loads(out.read_bytes())["rows"]  # null where a value is not finite
    assert [rows[0]["gap_ub"], rows[1]["d_ce"], rows[1]["d_idrf"]] == [None] * 3
    assert rows[1]["theta_ce"] == 1e300 and rows[1]["k_idrf"] == 2


def test_sweep_and_example_write_from_one_column_kernel_call(model_file, tmp_path, capsys,
                                                            monkeypatch):
    # the writers read drf._columns once per op, and build no row objects
    calls, columns = [], drf._columns

    def counted(model, grid):
        calls.append(grid.size)
        return columns(model, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("row objects built")

    monkeypatch.setattr(drf, "_columns", counted)
    monkeypatch.setattr(drf, "sweep", refuse)
    monkeypatch.setattr(drf, "_points", refuse)
    monkeypatch.setattr(drf.DistortionPoint, "__new__", refuse)
    sweep = ["sweep", str(model_file), "--min", "0", "--max", "12", "--steps", "201",
             "--out", str(tmp_path / "sweep.out")]
    runs = [(sweep + ["--format", fmt] + ["--nats"] * nats, 201)
            for fmt in ("csv", "json") for nats in (False, True)]
    runs.append((["example", "--out", str(tmp_path)], 451))
    for argv, rows in runs:
        calls.clear()
        assert main(argv) == 0
        assert calls == [rows], argv
    capsys.readouterr()


def test_python_dash_m_cedrf_writes_what_main_writes(model_file, tmp_path, capsys):
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    argv = ["sweep", str(model_file), "--min", "0", "--max", "12", "--steps", "2001",
            "--format", "json", "--out"]
    proc = subprocess.run(
        [sys.executable, "-m", "cedrf", *argv, str(tmp_path / "sub.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 2001 rows to {tmp_path / 'sub.json'}\n"
    assert main(argv + [str(tmp_path / "main.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "sub.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_python_dash_m_cedrf_verifies_as_main_does(capsys):
    src = str(Path(cedrf.drf.__file__).resolve().parents[1])
    argv = ["verify", "--random", "1", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "cedrf", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    code = main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out), proc.stderr
    assert proc.stdout


def test_verify_example_model_passes(model_file, capsys):
    code = main(["verify", str(model_file), "--samples", "40000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert "PASS oracle-equivalence" in out
    assert "PASS monte-carlo-mmse" in out


def test_verify_runs_every_check_on_an_ill_conditioned_model(tmp_path, capsys):
    # a valid 4x2 model with |A|^2 / s2 near 1e10 and 1e13: its estimate
    # covariance's eigenvalues tie to about s2 / |A|^2, and the two zeros of
    # A A^T must count as exact zeros or d_ce misses the matrix form (and
    # goes negative)
    a = np.random.default_rng(7).normal(size=(4, 2))
    path = tmp_path / "ill.json"
    for sigma2 in (1e-9, 1e-12):
        path.write_text(json.dumps({"A": a.tolist(), "sigma2": sigma2}))
        code = main(["verify", str(path), "--samples", "20000", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "", sigma2
        assert captured.out.rstrip().endswith("all checks passed"), sigma2


def test_verify_uses_the_models_rank_truncated_matrix(tmp_path, capsys):
    # s_2 = 1e-17 s_1 is at most 2 eps s_1, so the closed forms take lam_2 as 0;
    # at s2 = 1e-30 the raw row would still carry it into the CE channel, and
    # verify fails when the channel keeps that row
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1e-17]], "sigma2": 1e-30}))
    code = main(["verify", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    checks = [line for line in lines if not line.startswith("==")][:-1]
    assert len(checks) == 8 and all(line.startswith("  PASS ") for line in checks)
    assert lines[-1] == "all checks passed"


def test_verify_continuity_fails_every_model_whose_thresholds_are_scaled(monkeypatch, capsys):
    # R_k (1 + 1e-9) moves lam_k 2^{2(R_k - R_{k+1})/k} off lam_{k+1} by about
    # 1.4e-9 (R_{k+1} - R_k)/k relative; a model with L = 1 has no finite threshold
    table = Spectrum.__dict__["thresholds"].func
    monkeypatch.setattr(Spectrum, "thresholds", property(lambda s: table(s) * (1.0 + 1e-9)))
    main(["verify", "--random", "40", "--samples", "2000"])
    models = capsys.readouterr().out.split("== ")[1:]
    wide = [m for m in models if " L=1 " not in m.splitlines()[0]]
    assert len(models) == 40 and len(wide) > 20
    for m in models:
        line = next(x for x in m.splitlines() if " continuity " in x)
        assert line.startswith("  FAIL " if m in wide else "  PASS "), m


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_verify_continuity_passes_near_ties_at_any_scale(scale):
    # 128 values within 1e-3 of each other: nearly tied thresholds, each step a log
    # ratio (spectral._log2_ratio) that no scale enters, so the water level the kernel
    # gives at each finite threshold R_{k+1}, which verify's continuity check reads,
    # misses v_{k+1} by at most a few ulps at every scale
    values = np.sort(np.random.default_rng(11).uniform(1.0, 1.001, 128))[::-1] * scale
    for s in (Spectrum(values), *spectra(Spectrum(values), scale, values.size)[:2]):
        theta = waterfill._levels(s, s.thresholds[1:s.rank])[1]
        misses = np.abs(theta / s.values[1:s.rank] - 1.0)
        assert len(misses) == 127 and misses.max() <= 1e-12


def test_verify_random_models_deterministic(capsys):
    code = main(["verify", "--random", "3", "--samples", "20000", "--seed", "7"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["verify", "--random", "3", "--samples", "20000", "--seed", "7"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_verify_random_draws_each_models_sums_afresh(capsys):
    # model i draws its Monte Carlo sums from seed + i.  With one seed for
    # all, every chisquare(n, size=M) draw would start with the same sums,
    # and random[0]'s fluctuation at seed 3867 (README, verify) failed 82
    # checks over 50 models; alone it fails only random[0]'s three
    code = main(["verify", "--random", "50", "--seed", "3867"])
    out = capsys.readouterr().out
    failed, label = [], None
    for line in out.splitlines():
        if line.startswith("== "):
            label = line[3:line.index(":")]
        elif line.startswith("  FAIL "):
            failed.append((label, line.split()[1]))
    assert code == 1 and out.endswith("\n3 check(s) FAILED\n")
    assert failed == [("random[0]", f"monte-carlo-{name}") for name in ("ce", "idrf", "mmse")]


def test_random_verify_model_keeps_the_generator_stream():
    # sigma2 is drawn as an index into the three values, as rng.choice drew it:
    # the same model and the same draws after it
    def reference(rng):
        m, l_dim = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        return rng.uniform(-2.0, 2.0, size=(l_dim, m)), float(rng.choice([0.1, 1.0, 10.0]))

    for seed in range(500):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        model = cli._random_verify_model(rng)
        a, sigma2 = reference(ref)
        assert np.array_equal(model.A.data, a) and model.sigma2 == sigma2, seed
        assert rng.uniform() == ref.uniform(), seed


def _verify_fails(capsys, check):
    code = main(["verify", "--random", "1", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert f"FAIL {check:<18} observed nan" in out
    assert out.endswith("\n1 check(s) FAILED\n"), out


def _nan_column(monkeypatch, field, rate):
    # the closed forms of verify's grid with one entry NaN
    real, at = drf._columns, drf.DistortionPoint._fields.index(field)

    def corrupted(model, grid):
        columns = list(real(model, grid))
        columns[at] = np.where(grid == rate, np.nan, columns[at])
        return tuple(columns)

    monkeypatch.setattr(drf, "_columns", corrupted)


def test_verify_fails_a_nan_closed_form_residual(capsys, monkeypatch):
    # R = 6 is an oracle-equivalence rate, not the first: a NaN there must
    # fail the check, not drop out of the maximum
    _nan_column(monkeypatch, "d_ce", 6.0)
    _verify_fails(capsys, "oracle-equivalence")


def test_verify_fails_a_nan_gap(capsys, monkeypatch):
    _nan_column(monkeypatch, "gap", cli._SANDWICH_RATES[10])
    _verify_fails(capsys, "bound-sandwich")


def test_verify_fails_a_nan_monte_carlo_estimate(capsys, monkeypatch):
    # the CE estimate at R = 1, the second of three, has mean NaN
    real = oracle._estimates

    def corrupted(*args, **kwargs):
        run = real(*args, **kwargs)
        ce = list(run.ce)
        ce[1] = dataclasses.replace(ce[1], mean=math.nan)
        return dataclasses.replace(run, ce=tuple(ce))

    monkeypatch.setattr(oracle, "_estimates", corrupted)
    _verify_fails(capsys, "monte-carlo-ce")


@pytest.mark.parametrize("tolerance", [1e-12, 1e-10, 1e-9, 1e-3])
def test_a_check_passes_at_its_tolerance(tolerance):
    # one pass rule for every check: observed at most the tolerance, and a NaN fails
    assert cli.CheckResult("check", tolerance, tolerance).passed
    assert not cli.CheckResult("check", tolerance, math.nextafter(tolerance, math.inf)).passed
    assert not cli.CheckResult("check", tolerance, math.nan).passed


def test_a_monte_carlo_estimate_at_its_tolerance_passes():
    # |0.75 - 0.5| is exactly 4 stderr
    est = oracle.McEstimate(mean=0.75, stderr=0.0625, n_samples=1, seed=0)
    got = cli._worst_mc("monte-carlo-ce", [est], [0.5])
    assert got == cli.CheckResult("monte-carlo-ce", 0.25, 0.25) and got.passed


def _fails_oracle_equivalence(model_file, capsys):
    code = main(["verify", str(model_file), "--samples", "2000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAIL oracle-equivalence" in out


def test_verify_negative_control(model_file, capsys, monkeypatch):
    # raise d_ce by 1e-6 in the grid kernel that verify reads (drf.sweep and
    # the one-rate functions read it too): verification must fail and name
    # the check
    real, at = drf._columns, drf.DistortionPoint._fields.index("d_ce")

    def corrupted(model, grid):
        columns = list(real(model, grid))
        columns[at] = columns[at] + 1e-6
        return tuple(columns)

    monkeypatch.setattr(drf, "_columns", corrupted)
    _fails_oracle_equivalence(model_file, capsys)


def test_verify_negative_control_on_the_test_channel(model_file, capsys, monkeypatch):
    # scale the distortions of the observation spectrum's forward test
    # channel by 1.01, upstream of the CE test channel's one SVD, which the
    # matrix form and the Monte Carlo CE maps share: verification must fail
    # and name the check
    real_load, real_gains, models = cli.load_model, oracle._gains, []

    def load(path):
        models.append(real_load(path))
        return models[-1]

    def corrupted(spectrum, R):
        gain, dist = real_gains(spectrum, R)
        return gain, dist * 1.01 if spectrum is models[-1].observation else dist

    monkeypatch.setattr(cli, "load_model", load)
    monkeypatch.setattr(oracle, "_gains", corrupted)
    _fails_oracle_equivalence(model_file, capsys)


def test_verify_requires_one_source(model_file):
    with pytest.raises(SystemExit):
        main(["verify"])
    with pytest.raises(SystemExit):
        main(["verify", str(model_file), "--random", "2"])
    for n in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", n])
        assert exc.value.code == 2


def test_verify_names_what_is_wrong_with_its_source(model_file, capsys):
    for argv, message in ((["verify"], "verify needs exactly one of: a model file, or --random N"),
                          (["verify", str(model_file), "--random", "0"],
                           "verify needs exactly one of: a model file, or --random N"),
                          (["verify", "--random", "0"], "--random needs N >= 1, got 0"),
                          (["verify", "--random", "-1", "--seed", "-1"],
                           "--random needs N >= 1, got -1")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n"), argv


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_rejects_bad_sample_count(model_file, capsys, n):
    for source in (["--random", "1"], [str(model_file)]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *source, "--samples", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--samples needs N >= 1, got {n}" in captured.err


def test_verify_rejects_a_negative_seed(model_file, capsys):
    for source in (["--random", "1"], [str(model_file)]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *source, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed needs N >= 0, got -1" in captured.err


def test_example_outputs(tmp_path, capsys):
    assert main(["example", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.757287" in out
    assert "1.903677" in out
    assert f"{MAX_GAP:.6f}" in out
    curves = (tmp_path / "drf_curves.csv").read_text().strip().split("\n")
    gaps = (tmp_path / "gap_curve.csv").read_text().strip().split("\n")
    assert curves[0] == "R,d_idrf,d_ce"
    assert gaps[0] == "R,gap"
    assert len(curves) == len(gaps) == 452
    first = curves[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0 and float(first[2]) == 1.0
    by_rate = {float(r.split(",")[0]): float(r.split(",")[1]) for r in gaps[1:]}
    half = min(by_rate, key=lambda r: abs(r - 0.5))
    three = min(by_rate, key=lambda r: abs(r - 3.0))
    assert by_rate[half] <= 1e-12
    assert by_rate[three] == pytest.approx(GAP_AT_3, abs=1e-9)


def test_example_files_keep_their_bytes(tmp_path, capsys):
    assert main(["example", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    points = drf.sweep(cli.example_model(), np.linspace(0.0, 4.5, 451))
    curves = ["%.17g,%.17g,%.17g" % (p.R, p.d_idrf, p.d_ce) for p in points]
    gaps = ["%.17g,%.17g" % (p.R, p.gap) for p in points]
    assert (tmp_path / "drf_curves.csv").read_text() == "\n".join(["R,d_idrf,d_ce"] + curves) + "\n"
    assert (tmp_path / "gap_curve.csv").read_text() == "\n".join(["R,gap"] + gaps) + "\n"


def test_parser_is_built_once_per_process(model_file, tmp_path, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    runs = [
        (["analyze", str(model_file), "--rate", "1.5"], 0),
        (["analyze", "/nonexistent/model.json", "--rate", "1"], 2),
        (["sweep", str(model_file), "--min", "0", "--max", "3", "--steps", "7",
          "--out", str(tmp_path / "s.csv")], 0),
    ]
    outputs = []
    for _ in range(3):
        for argv, code in runs:
            assert main(argv) == code
            outputs.append(capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(model_file), "--random", "2"])
        assert exc.value.code == 2
        outputs.append(capsys.readouterr())
    assert outputs[:4] == outputs[4:8] == outputs[8:]
    assert cli.build_parser.cache_info().misses == 1
    # commands are looked up when called, so a replaced one runs
    called = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: called.append(args.rate) or 0)
    assert main(["analyze", str(model_file), "--rate", "2"]) == 0
    assert called == [2.0]
