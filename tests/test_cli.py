import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from support import GAP_AT_3, MAX_GAP, R2_COND, R2_OBS, example_model

import cedrf.drf
from cedrf import cli, drf, oracle, waterfill
from cedrf.cli import CSV_HEADER, load_model, main
from cedrf.spectral import Spectrum


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


def test_json_writer_spells_every_kind_of_value_as_json_does():
    inf, nan = math.inf, math.nan
    doc = {"floats": [1.0, -0.0, 5e-324, 1e300, inf, -inf, nan, 0.1], "ints": [0, 1, -7, 2**70],
           "words": [None, True, False], "empty": [[], {}], "nested": {"a": {"b": [[1.5]]}},
           "text": ["bits", "inf", "nan", "quote \" \\ é \n"], "scalar": nan, "none": None}
    assert cli._json_indent2(doc) == json.dumps(doc, indent=2)
    for value in ({}, [], 2.5, 3, True, None, "s"):
        assert cli._json_indent2(value) == json.dumps(value, indent=2)


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


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/model.json", "--rate", "1"]) == 2
    assert "not found" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad), "--rate", "1"]) == 2
    assert "ParseError" in capsys.readouterr().err


_IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]
_HUGE = 10 ** 400  # a 401-digit JSON integer, which no double holds


@pytest.mark.parametrize("doc, message", [
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
])
def test_analyze_names_each_malformed_field(tmp_path, capsys, doc, message):
    # every command that reads a model exits 2 with the field named; for
    # verify, 1 would mean a failed check
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    for argv in (["analyze", str(path), "--rate", "1"], ["verify", str(path)],
                 ["sweep", str(path), "--min", "0", "--max", "1", "--steps", "2", "--out", str(out)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path)), argv


def test_gram_overflow_names_the_cause(tmp_path):
    # A is finite, but A A^T is not representable in double precision
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
    assert "InvalidModel: A A^T overflows double precision" in proc.stderr
    assert "must be finite" not in proc.stderr
    assert "Warning" not in proc.stderr


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


# Sweep files as they were written one ``%`` per row (CSV) and by
# ``json.dumps(..., indent=2)`` (JSON); the one-``%`` writer must keep their bytes.
def _reference_sweep(model, grid, fmt, nats):
    points = drf.sweep(model, grid / math.log(2.0) if nats else grid)
    if nats:
        points = [pt._replace(R=r) for r, pt in zip(grid.tolist(), points)]
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [cli._CSV_LINE % pt for pt in points]) + "\n"
    return json.dumps({"rows": [pt._asdict() for pt in points]}, indent=2) + "\n"


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
            expected = _reference_sweep(model, np.linspace(0.0, 12.0, steps), fmt, nats)
            assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n" * 2 + f"wrote 2001 rows to {out}\n" * 2
    if name == "infinite gap bound":
        assert ("Infinity" if fmt == "json" else "inf") in out.read_text()


@pytest.mark.parametrize("name", list(BYTE_MODELS))
def test_analyze_json_keeps_json_dumps_bytes(name, tmp_path, capsys):
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(BYTE_MODELS[name]))
    model = load_model(path)
    for rate in (0.0, 0.3, 1.9037, 40.0):
        for nats in (False, True):
            argv = ["analyze", str(path), "--rate", repr(rate), "--json", str(out)]
            assert main(argv + ["--nats"] * nats) == 0
            report = cli._analysis_report(model, rate / math.log(2.0) if nats else rate, nats)
            assert out.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()
    capsys.readouterr()


def test_sweep_files_spell_non_finite_values_as_before(model_file, tmp_path, capsys, monkeypatch):
    inf, nan = math.inf, math.nan
    points = [
        drf.DistortionPoint(0.0, 1.0, 1.0, 0.0, inf, 0.0, 1, 1, 20.0, 0.5),
        drf.DistortionPoint(1.5, nan, -inf, inf, -0.0, 5e-324, 2, 0, nan, 1e300),
    ]
    monkeypatch.setattr(cedrf.drf, "sweep", lambda model, grid: list(points))
    out = tmp_path / "sweep.out"
    for fmt in ("csv", "json"):
        for nats in (False, True):
            argv = ["sweep", str(model_file), "--min", "0", "--max", "1.5", "--steps", "2",
                    "--out", str(out), "--format", fmt] + ["--nats"] * nats
            assert main(argv) == 0
            expected = _reference_sweep(None, np.array([0.0, 1.5]), fmt, nats)
            assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    text = out.read_text()
    assert '"gap_ub": Infinity' in text and '"d_ce": -Infinity' in text and '"d_idrf": NaN' in text
    assert json.loads(text)["rows"][1]["theta_ce"] == 1e300


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
    # A A^T has 9e-12 below the rank cut-off, so the closed forms take it as 0;
    # at s2 = 1e-10 the raw column would still carry signal into the CE channel
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 3e-6]], "sigma2": 1e-10}))
    code = main(["verify", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    checks = [line for line in lines if not line.startswith("==")][:-1]
    assert len(checks) == 7 and all(line.startswith("  PASS ") for line in checks)
    assert lines[-1] == "all checks passed"


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
    # scale the noise covariance of the CE test channel, which the matrix
    # form and the Monte Carlo CE maps share, by 1.01: verification must fail
    # and name the check
    real = oracle._ce_grid

    def corrupted(model, rates):
        parts = real(model, rates)
        return dataclasses.replace(parts, noise_cov=parts.noise_cov * 1.01)

    monkeypatch.setattr(oracle, "_ce_grid", corrupted)
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
