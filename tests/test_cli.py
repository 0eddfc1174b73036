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
from cedrf import cli, drf, waterfill
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


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/model.json", "--rate", "1"]) == 2
    assert "not found" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad), "--rate", "1"]) == 2
    assert "ParseError" in capsys.readouterr().err


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
        "r0": min(rows, cols), "R_limit": None, "unconditional": rows == cols,
    }
    assert doc["thresholds"]["conditional"] == [0.0]
    p = doc["point"]
    assert (p["k_idrf"], p["theta_idrf"]) == (0, 0.0)
    assert p["d_idrf"] == p["d_ce"] == 1.0
    assert doc["rates"]["idrf"] == [0.0] * rows


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


def test_verify_example_model_passes(model_file, capsys):
    code = main(["verify", str(model_file), "--samples", "40000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert "PASS oracle-equivalence" in out
    assert "PASS monte-carlo-mmse" in out


def test_verify_runs_every_check_on_an_ill_conditioned_model(tmp_path, capsys):
    # a valid 4x2 model with |A|^2 / s2 near 1e10; its oracle covariances
    # are not exactly symmetric after rounding
    a = np.random.default_rng(7).normal(size=(4, 2))
    path = tmp_path / "ill.json"
    path.write_text(json.dumps({"A": a.tolist(), "sigma2": 1e-9}))
    code = main(["verify", str(path), "--samples", "20000", "--seed", "3"])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    for name in ("monte-carlo-ce", "monte-carlo-idrf", "monte-carlo-mmse"):
        assert f"PASS {name}" in captured.out


def test_verify_random_models_deterministic(capsys):
    code = main(["verify", "--random", "3", "--samples", "20000", "--seed", "7"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["verify", "--random", "3", "--samples", "20000", "--seed", "7"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_verify_negative_control(model_file, capsys, monkeypatch):
    # corrupt the closed form, both at one rate and on a grid (the
    # oracle-equivalence check reads d_ce from one sweep): verification
    # must fail and name the check
    real = cedrf.drf.ce_drf
    monkeypatch.setattr(cedrf.drf, "ce_drf", lambda model, r: real(model, r) + 1e-6)
    real_sweep = cedrf.drf.sweep
    monkeypatch.setattr(cedrf.drf, "sweep", lambda model, grid: [
        pt._replace(d_ce=pt.d_ce + 1e-6) for pt in real_sweep(model, grid)
    ])
    code = main(["verify", str(model_file), "--samples", "2000", "--seed", "11"])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAIL oracle-equivalence" in out


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
