"""``verify`` on each model of ``tests/models``, one file per model whose defect was found by hand.

A file in ``FAILING`` still fails, for the cause named beside it; the PR that mends the
cause moves the file to the passing ones, where ``verify`` must print "all checks passed"
with no warning.
"""

from pathlib import Path

import pytest

from cedrf.cli import main

MODELS = Path(__file__).resolve().parent / "models"
FAILING = {
    "subnormal_sigma2_far_pair.json": "oracle-equivalence 8.9e-5: the matrix oracle works in "
                                      "absolute units at a subnormal sigma2",
    "subnormal_ties_decimal.json": "oracle-equivalence 8.0e-5: absolute units, as above",
    "subnormal_ties_exact.json": "oracle-equivalence 1.0e-5: absolute units, as above",
    "overflowing_whitened_channel.json": "the oracle's whitened channel overflows (RuntimeWarning)",
    "wide_range_rejected.json": "model build: lambda1 + sigma2 overflows, exit 2",
}


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=pytest.mark.xfail(p.name in FAILING, reason=FAILING.get(p.name, ""),
                                                 strict=True))
    for p in sorted(MODELS.glob("*.json"))])
def test_verify_passes_on_the_model_corpus(name, capsys):
    code = main(["verify", str(MODELS / name)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), captured.out
    assert captured.out.endswith("all checks passed\n")
