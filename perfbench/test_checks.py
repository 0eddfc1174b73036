"""Classification of failed `verify` ops by the benchmark's correctness gate.

Run with ``python3 -m pytest perfbench/test_checks.py``.
"""

import checks

PASSED = """== random[0]: M=3 L=3 sigma2=10.0
  PASS oracle-equivalence observed 1.110e-16  tol 1.000e-09
  PASS monte-carlo-ce     observed 9.103e-03  tol 9.576e-03
all checks passed
"""


def _failed(*lines):
    return "== random[0]: M=3 L=3 sigma2=10.0\n" + "\n".join(lines) + "\n1 check(s) FAILED\n"


def test_passing_verify_is_not_a_failure():
    assert checks.check_verify(PASSED) is None
    assert not checks.monte_carlo_false_alarm(PASSED)


def test_monte_carlo_miss_within_tolerance_margin_is_a_false_alarm():
    out = _failed("  FAIL monte-carlo-idrf   observed 9.159e-03  tol 9.093e-03")
    assert checks.check_verify(out) == "verify failed monte-carlo-idrf observed 9.159e-03 tol 9.093e-03"
    assert checks.monte_carlo_false_alarm(out)


def test_large_monte_carlo_miss_or_closed_form_failure_is_not():
    assert not checks.monte_carlo_false_alarm(
        _failed("  FAIL monte-carlo-ce     observed 2.000e-02  tol 9.000e-03"))
    assert not checks.monte_carlo_false_alarm(
        _failed("  FAIL monte-carlo-ce     observed 9.100e-03  tol 9.000e-03",
                "  FAIL bound-sandwich     observed 1.000e-06  tol 1.000e-10"))
    assert checks.check_verify("== random[0]\n") == "verify did not finish"
