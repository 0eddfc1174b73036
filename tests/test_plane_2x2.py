"""The paper's two-by-two example over its whole dimensionless plane.

The curves depend on the model only through ``lam / sigma2``, so every 2x2
model is a point ``(a, b)`` of the plane ``A = diag(sqrt(10^a), sqrt(10^b))``,
``sigma2 = 1``.  The grid takes ``a >= b`` in steps of 0.25 over [-8, 8]:
2,145 pairs.  Each pair runs at 801 rates from 0 to 40 bits past its last
finite threshold, at both spectra's thresholds, and at ``max_gap_2d``'s rate
where ``max_gap_2d`` accepts the pair.
"""

import functools
import sys
from typing import NamedTuple

import numpy as np
import pytest

from cedrf import drf
from cedrf.spectral import ObservationModel

EXPONENTS = np.arange(-32, 33) / 4.0
N_RATES, PAST_LAST = 801, 40.0
# the grid's largest gap against max_gap_2d's value, relative: -4.0e-15 to +6.0e-15 (27 eps)
# on an x86-64 host with numpy's OpenBLAS; the bound leaves a factor of two for other platforms
PEAK_K = 64


class Pair(NamedTuple):
    """What the tests read of one pair's rates: the arrays of all 2,145 would hold 55 MB."""

    a: float
    b: float
    unconditional: bool
    gap_below_limit: bool  # a positive gap below R_limit
    gap_outside_bounds: bool  # a positive gap outside [gap_lb, gap_ub]
    gap_anywhere: bool
    # the grid's largest gap over max_gap_2d's value, less 1, on a conditional pair it accepts
    peak_error: float | None


def columns(a: float, b: float):
    """Pair ``(a, b)``'s model, :func:`drf._columns` at its rates, and ``max_gap_2d``'s
    ``(R_peak, peak)``, or ``None`` where ``max_gap_2d`` rejects the pair."""
    model = ObservationModel(np.diag(np.sqrt([10.0 ** a, 10.0 ** b])), 1.0)
    t = np.concatenate([model.observation.thresholds, model.conditional.thresholds])
    thresholds = t[np.isfinite(t)]
    rates = [np.linspace(0.0, thresholds.max() + PAST_LAST, N_RATES), thresholds]
    try:
        peak = drf.max_gap_2d(*model.gram.values.tolist(), model.sigma2)
        rates.append([peak[0]])
    except ValueError:
        peak = None
    return model, drf._columns(model, drf._check_grid(np.unique(np.concatenate(rates)))), peak


@functools.cache
def plane() -> list[Pair]:
    pairs = []
    for i, a in enumerate(EXPONENTS.tolist()):
        for b in EXPONENTS[: i + 1].tolist():
            model, (R, _, _, gap, gap_ub, gap_lb, *_), peak = columns(a, b)
            region = drf.equality_region(model)
            positive = gap > 0.0
            pairs.append(Pair(a, b, region.unconditional,
                              bool(positive[R < region.R_limit].any()),
                              bool((positive & ((gap_lb > gap) | (gap > gap_ub))).any()),
                              bool(positive.any()),
                              None if peak is None or region.unconditional
                              else gap.max() / peak[1] - 1.0))
    return pairs


def test_plane_keeps_equality_the_sandwich_and_the_peak():
    pairs = plane()
    assert len(pairs) == 2145
    conditional = [p for p in pairs if not p.unconditional]
    # the gap is exactly 0 below R_limit
    assert [(p.a, p.b) for p in conditional if p.gap_below_limit] == []
    # gap_lb <= gap <= gap_ub wherever the gap is positive, with no slack
    assert [(p.a, p.b) for p in pairs if p.gap_outside_bounds] == []
    # the grid's largest gap is max_gap_2d's value
    errors = np.array([p.peak_error for p in pairs if p.peak_error is not None])
    assert errors.size == 1024
    assert np.abs(errors).max() <= PEAK_K * sys.float_info.epsilon, (errors.min(), errors.max())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18, step 2: on 11 of the 32 pairs with b = -a != 0 the "
                          "kernel's gap is positive, up to 5.6e-17")
def test_plane_has_no_gap_on_a_tie():
    pairs = [p for p in plane() if p.unconditional]
    assert len(pairs) == 97  # a = b, and b = -a != 0
    assert [(p.a, p.b) for p in pairs if p.gap_anywhere] == []
