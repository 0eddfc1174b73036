"""Negative controls for ``verify``: which deliberate faults its checks catch, and on how many models.

Usage::

    PYTHONPATH=src python tests/verify_power.py [N]

Each entry of ``MUTATIONS`` patches one rule of the library in this process
and is restored afterwards.  Under each, ``N`` models (default 300) are
drawn as ``verify --random N --seed 1`` draws them, and each goes through
``cli._verify_model`` as ``verify`` runs it.  Models are built after the
patch, so a fault in the model build or the threshold table reaches them.
The script prints one line per mutation: the check expected to catch it
(``blind spot`` where no check is expected to), the number of models with
any failing check, and the count per failing check.  The first line runs
without a mutation, so a fault's counts stand against a clean run.
``tests/test_verify_power.py`` runs it at ``N = 40`` and asserts that each
expected catch happens.
"""

import sys
from typing import Callable, ContextManager, NamedTuple
from unittest import mock

import numpy as np

from cedrf import cli, drf, linalg, spectral

SEED, SAMPLES = 1, 100_000


class Mutation(NamedTuple):
    name: str
    patch: Callable[[], ContextManager]  # a fresh patcher, entered once per run
    catch: str | None  # the check expected to fail on some model; None for a blind spot


def _thresholds_times(factor: float):
    table = spectral.Spectrum.__dict__["thresholds"].func  # 0 and inf keep their value
    return lambda: mock.patch.object(spectral.Spectrum, "thresholds",
                                     property(lambda s: table(s) * factor))


def _bounds_times(upper: float = 1.0, lower: float = 1.0):
    bounds = drf._gap_bounds_grid

    def scaled(*args):
        u, l = bounds(*args)
        return u * upper, l * lower
    return lambda: mock.patch.object(drf, "_gap_bounds_grid", scaled)


def _curve_times(curve: str, factor: float):
    """``curve`` (``"d_idrf"`` or ``"d_ce"``), as :func:`drf._curves` returns it, times ``factor``."""
    curves, i = drf._curves, ("d_idrf", "d_ce").index(curve)

    def scaled(*args):
        out = list(curves(*args))
        out[i] = out[i] * factor
        return tuple(out)
    return lambda: mock.patch.object(drf, "_curves", scaled)


def _rank_cut(rtol: float):
    """Every singular value at most ``rtol s_1`` counts as zero."""
    return lambda: mock.patch.object(linalg, "above_noise",
                                     lambda v, n: np.asarray(v) > np.max(v) * rtol)


def _tie_tolerance(rtol: float):
    """Weights within ``rtol`` (relative) of the first count as tied."""
    def block(obs, cond, lam, n):
        w = [c / o for c, o in zip(cond.values.tolist(), obs.values.tolist())]
        r0 = 1
        while r0 < cond.rank and abs(w[r0] - w[0]) <= rtol * w[0]:
            r0 += 1
        return r0
    return lambda: mock.patch.object(drf, "_tie_block", block)


MUTATIONS = (
    Mutation("thresholds x 1.001", _thresholds_times(1.001), "continuity"),
    Mutation("thresholds x (1 + 1e-9)", _thresholds_times(1.0 + 1e-9), "continuity"),
    Mutation("gap_ub x 0.05", _bounds_times(upper=0.05), "bound-sandwich"),
    Mutation("gap_ub x 0.5", _bounds_times(upper=0.5), None),
    Mutation("gap_ub x 10", _bounds_times(upper=10.0), None),
    Mutation("gap_lb x 0.1", _bounds_times(lower=0.1), None),
    Mutation("gap_lb x 2", _bounds_times(lower=2.0), "bound-sandwich"),
    Mutation("d_ce x (1 + 1e-6)", _curve_times("d_ce", 1.0 + 1e-6), "oracle-equivalence"),
    Mutation("d_ce x (1 + 1e-12)", _curve_times("d_ce", 1.0 + 1e-12), None),
    Mutation("d_idrf x (1 + 1e-12)", _curve_times("d_idrf", 1.0 + 1e-12), None),
    Mutation("rank cut at 1e-6 s_1", _rank_cut(1e-6), None),
    Mutation("tie tolerance 1e-10", _tie_tolerance(1e-10), None),
)


def failures(n: int) -> dict[str, int]:
    """Models with any failing check (``"any"``) and per failing check, over ``n`` random models."""
    rng = np.random.default_rng(SEED)
    models = [cli._random_verify_model(rng) for _ in range(n)]
    counts = {"any": 0}
    for i, model in enumerate(models):
        failed = [c.name for c in cli._verify_model(model, rng, SAMPLES, SEED + i) if not c.passed]
        counts["any"] += bool(failed)
        for name in failed:
            counts[name] = counts.get(name, 0) + 1
    return counts


def table(n: int) -> dict[str, dict[str, int]]:
    """:func:`failures` with no mutation (``"none"``) and under each of ``MUTATIONS``."""
    rows = {"none": failures(n)}
    for m in MUTATIONS:
        with m.patch():
            rows[m.name] = failures(n)
    return rows


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    catches = {m.name: m.catch or "blind spot" for m in MUTATIONS}
    for name, counts in table(n).items():
        per_check = ", ".join(f"{k} {v}" for k, v in counts.items() if k != "any") or "-"
        print(f"{name:<24} expect {catches.get(name, '-'):<18} failing models "
              f"{counts['any']:>3}/{n}  {per_check}", flush=True)


if __name__ == "__main__":
    main()
