"""Negative controls for ``verify``: which deliberate faults its checks catch, and on how many models.

Usage::

    PYTHONPATH=src python tests/verify_power.py [N]

Each entry of ``MUTATIONS`` patches one rule of the library in this process
and is restored afterwards.  Under each, ``N`` models (default 300) are
drawn as ``verify --random N --seed 1`` draws them, and each goes through
``cli._verify_model`` as ``verify`` runs it; then so does each model of the
``tests/models`` corpus that ``verify`` passes (``test_model_corpus.FAILING``
names the others), loaded and seeded as ``verify FILE`` does.  A model's
checks are a function of the model, the sample count and its seed alone,
so its counts do not depend on the models verified before it.  The random
models draw ``sigma2`` from {0.1, 1, 10}, so only the corpus reaches the
scales where the last four mutations, mended defects undone, act.  Models are
built after the patch, so a fault in the model build or the threshold table
reaches them.  A model whose checks raise, a ``RuntimeWarning`` included,
fails with ``raised <type>``.  The script prints one line per mutation: the
check expected to catch it (``blind spot`` where no check is expected to),
and for the random models and then the corpus the number of models with any
failing check and the count per failing check.  The first line runs without
a mutation, so a fault's counts stand against a clean run.
``tests/test_verify_power.py`` runs it at ``N = 40`` and asserts that each
expected catch happens.
"""

import __future__
import inspect
import sys
import textwrap
import warnings
from typing import Callable, ContextManager, NamedTuple
from unittest import mock

import numpy as np
from test_model_corpus import FAILING, MODELS

from cedrf import cli, drf, linalg, oracle, spectral, waterfill

SEED, SAMPLES = 1, 100_000
CORPUS = [p for p in sorted(MODELS.glob("*.json")) if p.name not in FAILING]


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


def _gap_as_curve_difference():
    """The gap as ``max(d_ce - d_idrf, 0)`` of the two curves, each with the floor added: the
    cancelling form that the gap of the sums replaced."""
    curves = drf._curves

    def mutated(*args):
        out = list(curves(*args))
        out[2] = np.maximum(out[1] - out[0], 0.0)
        return tuple(out)
    return lambda: mock.patch.object(drf, "_curves", mutated)


def _edited(module, name: str, old: str, new: str):
    """``module.name`` compiled from its own source with ``old`` replaced by ``new``: a mended
    rule undone.  It runs in a copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(module), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return lambda: mock.patch.object(module, name, namespace[name])


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
    Mutation("gap as d_ce - d_idrf", _gap_as_curve_difference(), None),
    Mutation("(2, 1) gap as S_c - S_i",
             _edited(drf, "_curves", "if square.any():", "if False:"), None),
    Mutation("levels without frexp band",
             _edited(waterfill, "_levels", "if np.minimum.reduce(x, initial=0.0, where=x > -4000.0)"
                     " < -1022.0:", "if False:"), "continuity"),
    Mutation("decoder weight 0 at inf s^2",
             _edited(oracle, "_ce_grid", "np.where(np.isinf(s * s), 1.0 / np.maximum(s, 1.0), "
                     "s / (1.0 + s * s))", "s / (1.0 + s * s)"), None),
)


def _failed(run: Callable[[], list]) -> list[str]:
    """The names of the checks ``run`` fails, or ``raised <type>`` where it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return [c.name for c in run() if not c.passed]
        except Exception as exc:
            return [f"raised {type(exc).__name__}"]


def _count(runs) -> dict[str, int]:
    """Models with any failing check (``"any"``) and the count per failing check."""
    counts = {"any": 0}
    for run in runs:
        failed = _failed(run)
        counts["any"] += bool(failed)
        for name in failed:
            counts[name] = counts.get(name, 0) + 1
    return counts


def failures(n: int) -> dict[str, dict[str, int]]:
    """:func:`_count` over ``n`` random models (``"random"``) and over the corpus (``"corpus"``)."""
    rng = np.random.default_rng(SEED)
    models = [cli._random_verify_model(rng) for _ in range(n)]
    random = _count(lambda i=i, m=m: cli._verify_model(m, SAMPLES, SEED + i)
                    for i, m in enumerate(models))
    seed = cli.build_parser().parse_args(["verify", "FILE"]).seed  # as `verify FILE` seeds it
    corpus = _count(lambda p=p: cli._verify_model(cli.load_model(p), SAMPLES, seed) for p in CORPUS)
    return {"random": random, "corpus": corpus}


def table(n: int) -> dict[str, dict[str, dict[str, int]]]:
    """:func:`failures` with no mutation (``"none"``) and under each of ``MUTATIONS``."""
    rows = {"none": failures(n)}
    for m in MUTATIONS:
        with m.patch():
            rows[m.name] = failures(n)
    return rows


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    catches = {m.name: m.catch or "blind spot" for m in MUTATIONS}
    for name, row in table(n).items():
        counts = [f"{c['any']:>3}/{total}  "
                  + (", ".join(f"{k} {v}" for k, v in c.items() if k != "any") or "-")
                  for c, total in ((row["random"], n), (row["corpus"], len(CORPUS)))]
        print(f"{name:<28} expect {catches.get(name, '-'):<18} failing random {counts[0]}; "
              f"corpus {counts[1]}", flush=True)


if __name__ == "__main__":
    main()
