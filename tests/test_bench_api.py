"""The benchmark's tracer wraps cedrf functions by name, and its checks and worker call them.

Keep those names alive.
"""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from cedrf import cli
from cedrf.cli import _random_verify_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # run_path compiles the file in memory: nothing is written beside it
    traced = runpy.run_path(str(SPANS))["TRACED"]
    missing = [
        f"{layer}.{attr}"
        for layer, attrs in traced.items()
        for attr in attrs
        if not hasattr(importlib.import_module(f"cedrf.{layer}"), attr)
    ]
    assert missing == []


def _layer_attributes(path: Path, layers: tuple[str, ...]) -> set[tuple[str, str]]:
    """Every ``<layer>.<attr>`` the file reads through a name ``<layer>``, such as ``cli.main``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in layers:
                found.add((base.id, node.attr))
    return found


def test_bench_checks_and_worker_use_existing_functions():
    # the correctness gate and the worker reach cedrf through `cli` and
    # `oracle` handles; a rename would otherwise surface only when the
    # benchmark runs
    bench = SPANS.parent
    used = set()
    for name in ("checks.py", "worker.py"):
        used |= _layer_attributes(bench / name, ("cli", "oracle"))
    assert ("oracle", "ce_matrix_form") in used and ("cli", "main") in used
    missing = [f"{layer}.{attr}" for layer, attr in sorted(used)
               if not hasattr(importlib.import_module(f"cedrf.{layer}"), attr)]
    assert missing == []


def test_verify_rounds_mirror_the_random_model_generator():
    # the verify-random workload picks each op's seed by the model shape it
    # expects `verify --random 1 --seed s` to draw; a drift would leave the
    # ops valid but the rounds unbalanced, which no run would show
    dims = runpy.run_path(str(SPANS.parent / "workloads.py"))["_cli_verify_dims"]
    for s in range(500):
        model = _random_verify_model(np.random.default_rng(s))
        assert dims(s) == (model.M, model.L), s


def _worker(monkeypatch):
    """The benchmark's ``worker`` module, as its runner loads it, writing nothing beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under perfbench/
    monkeypatch.syspath_prepend(str(SPANS.parent))
    return importlib.import_module("worker")


def _unexpected(results: list[dict]) -> list[dict]:
    return [r for r in results if r["error"] and not r["expected"]]


@pytest.mark.parametrize("workload", ["curves", "large-models", "verify-random"])
def test_round_zero_passes_the_benchmark_gate(workload, monkeypatch, tmp_path):
    # round 0 of each workload through `cli.main` and the benchmark's own
    # checks, as its worker runs them: a program change that breaks an op
    # fails here, not first in a benchmark run
    worker = _worker(monkeypatch)
    runner = worker.Runner(cli, {"workload": workload, "seed": 1, "work_dir": str(tmp_path)})
    results = runner.run_round(runner.make_round(0), 0)
    assert results and _unexpected(results) == []


@pytest.mark.parametrize("workload", ["curves", "large-models", "verify-random"])
def test_a_traced_round_passes_the_benchmark_gate(workload, monkeypatch, tmp_path):
    # round 0 through the worker's tracer, which reads arguments of the traced functions
    # (`A.rows`, `R_grid`, `n_samples`): a change that breaks one of those reads fails
    # here, not first in a `--trace 1` run
    worker = _worker(monkeypatch)
    spans_path = tmp_path / "trace" / "spans.npz"
    runner = worker.Runner(cli, {"workload": workload, "seed": 1, "work_dir": str(tmp_path),
                                 "spans_path": str(spans_path)})
    got = worker.trace(runner, 1)
    assert got["results"] and _unexpected(got["results"]) == []
    assert got["count_mismatches"] == [] and spans_path.is_file()
