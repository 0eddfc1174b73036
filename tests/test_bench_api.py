"""The benchmark's tracer wraps cedrf functions by name; keep those names alive."""

import importlib
import runpy
from pathlib import Path

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
