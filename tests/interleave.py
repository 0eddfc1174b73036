"""In-process A/B timing of the benchmark's own ops on two source trees.

Usage::

    OPENBLAS_NUM_THREADS=1 python tests/interleave.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``cedrf`` package.  Both
packages are copied into one temporary directory under two names (the
package imports itself only relatively) and imported into one process, so
both sides share the interpreter, the BLAS library and the host's state.
The ops are those of the benchmark's workloads, ``curves``, ``large-models``
and ``verify-random``: rounds ``0 .. ROUNDS[w] - 1`` of ``make_round(w, 1,
j)`` run through ``op_argv``, both from ``perfbench/workloads.py``, and
through each side's ``cli.main``, stdout discarded.  Which side goes first
switches every op.  For each workload, a 100-op warm-up, untimed, captures
each side's stdout, exit code and written file.  It stops, naming the ops,
where the two sides differ in layout: the exit code, the number of stdout
lines, the rows of a CSV file and the fields of each, or a JSON file's keys
and list lengths.  Where only values differ, it counts the warm-up ops that
differ and goes on, so a change that moves output bits can still be timed;
``tests/fingerprint.py`` is the check that bits are kept.  Values are
compared as stdout and a CSV file's bytes, and a JSON file as the value it
reads back as, each float by its ``hex()`` and a non-finite one as
``None``, so that a change of JSON spelling alone reads as no difference.
Then three passes are timed.  The script prints one line per workload: that
count, the median and quartiles of the per-op time ratio, change over
parent, and the ratio of the total times.  One process times both sides, so
it cannot see how a change moves the heap of the benchmark's worker: a
change to the allocation pattern of the CSV or JSON writers also needs
alternating ``perfbench/run.py`` pairs.
"""

import contextlib
import importlib
import io
import json
import math
import os
import runpy
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# run_path compiles the file in memory: nothing is written beside it
_workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
make_round, op_argv = _workloads["make_round"], _workloads["op_argv"]
ROUNDS = {"curves": 50, "large-models": 20, "verify-random": 80}  # 400, 220 and 2,000 ops
WARM_UP, PASSES = 100, 3


def load(src: str, name: str, tmp: str):
    """``src``'s ``cedrf.cli``, imported as ``name.cli`` from a copy in ``tmp``."""
    shutil.copytree(Path(src) / "cedrf", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def workload_argv(workload: str, tmp: str) -> list[list[str]]:
    """The command lines of the workload's rounds at seed 1; their model files are written
    into ``tmp/workload``."""
    model_dir = Path(tmp) / workload
    model_dir.mkdir()
    argvs = []
    for j in range(ROUNDS[workload]):
        ops, files = make_round(workload, 1, j)
        for name, data in files.items():
            (model_dir / name).write_bytes(data)
        argvs += [op_argv(op, str(model_dir), str(Path(tmp) / "out")) for op in ops]
    return argvs


def read_back(doc):
    """``doc`` with each finite float as its ``hex()`` and each other float as ``None``."""
    if isinstance(doc, dict):
        return {k: read_back(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return list(map(read_back, doc))
    if isinstance(doc, float):
        return doc.hex() if math.isfinite(doc) else None
    return doc


def output(main, argv: list[str], tmp: str) -> tuple:
    """The stdout, exit code and written file (empty if none) of ``main(argv)``; a JSON
    file as the value it reads back as (``read_back``)."""
    written = Path(tmp) / "out"
    written.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    data = written.read_bytes() if written.exists() else b""
    if data and ("--json" in argv or "json" in argv):  # analyze --json, sweep --format json
        return out.getvalue(), code, read_back(json.loads(data))
    return out.getvalue(), code, data


def layout(out: tuple):
    """The exit code, stdout line count and file layout of an ``output``: a JSON file's keys and
    list lengths, or a CSV file's field count per row."""
    stdout, code, data = out
    def keys(doc):
        if isinstance(doc, dict):
            return {k: keys(v) for k, v in doc.items()}
        return list(map(keys, doc)) if isinstance(doc, list) else None
    if isinstance(data, bytes):
        return code, stdout.count("\n"), [row.count(b",") for row in data.splitlines()]
    return code, stdout.count("\n"), keys(data)


def timed(main, argv: list[str]) -> float:
    start = time.perf_counter()
    main(argv)
    return time.perf_counter() - start


def compare(parent, change, workload: str, tmp: str, devnull) -> tuple[int, np.ndarray]:
    """Check the warm-up ops' outputs, then the count of warm-up ops whose values differ and
    ``(parent, change)`` seconds per timed op."""
    argvs = workload_argv(workload, tmp)
    pairs = [(output(parent, argv, tmp), output(change, argv, tmp)) for argv in argvs[:WARM_UP]]
    broken = [i for i, (a, b) in enumerate(pairs) if layout(a) != layout(b)]
    if broken:
        raise SystemExit(f"{workload}: exit code, stdout line count or written file layout "
                         f"differs between the sides on ops {broken}")
    times = []
    with contextlib.redirect_stdout(devnull):
        for _ in range(PASSES):
            for i, argv in enumerate(argvs):
                t = {side: timed(side, argv)
                     for side in ((parent, change) if i % 2 else (change, parent))}
                times.append((t[parent], t[change]))
    return sum(a != b for a, b in pairs), np.array(times)


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        sys.path.insert(0, tmp)
        parent = load(sys.argv[1], "cedrf_parent", tmp).main
        change = load(sys.argv[2], "cedrf_change", tmp).main
        for workload in ROUNDS:
            differ, t = compare(parent, change, workload, tmp, devnull)
            q1, median, q3 = np.percentile(t[:, 1] / t[:, 0], [25, 50, 75])
            print(f"{workload}: {len(t)} op pairs, values differ on {differ} of {WARM_UP} "
                  f"warm-up ops; per-op time ratio, change / parent: median {median:.4f}, "
                  f"quartiles {q1:.4f}-{q3:.4f}; total time ratio "
                  f"{t[:, 1].sum() / t[:, 0].sum():.4f} ({t[:, 1].sum():.2f} s / "
                  f"{t[:, 0].sum():.2f} s)", flush=True)


if __name__ == "__main__":
    main()
