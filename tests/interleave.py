"""In-process A/B timing of ``verify --random 1``, sweeps and large analyses on two source trees.

Usage::

    OPENBLAS_NUM_THREADS=1 python tests/interleave.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``cedrf`` package.  Both
packages are copied into one temporary directory under two names (the
package imports itself only relatively) and imported into one process, so
both sides share the interpreter, the BLAS library and the host's state.
Four commands are timed through each side's ``cli.main``, stdout
discarded: ``verify --random 1 --seed s`` for s = 1..2000; ``sweep MODEL
--min 0 --max 12 --steps 2001`` to a CSV file for 200 seeded models (``L``
and ``M`` from 2 to 16, Gaussian ``A``, ``sigma2`` from 0.01 to 10); the
same sweeps with ``--format json``, as the curves benchmark writes two
ops in eight; and ``analyze MODEL --rate R --json OUT`` for 200 seeded models
of the large-models benchmark's sizes and shapes, where building the model
weighs most: ``n`` cycles through 16, 32, 64 and 128, and the shape through
square ``n x n``, tall ``n x n/2`` and rank-deficient ``n x n`` of rank
``n/4``.  Which side goes first switches every seed.  For each command, a
100-seed warm-up, untimed, captures each side's stdout, exit code and
written file.  It stops, naming the seeds, where the two sides differ in
layout: the exit code, the number of stdout lines, the rows of a CSV file
and the fields of each, or a JSON file's keys and list lengths.  Where only
values differ, it prints how many warm-up seeds differ and goes on, so a
change that moves output bits can still be timed; ``tests/fingerprint.py``
is the check that bits are kept.  Values are compared as stdout and a CSV
file's bytes, and a JSON file as the value it reads back as, each float by
its ``hex()`` and a non-finite one as ``None``, so that a change of JSON
spelling alone reads as no difference.  Then three passes are timed.  The
script prints one line per command: the median and quartiles of the per-op
time ratio, change over parent, and the ratio of the total times.
"""

import contextlib
import importlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

VERIFY_SEEDS = range(1, 2001)
SWEEP_SEEDS = ANALYZE_SEEDS = range(1, 201)
ANALYZE_SIZES = (16, 32, 64, 128)
ANALYZE_SHAPES = ("square", "tall", "rank-deficient")
WARM_UP, PASSES = 100, 3


def load(src: str, name: str, tmp: str):
    """``src``'s ``cedrf.cli``, imported as ``name.cli`` from a copy in ``tmp``."""
    shutil.copytree(Path(src) / "cedrf", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def verify_argv(seed: int, tmp: str) -> list[str]:
    return ["verify", "--random", "1", "--seed", str(seed)]


def sweep_argv(seed: int, tmp: str) -> list[str]:
    """A 2,001-rate CSV sweep of seeded model ``seed``, whose file is written on first use."""
    model = Path(tmp) / f"sweep-model-{seed}.json"
    if not model.exists():
        rng = np.random.default_rng([29, seed])
        l, m = (int(n) for n in rng.integers(2, 17, size=2))
        a = rng.standard_normal((l, m)) / np.sqrt(m)
        model.write_text(json.dumps({"A": a.tolist(), "sigma2": 10.0 ** rng.uniform(-2.0, 1.0)}))
    return ["sweep", str(model), "--min", "0", "--max", "12", "--steps", "2001",
            "--out", str(Path(tmp) / "out")]


def analyze_argv(seed: int, tmp: str) -> list[str]:
    """A JSON report on seeded model ``seed`` at one rate; the model is written on first use."""
    n = ANALYZE_SIZES[seed % len(ANALYZE_SIZES)]
    shape = ANALYZE_SHAPES[seed % len(ANALYZE_SHAPES)]
    m = n // 2 if shape == "tall" else n
    rng = np.random.default_rng([30, seed])
    rate = float(rng.uniform(0.1, 2.0 * m))  # drawn first, so every call gives the same rate
    model = Path(tmp) / f"analyze-model-{seed}.json"
    if not model.exists():
        if shape == "rank-deficient":
            k = n // 4
            a = rng.standard_normal((n, k)) @ rng.standard_normal((k, m)) / np.sqrt(k * m)
        else:
            a = rng.standard_normal((n, m)) / np.sqrt(m)
        model.write_text(json.dumps({"A": a.tolist(), "sigma2": 10.0 ** rng.uniform(-2.0, 1.0)}))
    return ["analyze", str(model), "--rate", repr(rate), "--json", str(Path(tmp) / "out")]


def sweep_json_argv(seed: int, tmp: str) -> list[str]:
    """The sweep of ``sweep_argv`` written as JSON."""
    return sweep_argv(seed, tmp) + ["--format", "json"]


COMMANDS = (("verify --random 1", verify_argv, VERIFY_SEEDS),
            ("sweep --steps 2001", sweep_argv, SWEEP_SEEDS),
            ("sweep --format json", sweep_json_argv, SWEEP_SEEDS),
            ("analyze --json", analyze_argv, ANALYZE_SEEDS))


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


def compare(parent, change, command, tmp: str, devnull) -> np.ndarray:
    """Check the warm-up seeds' outputs, then ``(parent, change)`` seconds per timed op."""
    name, argv, seeds = command
    pairs = {seed: (output(parent, argv(seed, tmp), tmp), output(change, argv(seed, tmp), tmp))
             for seed in seeds[:WARM_UP]}
    broken = [seed for seed, (a, b) in pairs.items() if layout(a) != layout(b)]
    if broken:
        raise SystemExit(f"{name}: exit code, stdout line count or written file layout "
                         f"differs between the sides on seeds {broken}")
    differ = sum(a != b for a, b in pairs.values())
    print(f"{name}: values differ on {differ} of {len(pairs)} warm-up seeds", flush=True)
    times = []
    with contextlib.redirect_stdout(devnull):
        for _ in range(PASSES):
            for seed in seeds:
                args = argv(seed, tmp)
                t = {side: timed(side, args)
                     for side in ((parent, change) if seed % 2 else (change, parent))}
                times.append((t[parent], t[change]))
    return np.array(times)


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        sys.path.insert(0, tmp)
        parent = load(sys.argv[1], "cedrf_parent", tmp).main
        change = load(sys.argv[2], "cedrf_change", tmp).main
        for command in COMMANDS:
            t = compare(parent, change, command, tmp, devnull)
            q1, median, q3 = np.percentile(t[:, 1] / t[:, 0], [25, 50, 75])
            print(f"{command[0]}: {len(t)} op pairs; per-op time ratio, change / parent: "
                  f"median {median:.4f}, quartiles {q1:.4f}-{q3:.4f}; total time ratio "
                  f"{t[:, 1].sum() / t[:, 0].sum():.4f} ({t[:, 1].sum():.2f} s / "
                  f"{t[:, 0].sum():.2f} s)", flush=True)


if __name__ == "__main__":
    main()
