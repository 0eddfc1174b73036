"""In-process A/B timing of ``verify --random 1`` on two source trees.

Usage::

    OPENBLAS_NUM_THREADS=1 python tests/interleave.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``cedrf`` package.  Both
packages are copied into one temporary directory under two names (the
package imports itself only relatively) and imported into one process, so
both sides share the interpreter, the BLAS library and the host's state.
``verify --random 1 --seed s`` runs for s = 1..2000 through each side's
``cli.main``, stdout discarded, and which side goes first switches every
seed.  A 100-seed warm-up, untimed, captures each side's stdout and exit
code and stops, naming the seeds, if the two sides differ on any.  Then
three such passes are timed.  The script prints the median and quartiles
of the per-op time ratio, change over parent, and the ratio of the total
times.
"""

import contextlib
import importlib
import io
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEEDS = range(1, 2001)
WARM_UP, PASSES = 100, 3


def load(src: str, name: str, tmp: str):
    """``src``'s ``cedrf.cli``, imported as ``name.cli`` from a copy in ``tmp``."""
    shutil.copytree(Path(src) / "cedrf", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def output(main, seed: int) -> tuple[str, int]:
    """The stdout and exit code of ``verify --random 1 --seed seed``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--random", "1", "--seed", str(seed)])
    return out.getvalue(), code


def timed(main, seed: int) -> float:
    start = time.perf_counter()
    main(["verify", "--random", "1", "--seed", str(seed)])
    return time.perf_counter() - start


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        sys.path.insert(0, tmp)
        parent = load(sys.argv[1], "cedrf_parent", tmp).main
        change = load(sys.argv[2], "cedrf_change", tmp).main
        differ = [seed for seed in SEEDS[:WARM_UP] if output(parent, seed) != output(change, seed)]
        if differ:
            raise SystemExit(f"stdout or exit code differs between the sides on seeds {differ}")
        times = []  # (parent, change) seconds per op
        with contextlib.redirect_stdout(devnull):
            for _ in range(PASSES):
                for seed in SEEDS:
                    t = {side: timed(side, seed)
                         for side in ((parent, change) if seed % 2 else (change, parent))}
                    times.append((t[parent], t[change]))
    t = np.array(times)
    q1, median, q3 = np.percentile(t[:, 1] / t[:, 0], [25, 50, 75])
    print(f"{len(t)} op pairs; per-op time ratio, change / parent: "
          f"median {median:.4f}, quartiles {q1:.4f}-{q3:.4f}")
    print(f"total time ratio: {t[:, 1].sum() / t[:, 0].sum():.4f} "
          f"({t[:, 1].sum():.2f} s / {t[:, 0].sum():.2f} s)")


if __name__ == "__main__":
    main()
