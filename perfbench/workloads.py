"""Seeded inputs for the three benchmark workloads.

Every workload is a sequence of *rounds*.  A round has a fixed composition
(sizes, shapes, output options) and seeded contents, so the latency
distribution of whole rounds is the same for every seed while the models
themselves differ.  A run measures a fixed number of whole rounds
(``rounds_for``); that keeps medians, tails, rates and the failed ops from
moving with the point at which a clock ran out.

``make_round(workload, seed, j)`` is a pure function of its arguments: it
returns the op descriptors of round ``j`` and the bytes of every model file
they read.  The program only ever sees those files and the command lines.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("curves", "large-models", "verify-random")

SWEEP_ARGS = ["--min", "0", "--max", "12", "--steps", "2001"]

# curves: one op per slot, (L, M, variant).  max(L, M) runs from 2 to 16 and
# each round holds every variant once: tall and wide (L != M), rank-deficient
# A, a tied spectrum, and a source covariance that forces whitening.
CURVE_SLOTS = (
    (2, 2, "square"),
    (2, 3, "wide"),
    (4, 4, "tied"),
    (6, 3, "tall"),
    (8, 8, "rank-deficient"),
    (10, 10, "sigma_x"),
    (6, 12, "wide"),
    (16, 16, "square"),
)
# Per round, this many slots write JSON and as many others take --nats.
# They rotate through a seeded order of the slots, so over every
# CURVE_PERIOD rounds each slot writes JSON once and takes --nats once, and
# a run holds the same mix of options for every seed.
CURVE_OPTION_OPS = 2
CURVE_PERIOD = len(CURVE_SLOTS) // CURVE_OPTION_OPS

# large-models: (n, shape) per slot, then one scale twin.  Every shape keeps
# L = n, so an op's cost is set by n and shape: square n x n, tall n x n/2
# and rank-deficient n x n of rank n/4.  Per round, four ops run faster than
# the three square n = 32 ops and four slower, so the median op latency is
# the median of one kind of op, whatever the seed; the n = 128 op dominates
# the rate.
LARGE_SLOTS = (
    (16, "square"), (16, "tall"), (16, "rank-deficient"),
    (32, "square"), (32, "square"), (32, "square"),
    (64, "square"), (64, "tall"), (64, "rank-deficient"),
    (128, None),
)
LARGE_CYCLE = ("square", "tall", "rank-deficient")
# The twin's base cycles over the n = 16 slots, so a twin is always among
# the fast ops; its log10 scale is drawn from one of these strata of
# [-150, 150], cycled by round, so the share of failing twins does not hinge
# on a few draws.  The twin and its base are drawn from a stream keyed by
# the round alone, not the seed: which twins fail is then the same for
# every seed, and failed ops agree between runs of the same code on any
# seeds.  The seed still draws the other slots of every round.
TWIN_BASES = (0, 1, 2)
TWIN_STRATA = 5
TWIN_LOG10_RANGE = 150.0

# verify-random: one op per (M, L) pair, both 1..5, as `verify --random`
# draws them.  A round covers all 25 pairs once.
VERIFY_DIMS = tuple((m, l) for m in range(1, 6) for l in range(1, 6))


# A run does a fixed amount of work: a whole number of rounds sized from
# --seconds, so the ops, and which of them fail, are a pure function of
# (workload, seed, seconds).  NOMINAL_ROUND_S is the time of one round's
# timed ops on the machine the benchmark was written on (2 shared vCPUs of
# an Intel Xeon, Python 3.11, numpy 2.4); ROUND_CYCLE is the period of a
# workload's round composition (output options in curves, the n = 128 shape
# in large-models), and a run always covers whole periods.
NOMINAL_ROUND_S = {"curves": 1.2, "large-models": 3.3, "verify-random": 6.5}
ROUND_CYCLE = {"curves": CURVE_PERIOD, "large-models": len(LARGE_CYCLE), "verify-random": 1}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of at least ``seconds`` of timed ops on the nominal machine."""
    period = ROUND_CYCLE[workload]
    return period * max(1, math.ceil(seconds / (period * NOMINAL_ROUND_S[workload])))


def _rng(workload: str, seed: int, j: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, j])


def _model_bytes(a: np.ndarray, sigma2: float, sigma_x: np.ndarray | None = None) -> bytes:
    doc = {"A": a.tolist(), "sigma2": sigma2}
    if sigma_x is not None:
        doc["sigma_x"] = sigma_x.tolist()
    return json.dumps(doc).encode()


def _matrix(rng: np.random.Generator, l: int, m: int, variant: str) -> np.ndarray:
    gain = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
    if variant == "rank-deficient":
        k = max(1, min(l, m) // 4)
        a = rng.standard_normal((l, k)) @ rng.standard_normal((k, m)) / np.sqrt(k)
    elif variant == "tied":
        r = min(l, m)
        q1, _ = np.linalg.qr(rng.standard_normal((l, l)))
        q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        levels = rng.uniform(0.5, 3.0, size=2)
        s = np.where(np.arange(r) < r // 2, levels.max(), levels.min())
        a = (q1[:, :r] * s) @ q2[:, :r].T
        return a * gain
    else:
        a = rng.standard_normal((l, m))
    return a * gain / np.sqrt(m)


def _curves_round(rng: np.random.Generator, j: int, seed: int):
    ops, files = [], {}
    order = np.random.default_rng([WORKLOADS.index("curves"), seed]).permutation(len(CURVE_SLOTS))
    k = CURVE_OPTION_OPS
    json_slots = {int(order[(j * k + i) % len(order)]) for i in range(k)}
    nats_slots = {int(order[(j * k + i + len(order) // 2) % len(order)]) for i in range(k)}
    for i, (l, m, variant) in enumerate(CURVE_SLOTS):
        a = _matrix(rng, l, m, variant)
        sigma2 = float(rng.choice([0.1, 1.0, 10.0]))
        sigma_x = None
        if variant == "sigma_x":
            b = rng.standard_normal((m, m))
            sigma_x = b @ b.T / m + 0.5 * np.eye(m)
        name = f"r{j}_{i}.json"
        files[name] = _model_bytes(a, sigma2, sigma_x)
        ops.append({
            "kind": "sweep", "model": name, "n": max(l, m), "variant": variant,
            "format": "json" if i in json_slots else "csv",
            "nats": i in nats_slots,
            "check_rows": sorted(rng.choice(2001, 2, replace=False).tolist()),
        })
    return ops, files


def _large_round(rng: np.random.Generator, j: int, seed: int):
    ops, files, mats = [], {}, []
    base = TWIN_BASES[j % len(TWIN_BASES)]
    # Four words, so the key never equals a (workload, seed, round) key.
    twin_rng = np.random.default_rng([WORKLOADS.index("large-models"), 0, j, 1])
    for i, (n, shape) in enumerate(LARGE_SLOTS):
        shape = shape or LARGE_CYCLE[j % len(LARGE_CYCLE)]
        g = twin_rng if i == base else rng
        a = _matrix(g, n, n // 2 if shape == "tall" else n, shape)
        sigma2 = float(g.choice([0.1, 1.0, 10.0]))
        rate = float(g.uniform(0.1, 2.0 * min(a.shape)))
        name = f"r{j}_{i}.json"
        files[name] = _model_bytes(a, sigma2)
        mats.append((a, sigma2, rate))
        ops.append({"kind": "analyze", "model": name, "n": n, "variant": shape,
                    "rate": rate, "twin_of": None, "scale_log10": 0.0})
    a, sigma2, rate = mats[base]
    width = 2.0 * TWIN_LOG10_RANGE / TWIN_STRATA
    e = -TWIN_LOG10_RANGE + width * ((j % TWIN_STRATA) + float(twin_rng.uniform()))
    c = 10.0 ** e
    name = f"r{j}_twin.json"
    files[name] = _model_bytes(a * c, sigma2 * c * c)
    ops.append({"kind": "analyze", "model": name, "n": ops[base]["n"],
                "variant": "scale-twin", "rate": rate, "twin_of": base,
                "base_model": ops[base]["model"], "scale_log10": e})
    return ops, files


def _cli_verify_dims(s: int) -> tuple[int, int]:
    # Mirrors the first two draws of the random-model generator behind
    # `cedrf verify --random 1 --seed s` (M, then L, each in 1..5).  If the
    # program changes that generator the ops stay valid; rounds only become
    # less balanced.
    g = np.random.default_rng(s)
    return int(g.integers(1, 6)), int(g.integers(1, 6))


def _verify_round(rng: np.random.Generator, j: int, seed: int):
    ops = []
    for m, l in VERIFY_DIMS:
        while True:
            s = int(rng.integers(0, 2**31 - 1))
            if _cli_verify_dims(s) == (m, l):
                break
        ops.append({"kind": "verify", "seed": s, "n": max(m, l), "variant": f"{m}x{l}"})
    return ops, {}


_ROUNDS = {"curves": _curves_round, "large-models": _large_round, "verify-random": _verify_round}


def make_round(workload: str, seed: int, j: int) -> tuple[list[dict], dict[str, bytes]]:
    """Op descriptors and model-file bytes of round ``j``: a pure function of its arguments."""
    return _ROUNDS[workload](_rng(workload, seed, j), j, seed)


def digest_update(h: "hashlib._Hash", ops: list[dict], files: dict[str, bytes]) -> None:
    """Fold one round's inputs into a running digest."""
    h.update(json.dumps(ops, sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name])


def inputs_digest(workload: str, seed: int, rounds: int) -> str:
    """Digest of the first ``rounds`` rounds, regenerated from scratch."""
    h = hashlib.sha256()
    for j in range(rounds):
        digest_update(h, *make_round(workload, seed, j))
    return h.hexdigest()


def op_argv(op: dict, model_dir: str, out_path: str) -> list[str]:
    """The `cedrf` command line of one op."""
    if op["kind"] == "sweep":
        argv = ["sweep", f"{model_dir}/{op['model']}", *SWEEP_ARGS, "--out", out_path]
        if op["format"] == "json":
            argv += ["--format", "json"]
        if op["nats"]:
            argv.append("--nats")
        return argv
    if op["kind"] == "analyze":
        return ["analyze", f"{model_dir}/{op['model']}", "--rate", repr(op["rate"]),
                "--json", out_path]
    return ["verify", "--random", "1", "--seed", str(op["seed"])]


# Fixed, seed-independent warm-up inputs: one small op of each workload's
# kind, run untimed before the first timed op so lazy imports and first-call
# costs land in set-up time.
def warmup(workload: str) -> tuple[dict, dict[str, bytes]]:
    """The warm-up op of a workload and the files it reads."""
    g = np.random.default_rng(0)
    if workload == "verify-random":
        return {"kind": "verify", "seed": 1, "n": 0, "variant": "warm-up"}, {}
    if workload == "curves":
        files = {"warmup.json": _model_bytes(_matrix(g, 4, 4, "square"), 1.0)}
        return {"kind": "sweep", "model": "warmup.json", "format": "csv", "nats": False,
                "n": 4, "variant": "warm-up", "check_rows": []}, files
    files = {"warmup.json": _model_bytes(_matrix(g, 16, 16, "square"), 1.0)}
    return {"kind": "analyze", "model": "warmup.json", "rate": 2.0, "n": 16,
            "variant": "warm-up", "twin_of": None, "scale_log10": 0.0}, files
