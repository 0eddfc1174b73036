"""cedrf benchmark: one seeded workload through `cedrf.cli.main`, measured end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

* ``curves``: ``cedrf sweep MODEL --min 0 --max 12 --steps 2001``.
* ``large-models``: ``cedrf analyze MODEL --rate R --json OUT``, n = 16..128,
  with one scale twin in eleven ops.
* ``verify-random``: ``cedrf verify --random 1 --seed S``.

``--trace 0`` prints the end-to-end metrics, measured untraced: set-up is
sampled in several fresh worker processes, then one worker runs a fixed
number of whole rounds of ops, one at a time (a single closed-loop client),
sized to at least ``--seconds`` of timed ops on the machine the benchmark
was written on (``workloads.rounds_for``).  Timings are reported at a
reference host speed, with the raw figures beside them (see
``worker.CALIBRATION_REF_S``).  ``--trace 1`` runs a fixed number of rounds
untraced, then twice traced, and prints the per-layer metrics.  Every op is
checked for correctness outside the timed region in both modes.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

The seed only picks the inputs.  A gain claimed later must also hold on a
seed other than the default one.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import BLAS_THREAD_VARS, CALIBRATION_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1

SETUP_SAMPLES = 9  # fresh worker starts per run; set-up time is their median
BUDGET_S = 170.0  # whole run, all workers, well inside the 180 s limit
TRACE_ROUNDS = {"curves": 2, "large-models": 1, "verify-random": 1}
TAIL_BEYOND = 10  # the tail is the latency with exactly this many samples above it
ACCOUNTED_MIN = 0.99  # share of traced op wall time that layer self times must explain
UNACCOUNTED_MAX_MS = 1.0  # and the most any one op may leave unexplained

# Two kinds of failed op are known and expected; they count in `failed` and
# fail_ratio at their true rate.  Any other failed op makes the run incorrect.
# * scale twins: the ROADMAP's NaN, inf and ZeroDivision defects under
#   (A, sigma2) -> (cA, c^2 sigma2);
# * `verify` Monte Carlo false alarms: an estimate outside verify's 4 stderr
#   tolerance but within 1.25 times it, which a correct program hits on a
#   small share of seeds (checks.monte_carlo_false_alarm).


def fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class WorkerFailed(RuntimeError):
    """A worker crashed or ran past the time budget."""


def spawn(cfg: dict, work: Path, deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, return its result and the instant it was spawned."""
    cfg_path = work / f"{cfg['mode']}-{cfg['index']}.cfg.json"
    cfg["result"] = str(work / f"{cfg['mode']}-{cfg['index']}.result.json")
    cfg_path.write_text(json.dumps(cfg))
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
        env=worker_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{cfg['mode']} worker ran past the time budget")
    if proc.returncode != 0:
        raise WorkerFailed(
            f"{cfg['mode']} worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(Path(cfg["result"]).read_text()), started


def latency_stats(latencies_s: list[float]) -> dict:
    ms = sorted(x * 1e3 for x in latencies_s)
    n = len(ms)
    if n > TAIL_BEYOND:
        tail, pct = ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ms[-1], 100.0
    return {"p50": statistics.median(ms), "tail": tail, "tail_pct": pct, "n": n}


def run(args) -> int:
    if not (SRC / "cedrf" / "cli.py").is_file():
        return fail(f"no program to measure: {SRC / 'cedrf' / 'cli.py'} is missing", 2)
    t_begin = time.monotonic()
    deadline = t_begin + BUDGET_S
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)
    compileall.compile_dir(str(SRC), quiet=1)  # every worker then loads cached bytecode

    warm_op, warm_files = workloads.warmup(args.workload)
    for name, data in warm_files.items():
        (work / "warmup" / name).write_bytes(data)
    base_cfg = {
        "src": str(SRC), "workload": args.workload, "seed": args.seed,
        "seconds": float(args.seconds), "work_dir": str(work),
        "rounds": workloads.rounds_for(args.workload, args.seconds),
        "warmup_argv": workloads.op_argv(warm_op, str(work / "warmup"), str(work / "warmup.out")),
        "trace_rounds": TRACE_ROUNDS[args.workload],
        "spans_path": str(ROOT / ".bench_work" / "spans" / f"{args.workload}-s{args.seed}.npz"),
    }
    setups = []
    try:
        if args.trace:
            main, _ = spawn({**base_cfg, "mode": "trace", "index": 0}, work, deadline)
        else:
            for i in range(SETUP_SAMPLES - 1):
                probe, started = spawn({**base_cfg, "mode": "probe", "index": i}, work, deadline)
                setups.append(probe["ready"] - started)
            main, started = spawn({**base_cfg, "mode": "measure", "index": 0}, work, deadline)
            setups.append(main["ready"] - started)
        regenerated = workloads.inputs_digest(args.workload, args.seed, main["rounds"])
    except WorkerFailed as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, main, setups, regenerated, time.monotonic() - t_begin)


def report(args, main: dict, setups: list[float], regenerated: str, wall_s: float) -> int:
    results = main["results"]
    attempted = len(results)
    failures = [r for r in results if r["error"] is not None]
    unexpected = [r for r in failures if not r["expected"]]
    twins = [r for r in results if r["variant"] == "scale-twin"]
    digest_ok = regenerated == main["digest"]
    checks = {
        "no op failed outside the two expected kinds": not unexpected,
        "inputs regenerate byte for byte from the seed": digest_ok,
        "mc_ce repeats bit for bit": main["mc_bit_identical"],
    }
    env = main["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {main['rounds']}  ops {attempted}  run wall {wall_s:.1f} s")
    print(f"inputs sha256 {main['digest']}")
    print(f"env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']} threads {env['blas_threads']}, "
          f"cpu {env['cpu']!r}")
    print("load: one closed-loop client, one op at a time, fresh worker process")
    print("wait time: none to report (single-threaded program, no queues)")

    if args.trace:
        m = main["layers"]
        checks["exact counts repeat across traced passes"] = not main["count_mismatches"]
        checks[f"layer self times explain >= {ACCOUNTED_MIN:.0%} of op wall, "
               f"and all but {UNACCOUNTED_MAX_MS} ms of every op"] = (
            ACCOUNTED_MIN <= m["trace.accounted_share"] <= 1.0 + 1e-9
            and m["trace.worst_unaccounted_ms"] <= UNACCOUNTED_MAX_MS)
        for name in sorted(m):
            print(f"  {name:36s} {m[name]:.6g}")
        for k, v in main["counts_pass1"].items():
            print(f"  exact count {k}: pass 1 {v}, pass 2 {m[k]}")
        print(f"spans of the second traced pass: {main['spans_path']}")
        metrics = {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        # Timings are reported at the reference host speed (worker.py,
        # CALIBRATION_REF_S): raw seconds divided by the run's host factor.
        f = main["host_factor"]
        lat = latency_stats([r["latency_s"] for r in results])
        setup = statistics.median(setups)
        values = {
            "ops_per_s": (attempted / main["timed_s"] * f, "1/s"),
            "op_p50_ms": (lat["p50"] / f, "ms"),
            "op_tail_ms": (lat["tail"] / f, "ms"),
            "setup_s": (setup / f, "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        print(f"  host factor  {f:.4f}  (mean calibration kernel {main['calibration_s'] * 1e3:.4f} ms "
              f"over {attempted} samples, reference {CALIBRATION_REF_S * 1e3:g} ms); "
              f"timings below are raw / factor, raw in brackets")
        print(f"  ops_per_s    {values['ops_per_s'][0]:.4f} 1/s  [{attempted / main['timed_s']:.4f}]"
              f"  ({attempted} ops in {main['timed_s']:.2f} s of timed ops)")
        print(f"  op_p50_ms    {values['op_p50_ms'][0]:.3f} ms  [{lat['p50']:.3f}]  (n={lat['n']})")
        print(f"  op_tail_ms   {values['op_tail_ms'][0]:.3f} ms  [{lat['tail']:.3f}]  "
              f"(p{lat['tail_pct']:.1f}, n={lat['n']}, {min(TAIL_BEYOND, lat['n'] - 1)} samples beyond)")
        print(f"  setup_s      {values['setup_s'][0]:.4f} s  [{setup:.4f}]  (median of {len(setups)} "
              f"worker starts: {', '.join(f'{s:.3f}' for s in setups)})")
        print(f"  peak_rss_mb  {main['peak_rss_mb']:.1f} MB")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(f"  fail_ratio   {len(failures) / attempted:.4f}  ({len(failures)}/{attempted}; "
          f"scale twins {sum(r['error'] is not None for r in twins)}/{len(twins)}, "
          f"expected {sum(r['expected'] for r in failures)}, unexpected {len(unexpected)})")
    for r in failures[:5]:
        print(f"  failed op n={r['n']} {r['variant']}: {r['error'][:160]}")
    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


# (name, unit, better) of every per-layer metric printed with --trace 1.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.errors", "count", "lower"),
    ("spectral.builds", "count", "lower"),
    ("spectral.build_self_s", "s", "lower"),
    ("spectral.build_ms.n4", "ms", "lower"),
    ("spectral.build_ms.n16", "ms", "lower"),
    ("spectral.build_ms.n32", "ms", "lower"),
    ("spectral.build_ms.n64", "ms", "lower"),
    ("spectral.build_ms.n128", "ms", "lower"),
    ("spectral.errors", "count", "lower"),
    ("linalg.sym_eig.calls", "count", "lower"),
    ("linalg.sym_eig.self_s", "s", "lower"),
    ("linalg.sym_eig.calls_per_model", "ratio", "lower"),
    ("linalg.pinv.calls", "count", "lower"),
    ("linalg.pinv.self_s", "s", "lower"),
    ("linalg.errors", "count", "lower"),
    ("waterfill.rate_thresholds.calls", "count", "lower"),
    ("waterfill.thresholds_per_point", "ratio", "lower"),
    ("waterfill.self_s", "s", "lower"),
    ("waterfill.errors", "count", "lower"),
    ("drf.points", "count", "higher"),
    ("drf.us_per_point", "us", "lower"),
    ("drf.self_s", "s", "lower"),
    ("drf.errors", "count", "lower"),
    ("oracle.mc.calls", "count", "lower"),
    ("oracle.mc.samples", "count", "higher"),
    ("oracle.mc.self_s", "s", "lower"),
    ("oracle.mc.ns_per_sample", "ns", "lower"),
    ("oracle.ce_matrix_form.calls", "count", "lower"),
    ("oracle.ce_matrix_form.self_s", "s", "lower"),
    ("oracle.errors", "count", "lower"),
    ("bench.remainder_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "higher"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.worst_unaccounted_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
