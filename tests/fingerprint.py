"""One sha256 per group of user-visible outputs on seeded inputs.

Groups: ``analyze`` (text and ``--json``; ``analyze-json-nats`` runs
``--json --nats`` on the infinite-bound model only), ``sweep`` (CSV and JSON, each in
bits and with ``--nats``), ``verify``, ``example``, ``gap_2d``,
``max_gap_2d``, ``am_gm_pair`` and ``gap-bounds``; the command groups hash exit codes,
stdout, stderr and the files written, the function groups each result's
``repr`` or error message.  ``max_gap_2d`` also runs the subnormal pair
``(1.0, 1e-310, 1e-310)``, whose ``(f_1 - f_2)^2`` overflows.  The ``gap-bounds``
group hashes the ``float.hex`` of ``gap_ub`` and ``gap_lb`` at every
``GAP_RATES`` rate on the seeded models, on the infinite-bound model and on
``SUBNORMAL_SIGMA2``, so the bits of the bounds' overflow and subnormal
paths are pinned apart from the writers.  The analyze and sweep groups also run a model
whose ``gap_ub`` is infinite at every rate, so the spelling of non-finite
values is hashed: ``inf`` in the text report and the CSV files, and ``null`` in
the analyze JSON, in bits and in nats, and in the JSON sweep files.  They also run the two
models of ``FAR_SECOND_COMPONENT``, whose second singular value is 1e-6 or
3e-6 of the first at ``sigma2 = 1e-14``: kept, it sets the floor, about
5e-3.  The ``verify`` group runs ``verify --random 3`` at the default seed,
``--random 50 --seed 1``, ``--random 1 --seed 3867`` (a model that fails its
Monte Carlo checks, exit 1), ``--random 1 --seed s`` for s = 1..200 (the
command the verify-random benchmark times) and ``verify MODEL`` on every
tenth seeded model.  The ``oracle`` group hashes
the ``float.hex`` of ``ce_matrix_form`` and of every ``mc_estimates`` mean and
stderr at 2,000 samples, on the seeded models; ``verify`` prints only three
digits of them.  The ``am_gm_pair`` group runs 500 seeded lists of 1 to 8
values, log-uniform between 1e-300 and 1e300.  Run it on two checkouts and
``diff`` the output to show that a change keeps every output's bits (see
README, "Install and test").  The ``equality-region`` group hashes
``equality_region``'s ``r0``, ``R_limit.hex()`` and ``unconditional`` on the
seeded models, on ``tied_models`` and on ``mirror_models`` at offset 0 and
at each ``NEAR_TIE_OFFSETS`` offset, so the tie rule's outputs on either
side of its boundary are pinned, and on the tied pairs of ``SUBNORMAL_TIES``, whose
weights ``cond/obs`` would overflow.  The ``thresholds`` group hashes the
``float.hex`` of both threshold tables and of ``rate_allocation``'s rates
over both spectra at ``ORACLE_RATES``, on the seeded models, on ``tied_models``
and on ``near_tied``, each at every spectrum scale of ``SCALES``, so the
tables are pinned apart from the writers.  The ``model-files`` group hashes what
``load_model`` makes of each file: ``A``'s bytes (after whitening, where the
file has ``sigma_x``) and ``sigma2.hex()``, or the error message.  It reads the
malformed and edge-case files of ``support`` and 200 seeded files of the
large-models benchmark's shapes, ``n`` from 16 to 128, each scaled by up to
``10^+-150``, every fourth with a ``sigma_x``.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from support import MALFORMED_MODELS, RAW_MALFORMED_MODELS, RAW_MODELS

from cedrf import cli, drf, oracle, waterfill
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel

N_MODELS, N_PAIRS, N_LISTS, N_TIES, N_FILES = 100, 500, 500, 100, 200
GAP_RATES = np.linspace(0.0, 40.0, 81).tolist()
ORACLE_RATES = (0.0, 0.5, 3.0, 40.0)
SWEEPS = {"sweep-csv": (), "sweep-json": ("--format", "json"), "sweep-nats": ("--nats",),
          "sweep-json-nats": ("--format", "json", "--nats")}
# (g_1 + sigma2) / sigma2 overflows, so gap_ub is inf at every rate
INFINITE_GAP_BOUND = {"A": [[1e100, 0.0], [0.0, 1.0]], "sigma2": 1e-300}
# s_2 far below s_1 but far above the SVD's noise, at a sigma2 far below s_2^2
FAR_SECOND_COMPONENT = ({"A": [[1.0, 0.0], [0.0, 1e-6]], "sigma2": 1e-14},
                        {"A": [[1.0, 0.0], [0.0, 3e-6]], "sigma2": 1e-14})
# subnormal sigma2: (f_1 - f_2)^2 of the lower bound overflows, and so does a weight
SUBNORMAL_SIGMA2 = {"A": [[1e-155, 0.0], [0.0, 5e-156]], "sigma2": 1e-310}
# twins of diag(1, 1) at sigma2 = 1 with a subnormal sigma2, one exact and one decimal
SUBNORMAL_TIES = ({"A": [[2.0 ** -530, 0.0], [0.0, 2.0 ** -530]], "sigma2": 2.0 ** -1060},
                  {"A": [[1e-160, 0.0], [0.0, 1e-160]], "sigma2": 1e-320})
# relative offsets of a mirror pair's second singular value, from where the
# weights tie within rounding to where they are told apart
NEAR_TIE_OFFSETS = (1e-16, -1e-15, 1e-14, -1e-13, 1e-12, -1e-11, 1e-11)
# spectrum scales c of the thresholds group: (sqrt(c) A, c sigma2) scales every spectrum by c
SCALES = (1.0, 2.0 ** 300, 2.0 ** -300, 1e150, 1e-150)


def models(rng):
    """Dense models over six decades of scale; every third has a column up to 1e12 below the rest."""
    for i in range(N_MODELS):
        l_dim, m = (int(v) for v in rng.integers(1, 6, size=2))
        a = rng.standard_normal((l_dim, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 3 == 0:
            a[:, 0] *= 10.0 ** rng.uniform(-12.0, 0.0)
        yield {"A": a.tolist(), "sigma2": 10.0 ** rng.uniform(-6.0, 6.0)}


def _rotated(rng, s, sigma2):
    """``{"A": U diag(s) V^T, "sigma2": sigma2}``: ``L`` and ``M`` from ``len(s)`` to 8, ``U`` and
    ``V`` random rotations."""
    l_dim, m = (int(v) for v in rng.integers(len(s), 9, size=2))
    q = [np.linalg.qr(rng.standard_normal((n, n)))[0] for n in (l_dim, m)]
    d = np.zeros((l_dim, m))
    d[range(len(s)), range(len(s))] = s
    return {"A": (q[0] @ d @ q[1].T).tolist(), "sigma2": sigma2}


def tied_models(rng):
    """``(doc, m)``: the ``m`` leading singular values, 2 to 4, are exactly equal; up to 4 more
    lie between 0.05 and 0.9 of them."""
    for _ in range(N_TIES):
        mult, rest = (int(v) for v in rng.integers([2, 0], [5, 5]))
        top = 10.0 ** rng.uniform(-3.0, 3.0)
        s = [top] * mult + sorted((top * rng.uniform(0.05, 0.9, rest)).tolist(), reverse=True)
        yield _rotated(rng, s, top * top * 10.0 ** rng.uniform(-3.0, 3.0)), mult


def mirror_models(rng, offset):
    """Singular values ``t`` and ``(sigma2 / t)(1 + offset)``, ``t^2 / sigma2`` from 4 to 100: at
    offset 0, ``lam_1 lam_2 = sigma2^2`` and the two weights ``lam/(lam+sigma2)^2`` are equal."""
    for _ in range(N_TIES):
        sigma2 = 10.0 ** rng.uniform(-3.0, 3.0)
        t = math.sqrt(sigma2 * 10.0 ** rng.uniform(0.6, 2.0))
        yield _rotated(rng, [t, sigma2 / t * (1.0 + offset)], sigma2)


def near_tied(rng):
    """128 singular values whose squares lie in [1, 1.001]: 127 nearly tied thresholds."""
    s = np.sqrt(np.sort(rng.uniform(1.0, 1.001, 128))[::-1])
    return {"A": np.diag(s).tolist(), "sigma2": 1e-3}


def large_model_files(rng):
    """JSON model files shaped as the large-models benchmark's: ``n x n``, ``n x n/2`` or
    ``n x n`` of rank ``n/4``, scaled by ``10^+-150``; every fourth has a ``sigma_x``."""
    for i in range(N_FILES):
        n, shape = int(rng.integers(16, 129)), i % 3
        if shape == 2:
            a = rng.standard_normal((n, n // 4)) @ rng.standard_normal((n // 4, n))
        else:
            a = rng.standard_normal((n, n // 2 if shape == 1 else n))
        c = 10.0 ** rng.uniform(-150.0, 150.0)
        doc = {"A": (a * c).tolist(), "sigma2": float(rng.choice([0.1, 1.0, 10.0])) * c * c}
        if i % 4 == 0:
            b = rng.standard_normal((a.shape[1], a.shape[1]))
            doc["sigma_x"] = (b @ b.T / a.shape[1] + 0.5 * np.eye(a.shape[1])).tolist()
        yield json.dumps(doc).encode()


def run(h, tmp, *argv):
    """Feed ``cedrf argv``'s exit code, stdout, stderr and written files to ``h``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    h.update(f"{code}\n{out.getvalue()}{err.getvalue()}".replace(str(tmp), "TMP").encode())
    for p in sorted(set(tmp.iterdir()) - {tmp / "model.json"}):
        h.update(p.name.encode() + p.read_bytes())
        p.unlink()


def outcome(f, *args):
    try:
        return repr(f(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def main():
    groups = {k: hashlib.sha256() for k in ("analyze", "analyze-json", "analyze-json-nats", *SWEEPS,
                                            "verify", "example", "gap_2d", "max_gap_2d",
                                            "am_gm_pair", "oracle", "gap-bounds",
                                            "equality-region", "thresholds", "model-files")}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        model = tmp / "model.json"
        sweep = ("sweep", model, "--min", 0, "--max", 30, "--steps", 401, "--out", tmp / "out")
        for i, (doc, rate) in enumerate(zip(models(np.random.default_rng(15)),
                                            [0.0, 0.5, 3.0, 40.0, 1e4] * N_MODELS)):
            model.write_text(json.dumps(doc))
            if i % 10 == 0:
                run(groups["verify"], tmp, "verify", model)
            run(groups["analyze"], tmp, "analyze", model, "--rate", rate)
            run(groups["analyze-json"], tmp, "analyze", model, "--rate", rate, "--json", tmp / "r")
            for name, options in SWEEPS.items():
                run(groups[name], tmp, *sweep, *options)
        model.write_text(json.dumps(INFINITE_GAP_BOUND))
        run(groups["analyze"], tmp, "analyze", model, "--rate", 3.0)
        run(groups["analyze-json"], tmp, "analyze", model, "--rate", 3.0, "--json", tmp / "r")
        run(groups["analyze-json-nats"], tmp, "analyze", model, "--rate", 3.0, "--json", tmp / "r",
            "--nats")
        for name, options in SWEEPS.items():
            run(groups[name], tmp, *sweep, *options)
        for doc in FAR_SECOND_COMPONENT:
            model.write_text(json.dumps(doc))
            run(groups["analyze"], tmp, "analyze", model, "--rate", 30.0)
            run(groups["analyze-json"], tmp, "analyze", model, "--rate", 30.0, "--json", tmp / "r")
            for name, options in SWEEPS.items():
                run(groups[name], tmp, *sweep, *options)
        run(groups["verify"], tmp, "verify", "--random", 3)
        run(groups["verify"], tmp, "verify", "--random", 50, "--seed", 1)
        run(groups["verify"], tmp, "verify", "--random", 1, "--seed", 3867)
        for seed in range(1, 201):  # the command the verify-random benchmark times
            run(groups["verify"], tmp, "verify", "--random", 1, "--seed", seed)
        run(groups["example"], tmp, "example", "--out", tmp)
        files = [*(json.dumps(doc).encode() for doc, _ in MALFORMED_MODELS),
                 *(data for data, _ in RAW_MALFORMED_MODELS.values()),
                 *(data for data, _, _ in RAW_MODELS.values()),
                 *large_model_files(np.random.default_rng(20))]
        for data in files:
            model.write_bytes(data)
            try:
                loaded = cli.load_model(model)
                line = f"{loaded.A.data.tobytes().hex()} {loaded.sigma2.hex()}"
            except (cli.ParseError, cli.InvalidModel) as exc:
                line = f"{type(exc).__name__}: {exc}".replace(str(model), "MODEL")
            groups["model-files"].update((line + "\n").encode())
    for i, doc in enumerate(models(np.random.default_rng(15))):
        model = ObservationModel(Matrix(doc["A"]), doc["sigma2"])
        est = oracle.mc_estimates(model, 2000, i, ce_rates=ORACLE_RATES, idrf_rates=ORACLE_RATES,
                                  mmse=True)
        values = [oracle.ce_matrix_form(model, r) for r in ORACLE_RATES]
        values += [v for e in (*est.ce, *est.idrf, est.mmse) for v in (e.mean, e.stderr)]
        groups["oracle"].update(" ".join(v.hex() for v in values).encode())
    for doc in (*models(np.random.default_rng(15)), INFINITE_GAP_BOUND, SUBNORMAL_SIGMA2):
        model = ObservationModel(Matrix(doc["A"]), doc["sigma2"])
        points = drf.sweep(model, GAP_RATES)
        groups["gap-bounds"].update(" ".join(v.hex() for p in points
                                             for v in (p.gap_ub, p.gap_lb)).encode())
    rng = np.random.default_rng(18)
    ties = [*models(np.random.default_rng(15)), *(doc for doc, _ in tied_models(rng))]
    for offset in (0.0, *NEAR_TIE_OFFSETS):
        ties += mirror_models(rng, offset)
    ties += SUBNORMAL_TIES
    for doc in ties:
        region = drf.equality_region(ObservationModel(Matrix(doc["A"]), doc["sigma2"]))
        groups["equality-region"].update(
            f"{region.r0} {region.R_limit.hex()} {region.unconditional}\n".encode())
    rng = np.random.default_rng(19)
    for doc in (*models(np.random.default_rng(15)), *(doc for doc, _ in tied_models(rng)),
                near_tied(rng)):
        for c in SCALES:
            model = ObservationModel(Matrix(math.sqrt(c) * np.array(doc["A"])), c * doc["sigma2"])
            for s in (model.observation, model.conditional):
                values = s.thresholds.tolist()
                values += [v for r in ORACLE_RATES for v in waterfill.rate_allocation(s, r).rates]
                groups["thresholds"].update((" ".join(v.hex() for v in values) + "\n").encode())
    rng = np.random.default_rng(16)
    for _ in range(N_PAIRS):  # t = lam / sigma2 with t1 t2 >= 1, so most pairs meet the condition
        s2, t2 = (float(v) for v in 10.0 ** rng.uniform([-3.0, -3.0], [3.0, 1.0]))
        pair = (max(t2, 1.0 / t2) * 10.0 ** rng.uniform(-0.5, 3.0) * s2, t2 * s2, s2)
        groups["max_gap_2d"].update(outcome(drf.max_gap_2d, *pair).encode())
        for r in GAP_RATES:
            groups["gap_2d"].update(outcome(drf.gap_2d, *pair, r).encode())
    groups["max_gap_2d"].update(outcome(drf.max_gap_2d, 1.0, 1e-310, 1e-310).encode())
    rng = np.random.default_rng(17)
    for _ in range(N_LISTS):
        values = (10.0 ** rng.uniform(-300.0, 300.0, size=int(rng.integers(1, 9)))).tolist()
        groups["am_gm_pair"].update(outcome(drf.am_gm_pair, values).encode())
    print("\n".join(f"{h.hexdigest()}  {name}" for name, h in groups.items()))


if __name__ == "__main__":
    main()
