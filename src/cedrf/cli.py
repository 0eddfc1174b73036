"""Command-line front end.

Subcommands: ``analyze`` (one-rate report), ``sweep`` (rate grid to
CSV/JSON), ``verify`` (closed forms against the matrix/Monte-Carlo
oracles, from one closed-form grid and one compress-and-estimate test
channel per model), and ``example`` (the built-in two-component
demonstration model with its figure data).

Model files are JSON documents with keys ``A`` (nested array of L rows of
M reals), ``sigma2`` (positive real), and optionally ``sigma_x`` (an M x M
source covariance, which triggers whitening; distortion is then measured
on the whitened source).  Rates are bits unless ``--nats`` is given, in
which case rate-valued inputs and outputs are converted on the way in/out.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import drf, oracle, waterfill
from .linalg import Matrix
from .spectral import ObservationModel, whiten

CSV_HEADER = ",".join(drf.DistortionPoint._fields)
# one sweep row; "%.17g" round-trips every double
_CSV_LINE = ",".join(["%.17g"] * len(drf.DistortionPoint._fields))
# one row of json.dumps(..., indent=2), whose finite floats are float.__repr__ ("%r")
_JSON_ROW = "    {\n%s\n    }" % ",\n".join(
    f'      "{f}": %{"d" if f.startswith("k_") else "r"}' for f in drf.DistortionPoint._fields
)

_LN2 = math.log(2.0)


class ParseError(ValueError):
    """Model file is not valid JSON or has a malformed field."""


class InvalidModel(ValueError):
    """Model file violates a model invariant."""


def _to_bits(rate: float, nats: bool) -> float:
    return rate / _LN2 if nats else rate


def _from_bits(rate: float, nats: bool) -> float:
    return rate * _LN2 if nats else rate


def _json_safe(x: float) -> float | None:
    return None if math.isinf(x) else x


_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_indent2(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=2)`` of dicts, lists, str, bool, int, float and None, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder; this joins
    ``float.__repr__`` strings, which is how ``json`` writes floats.
    """
    if isinstance(doc, float):
        r = float.__repr__(doc)
        return _JSON_NON_FINITE.get(r, r)
    if not isinstance(doc, (dict, list)) or not doc:
        return json.dumps(doc)  # other scalars and empty containers
    inner = pad + "  "
    if isinstance(doc, dict):
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_json_indent2(v, inner)}"
                 for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    items = [float.__repr__(v) if v.__class__ is float else _json_indent2(v, inner) for v in doc]
    return "[" + inner + ("," + inner).join([_JSON_NON_FINITE.get(r, r) for r in items]) + pad + "]"


def _matrix(doc: dict, field: str) -> Matrix:
    """``doc[field]`` as a :class:`Matrix`: rows of JSON numbers."""
    rows = doc[field]
    if not isinstance(rows, list):
        raise ParseError(f"field '{field}': expected an array of arrays, got {type(rows).__name__}")
    for row in rows:
        if not isinstance(row, list):
            raise ParseError(f"field '{field}': expected an array of arrays, "
                             f"got an array holding {type(row).__name__}")
    kinds = set(map(type, itertools.chain.from_iterable(rows))) - {float}
    if kinds:
        raise ParseError(f"field '{field}': expected numbers, got {min(k.__name__ for k in kinds)}")
    try:
        return Matrix(rows)
    except (ValueError, TypeError) as exc:
        raise InvalidModel(f"field '{field}': {exc}") from exc


def load_model(path: str | Path) -> ObservationModel:
    """Read and validate a model JSON file."""
    text = Path(path).read_text()
    try:  # integers too are doubles: one too large for a double is inf, as 1e400 is
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be a JSON object")
    for field in ("A", "sigma2"):
        if field not in doc:
            raise ParseError(f"{path}: missing field '{field}'")
    a = _matrix(doc, "A")
    sigma2 = doc["sigma2"]
    if type(sigma2) is not float:
        raise ParseError(f"field 'sigma2': expected a number, got {type(sigma2).__name__}")
    sx = None if doc.get("sigma_x") is None else _matrix(doc, "sigma_x")
    if sx is not None and (sx.rows != sx.cols or sx.rows != a.cols):
        raise InvalidModel(f"field 'sigma_x': expected {a.cols}x{a.cols}, got {sx.rows}x{sx.cols}")
    try:
        return ObservationModel(a, sigma2) if sx is None else whiten(sx, a, sigma2)
    except ValueError as exc:
        raise InvalidModel(str(exc)) from exc


def example_model() -> ObservationModel:
    """The built-in two-observation demonstration model."""
    return ObservationModel(
        Matrix(np.diag([math.sqrt(20.0), math.sqrt(0.5)])), 1.0
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analysis_report(model: ObservationModel, rate_bits: float, nats: bool) -> dict:
    region = drf.equality_region(model)
    point = drf.sweep(model, [rate_bits])[0]
    # the point carries both water levels; the allocations reuse them
    alloc_cond = waterfill._allocation(model.conditional, rate_bits, point.k_idrf, point.theta_idrf)
    alloc_obs = waterfill._allocation(model.observation, rate_bits, point.k_ce, point.theta_ce)
    unit = "nats" if nats else "bits"
    return {
        "units": unit,
        "model": {
            "M": model.M,
            "L": model.L,
            "r": model.r,
            "sigma2": model.sigma2,
            "rank": model.gram.rank,
            "full_rank": model.full_rank,
            "mmse_floor": model.mmse_floor,
        },
        "spectra": {
            "gram": list(model.gram.values),
            "observation": list(model.observation.values),
            "conditional": list(model.conditional.values),
        },
        "thresholds": {
            "observation": [
                _json_safe(_from_bits(t, nats)) for t in model.observation.thresholds
            ],
            "conditional": [
                _json_safe(_from_bits(t, nats)) for t in model.conditional.thresholds
            ],
        },
        "equality_region": {
            "r0": region.r0,
            "R_limit": _json_safe(_from_bits(region.R_limit, nats)),
            "unconditional": region.unconditional,
        },
        "point": dict(point._asdict(), R=_from_bits(rate_bits, nats)),
        "rates": {
            "idrf": [_from_bits(r, nats) for r in alloc_cond.rates],
            "ce": [_from_bits(r, nats) for r in alloc_obs.rates],
        },
    }


def _print_analysis(report: dict, out=None) -> None:
    out = out if out is not None else sys.stdout

    def fnum(x):
        return "inf" if x is None else format(x, ".12g")

    m = report["model"]
    print(
        f"model: M={m['M']} L={m['L']} sigma2={fnum(m['sigma2'])} "
        f"rank={m['rank']} full_rank={m['full_rank']} mmse_floor={fnum(m['mmse_floor'])}",
        file=out,
    )
    sp = report["spectra"]
    print(f"spectrum gram:        {' '.join(fnum(v) for v in sp['gram'])}", file=out)
    print(f"spectrum observation: {' '.join(fnum(v) for v in sp['observation'])}", file=out)
    print(f"spectrum conditional: {' '.join(fnum(v) for v in sp['conditional'])}", file=out)
    th = report["thresholds"]
    unit = report["units"]
    print(f"thresholds observation ({unit}): {' '.join(fnum(v) for v in th['observation'])}", file=out)
    print(f"thresholds conditional ({unit}): {' '.join(fnum(v) for v in th['conditional'])}", file=out)
    eq = report["equality_region"]
    print(
        f"equality region: r0={eq['r0']} R_limit={fnum(eq['R_limit'])} "
        f"unconditional={eq['unconditional']}",
        file=out,
    )
    p = report["point"]
    print(f"at R = {fnum(p['R'])} {unit}:", file=out)
    print(f"  d_idrf = {fnum(p['d_idrf'])}  (k={p['k_idrf']}, theta={fnum(p['theta_idrf'])})", file=out)
    print(f"  d_ce   = {fnum(p['d_ce'])}  (k={p['k_ce']}, theta={fnum(p['theta_ce'])})", file=out)
    print(f"  gap    = {fnum(p['gap'])}  bounds [{fnum(p['gap_lb'])}, {fnum(p['gap_ub'])}]", file=out)
    r = report["rates"]
    print(f"rates idrf ({unit}): {' '.join(fnum(v) for v in r['idrf'])}", file=out)
    print(f"rates ce   ({unit}): {' '.join(fnum(v) for v in r['ce'])}", file=out)


def cmd_analyze(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    rate_bits = _to_bits(args.rate, args.nats)
    waterfill._check_rate(rate_bits)
    report = _analysis_report(model, rate_bits, args.nats)
    _print_analysis(report)
    if args.json:
        Path(args.json).write_text(_json_indent2(report) + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _table(head: str, row: str, n: int, values, sep: str = "\n", tail: str = "\n") -> str:
    """``head``, then ``n`` copies of the ``%`` template ``row`` filled from ``values`` by one ``%``."""
    return head + sep.join([row] * n) % tuple(values) + tail


def _write_rows(values: list, n: int, out_path: str, fmt: str) -> None:
    """Write ``n`` sweep rows, given as their fields flattened row by row."""
    if fmt == "csv":
        text = _table(CSV_HEADER + "\n", _CSV_LINE, n, values)
    else:
        text = _table('{\n  "rows": [\n', _JSON_ROW, n, values, ",\n", "\n  ]\n}\n")
        # no key and no finite float's repr contains "nan" or "inf"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    Path(out_path).write_text(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if args.steps < 2:
        raise drf.InvalidGrid(f"steps must be >= 2, got {args.steps}")
    if not math.isfinite(args.max):
        raise drf.InvalidGrid(f"--max must be finite, got {args.max}")
    if not (0.0 <= args.min < args.max):
        raise drf.InvalidGrid(f"need 0 <= min < max, got min={args.min}, max={args.max}")
    grid = np.linspace(args.min, args.max, args.steps)
    points = drf.sweep(model, grid / _LN2 if args.nats else grid)
    values = list(itertools.chain.from_iterable(points))
    if args.nats:  # the R column in the input unit
        values[0::len(drf.DistortionPoint._fields)] = grid.tolist()
    _write_rows(values, len(points), args.out, args.format)
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool


def _random_verify_model(rng: np.random.Generator) -> ObservationModel:
    m = int(rng.integers(1, 6))
    l_dim = int(rng.integers(1, 6))
    a = rng.uniform(-2.0, 2.0, size=(l_dim, m))
    sigma2 = float(rng.choice([0.1, 1.0, 10.0]))
    return ObservationModel(Matrix(a), sigma2)


#: oracle-equivalence rates; each model adds the rates 0.05 either side of its thresholds
_ORACLE_RATES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0)
#: Monte Carlo rates, all in ``_ORACLE_RATES``: they add no rate to the CE test channel
_MC_RATES = (0.5, 1.0, 3.0)


def _worst_mc(name: str, estimates, closed) -> CheckResult:
    """The estimate furthest past its tolerance ``max(4 stderr, 1e-3)``, the first on ties."""
    pairs = [(abs(e.mean - v), max(4.0 * e.stderr, 1e-3)) for e, v in zip(estimates, closed)]
    diff, tol = max(pairs, key=lambda d: d[0] - d[1])
    return CheckResult(name, tol, diff, diff < tol)


def _verify_model(model: ObservationModel, rng: np.random.Generator, samples: int,
                  seed: int) -> list[CheckResult]:
    """Every check on one model, from one closed-form grid and one CE test channel.

    Each check has its own rates; the closed forms are evaluated once, on
    the union of them, and each check reads its rates' rows, which are the
    bits a grid of its rates alone gives.  The matrix form and the Monte
    Carlo CE maps share one test channel, on the oracle-equivalence rates
    joined with the Monte Carlo rates.  The equality-region rates are
    drawn from ``rng``, so the draws of later models depend on this one's.
    """
    neighbours = (r for t in model.observation.thresholds[:-1] if t > 0.0
                  for r in (max(0.0, t - 0.05), t + 0.05))
    ce_rates = sorted({*_ORACLE_RATES, *neighbours, *_MC_RATES})
    parts = oracle._ce_grid(model, ce_rates)
    cap = min(drf.equality_region(model).R_limit, 12.0)
    region = sorted({*rng.uniform(0.0, cap, 20).tolist(), cap})
    steps = np.linspace(0.0, 12.0, 50).tolist()
    grid = np.array(sorted({*ce_rates, *region, *steps}))  # np.unique would import numpy.ma
    _, d_idrf, d_ce, gap, gap_ub, gap_lb = (c.tolist() for c in drf._columns(model, grid)[:6])

    def rows(rates):
        return np.searchsorted(grid, rates).tolist()

    worst = max(abs(f - d_ce[i]) for f, i in zip(oracle._ce_forms(model, parts), rows(ce_rates)))
    checks = [CheckResult("oracle-equivalence", 1e-9, worst, worst < 1e-9)]
    worst = max(abs(d_ce[i] - d_idrf[i]) for i in rows(region))
    checks.append(CheckResult("equality-region", 1e-10, worst, worst < 1e-10))
    violation = increase = 0.0
    on_steps = rows(steps)
    for i in on_steps:
        violation = max(violation, gap_lb[i] - gap[i], gap[i] - gap_ub[i], -(d_ce[i] - d_idrf[i]))
    for a, b in zip(on_steps, on_steps[1:]):
        increase = max(increase, d_idrf[b] - d_idrf[a], d_ce[b] - d_ce[a])
    checks.append(CheckResult("bound-sandwich", 1e-10, violation, violation <= 1e-10))
    checks.append(CheckResult("monotonicity", 1e-12, increase, increase <= 1e-12))
    mc = oracle._rows(parts, [ce_rates.index(r) for r in _MC_RATES])
    run = oracle._estimates(model, samples, seed, mc, _MC_RATES, mmse=True)
    at_mc = rows(_MC_RATES)
    checks.append(_worst_mc("monte-carlo-ce", run.ce, [d_ce[i] for i in at_mc]))
    checks.append(_worst_mc("monte-carlo-idrf", run.idrf, [d_idrf[i] for i in at_mc]))
    checks.append(_worst_mc("monte-carlo-mmse", (run.mmse,), (model.mmse_floor,)))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.random is not None:
        models = [(_random_verify_model(rng), f"random[{i}]") for i in range(args.random)]
    else:
        models = [(load_model(args.model), str(args.model))]
    failures = 0
    for i, (model, label) in enumerate(models):
        print(f"== {label}: M={model.M} L={model.L} sigma2={model.sigma2}")
        # each model its own draw: under one seed every chisquare(n, size=M) starts alike
        for c in _verify_model(model, rng, args.samples, args.seed + i):
            status = "PASS" if c.passed else "FAIL"
            print(f"  {status} {c.name:<18} observed {c.observed:.3e}  tol {c.tolerance:.3e}")
            failures += 0 if c.passed else 1
    total = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(total)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args: argparse.Namespace) -> int:
    model = example_model()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    thr_cond = model.conditional.thresholds[1]
    thr_obs = model.observation.thresholds[1]
    region = drf.equality_region(model)
    r_star, g_star = drf.max_gap_2d(20.0, 0.5, 1.0)
    print(f"second activation (conditional): {thr_cond:.6f} bits")
    print(f"second activation (observation): {thr_obs:.6f} bits")
    print(f"equality region: r0={region.r0} R_limit={region.R_limit:.6f} bits")
    print(f"max gap: {g_star:.6f} at R = {r_star:.6f} bits")
    print(f"mmse floor: {model.mmse_floor:.6f}")

    points = drf.sweep(model, np.linspace(0.0, 4.5, 451))
    curves = out_dir / "drf_curves.csv"
    gaps = out_dir / "gap_curve.csv"
    flat, n = itertools.chain.from_iterable, len(points)
    curves.write_text(_table("R,d_idrf,d_ce\n", "%.17g,%.17g,%.17g", n, flat(p[:3] for p in points)))
    gaps.write_text(_table("R,gap\n", "%.17g,%.17g", n, flat((p.R, p.gap) for p in points)))
    print(f"wrote {curves} and {gaps}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedrf",
        description="Distortion-rate curves for remote Gaussian vector sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one model at one rate")
    p_an.add_argument("model", help="model JSON file")
    p_an.add_argument("--rate", type=float, required=True, help="rate (bits, or nats with --nats)")
    p_an.add_argument("--nats", action="store_true", help="rates in/out are nats")
    p_an.add_argument("--json", metavar="PATH", help="also write the report as JSON")

    p_sw = sub.add_parser("sweep", help="evaluate the curves on a rate grid")
    p_sw.add_argument("model", help="model JSON file")
    p_sw.add_argument("--min", type=float, required=True)
    p_sw.add_argument("--max", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--out", required=True, help="output file")
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.add_argument("--nats", action="store_true", help="rates in/out are nats")

    p_ve = sub.add_parser("verify", help="check closed forms against the oracles")
    p_ve.add_argument("model", nargs="?", help="model JSON file")
    p_ve.add_argument("--random", type=int, metavar="N", help="verify N random models instead")
    p_ve.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples per run")
    p_ve.add_argument("--seed", type=int, default=20240117, help="seed for models and sampling")

    p_ex = sub.add_parser("example", help="built-in two-component demonstration model")
    p_ex.add_argument("--out", default=".", help="directory for the figure CSV files")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and (args.model is None) == (args.random is None):
        parser.error("verify needs exactly one of: a model file, or --random N")
    if args.command == "verify" and args.random is not None and args.random < 1:
        parser.error(f"--random needs N >= 1, got {args.random}")
    if args.command == "verify" and args.samples < 1:
        parser.error(f"--samples needs N >= 1, got {args.samples}")
    if args.command == "verify" and args.seed < 0:
        parser.error(f"--seed needs N >= 0, got {args.seed}")
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ParseError, InvalidModel) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
