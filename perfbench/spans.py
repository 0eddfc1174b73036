"""Span tracing from outside the program.

``install`` replaces the public functions of the six cedrf modules with
wrappers that record one span per call: name, start, end, parent span and
op id.  Calls inside the program go through module globals, so internal
calls are captured as well.  Spans stay in memory and are written out once,
at the end of the run.  A wrapper records nothing while no op is open, so
the correctness gate can call the same functions untraced.
"""

from __future__ import annotations

import inspect
from time import perf_counter

import numpy as np

ROOT = "bench.op"  # one per op, opened by the benchmark around `cli.main`

# (module name, attribute) per layer; "ObservationModel" means its __init__.
TRACED = {
    "cli": ("main", "load_model", "cmd_analyze", "cmd_sweep", "cmd_verify", "cmd_example"),
    "spectral": ("ObservationModel", "whiten"),
    "linalg": ("sym_eig", "pinv"),
    "waterfill": ("rate_thresholds", "active_count", "water_level", "rate_allocation"),
    "drf": ("idrf", "ce_drf", "sweep", "equality_region", "gap_upper_bound", "gap_lower_bound"),
    "oracle": ("ce_matrix_parts", "ce_matrix_form", "mc_ce", "mc_idrf", "mc_mmse"),
}
LAYERS = tuple(TRACED)
MC = ("oracle.mc_ce", "oracle.mc_idrf", "oracle.mc_mmse")
SIZE_BINS = (4, 16, 32, 64, 128)

# Spans whose calls carry a size worth recording: the parameter that holds it
# and how to read it.
_ARG_OF = {
    "spectral.ObservationModel": ("A", lambda a: max(a.rows, a.cols)),
    "drf.sweep": ("R_grid", len),
    "oracle.mc_ce": ("n_samples", int),
    "oracle.mc_idrf": ("n_samples", int),
    "oracle.mc_mmse": ("n_samples", int),
}


class Recorder:
    """In-memory span store.  One per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name = []
        self.parent = []
        self.op = []
        self.start = []
        self.end = []
        self.arg = []
        self.errors = {layer: 0 for layer in LAYERS}
        self._seen: dict[int, BaseException] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(0, 0)

    def end_op(self) -> None:
        self._close(self._stack.pop())
        self._op = None
        self._seen.clear()

    def _open(self, name_idx: int, arg: int) -> int:
        sid = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.arg.append(arg)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()

    def _note_error(self, exc: BaseException) -> None:
        # Count each exception once, in the layer whose code raised it: the
        # innermost cedrf frame of its traceback.
        if id(exc) in self._seen:
            return
        self._seen[id(exc)] = exc
        tb, layer = exc.__traceback__, None
        while tb is not None:
            module = tb.tb_frame.f_globals.get("__name__", "")
            if module.startswith("cedrf."):
                layer = module.split(".")[1]
            tb = tb.tb_next
        if layer in self.errors:
            self.errors[layer] += 1

    def wrap(self, name: str, fn):
        """A recording stand-in for ``fn``."""
        idx = len(self.names)
        self.names.append(name)
        param, read = _ARG_OF.get(name, (None, None))
        sig = inspect.signature(fn) if param else None

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            arg = read(sig.bind(*args, **kwargs).arguments[param]) if sig else 0
            sid = self._open(idx, arg)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(exc)
                raise
            finally:
                self._close(sid)
                self._stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "arg": np.array(self.arg, dtype=np.int64),
        }


def install(rec: Recorder, modules: dict) -> callable:
    """Wrap every traced function of ``modules`` (layer name -> module); return an undo."""
    undo = []
    for layer, attrs in TRACED.items():
        mod = modules[layer]
        for attr in attrs:
            if attr == "ObservationModel":
                cls = mod.ObservationModel
                orig = cls.__init__
                cls.__init__ = rec.wrap(f"{layer}.{attr}", orig)
                undo.append((cls, "__init__", orig))
                continue
            orig = getattr(mod, attr)
            wrapped = rec.wrap(f"{layer}.{attr}", orig)
            setattr(mod, attr, wrapped)
            undo.append((mod, attr, orig))
            # `cli` imports `whiten` by name; its copy must be wrapped too.
            if layer == "spectral" and attr == "whiten":
                cli = modules["cli"]
                undo.append((cli, attr, cli.whiten))
                cli.whiten = wrapped

    def restore() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover.

    Children may overlap each other; the covered part is the union of their
    intervals, clipped to the parent's.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    s, e, par = start.tolist(), end.tolist(), np.asarray(parent).tolist()
    covered = [0.0] * len(s)
    frontier = {}
    for i in np.argsort(start, kind="stable").tolist():
        p = par[i]
        if p < 0:
            continue
        lo = max(s[i], s[p], frontier.get(p, s[p]))
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return (end - start) - np.array(covered)


def size_bin(n: int) -> int:
    """Smallest bin in SIZE_BINS that holds max(L, M) = n."""
    return next((b for b in SIZE_BINS if n <= b), SIZE_BINS[-1])


def layer_metrics(rec: Recorder, op_wall_s: list[float]) -> dict[str, float]:
    """Per-layer counts, self times and waste ratios of one traced pass.

    ``op_wall_s[i]`` is the wall time the benchmark measured around op ``i``.
    """
    sp = rec.arrays()
    layer = np.array([n.split(".")[0] for n in rec.names])[sp["name"]]
    selft = self_times(sp["start"], sp["end"], sp["parent"])
    dur = sp["end"] - sp["start"]

    def mask(name):
        return sp["name"] == rec.names.index(name)

    def count(name):
        return int(mask(name).sum())

    m: dict[str, float] = {}
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(selft[layer == lay].sum())
        m[f"{lay}.errors"] = rec.errors[lay]

    builds = mask("spectral.ObservationModel")
    m["spectral.builds"] = int(builds.sum())
    m["spectral.build_self_s"] = float(selft[builds].sum())
    bins = np.array([size_bin(int(a)) for a in sp["arg"][builds]], dtype=int)
    build_ms = dur[builds] * 1e3
    for b in SIZE_BINS:
        sel = build_ms[bins == b]
        m[f"spectral.build_ms.n{b}"] = float(np.median(sel)) if sel.size else 0.0

    for fn in ("sym_eig", "pinv"):
        m[f"linalg.{fn}.calls"] = count(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = float(selft[mask(f"linalg.{fn}")].sum())
    m["linalg.sym_eig.calls_per_model"] = _ratio(m["linalg.sym_eig.calls"], m["spectral.builds"])

    sweeps = mask("drf.sweep")
    points = int(sp["arg"][sweeps].sum()) + count("drf.ce_drf")
    m["drf.points"] = points
    m["waterfill.rate_thresholds.calls"] = count("waterfill.rate_thresholds")
    m["waterfill.thresholds_per_point"] = _ratio(m["waterfill.rate_thresholds.calls"], points)
    parent_layer = np.where(sp["parent"] >= 0, layer[np.maximum(sp["parent"], 0)], "")
    drf_top = (layer == "drf") & (parent_layer != "drf")
    m["drf.us_per_point"] = _ratio(float(dur[drf_top].sum()) * 1e6, points)

    mc = np.isin(sp["name"], [rec.names.index(n) for n in MC])
    m["oracle.mc.calls"] = int(mc.sum())
    m["oracle.mc.samples"] = int(sp["arg"][mc].sum())
    m["oracle.mc.self_s"] = float(selft[mc].sum())
    m["oracle.mc.ns_per_sample"] = _ratio(float(dur[mc].sum()) * 1e9, m["oracle.mc.samples"])
    m["oracle.ce_matrix_form.calls"] = count("oracle.ce_matrix_form")
    m["oracle.ce_matrix_form.self_s"] = float(selft[mask("oracle.ce_matrix_form")].sum())

    m["bench.remainder_s"] = float(selft[mask(ROOT)].sum())
    # Layer self times plus the remainder must add up to each op's wall time
    # as the benchmark measured it around the op.
    per_op = np.bincount(sp["op"], weights=selft, minlength=len(op_wall_s))
    wall = np.asarray(op_wall_s)
    m["trace.accounted_share"] = float(per_op.sum() / wall.sum())
    m["trace.worst_unaccounted_ms"] = float((wall - per_op).max() * 1e3)
    m["trace.spans"] = len(rec.name)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts that must repeat exactly between traced passes over the same ops.
EXACT_COUNTS = ("linalg.sym_eig.calls", "waterfill.rate_thresholds.calls",
                "oracle.mc.samples", "drf.points")
