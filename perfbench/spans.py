"""Span recording around the public functions of every ``scip`` module.

The program's source is not touched: ``install`` replaces each public
function and selected method with a wrapper, under every name a caller looks
it up by (``scip.procedures.bh_select`` and ``scip.selection.bh_select`` are
one function object, so both names get the same wrapper).  A span is
(name, start, end, parent, op id, raised).  Spans stay in memory in flat
arrays and are written once, when the benchmark ends.

Two modes share one recorder: ``full=False`` wraps only the replication
entry points that ``scip.cli`` calls (one span per op, which gives the op
latency of the end-to-end run); ``full=True`` wraps every layer.
Spans are recorded in the benchmark's own process only: traced calls run
scip at jobs = 1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np
import scip
import scip.core

LAYERS = ("cli", "experiments", "simgen", "trust", "conformal", "selection", "procedures", "core", "metrics")

# replication entry points: one call is one op of a sweep workload
OP_FUNCTIONS = ("regression_replication", "classification_replication", "synthetic_replication")

# dunder methods worth a span; other dunders (dataclass __init__, __eq__) are too hot to wrap
_WRAPPED_DUNDERS = {("conformal", "CalibrationScores", "__init__")}

# per-set value helpers run several times for every reported set; spans on them
# would dominate the trace, so their time stays in the caller's self time
_UNWRAPPED = {
    ("core", name)
    for name in ("ClassSet", "Interval", "IntervalUnion", "interval", "half_line_above",
                 "half_line_below", "set_contains", "set_measure", "is_empty_set")
}

_COLUMNS = (("name", "i"), ("parent", "q"), ("op", "q"), ("start", "d"), ("end", "d"), ("err", "b"))

class Recorder:
    """Flat, append-only span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.op_id = -1
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(col, dtype=col.typecode).copy() for key, col in self.cols.items()}

    def save(self, path: Path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(fn, rec: Recorder, name: str, is_op: bool, hook, before=None):
    nid = rec.name_id(name)
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before()
        cols = rec.cols
        idx = len(cols["start"])
        if is_op:
            rec.op_id += 1
        cols["name"].append(nid)
        cols["parent"].append(rec.stack[-1] if rec.stack else -1)
        cols["op"].append(rec.op_id)
        cols["err"].append(0)
        cols["end"].append(0.0)
        rec.stack.append(idx)
        cols["start"].append(perf())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            cols["err"][idx] = 1
            raise
        finally:
            cols["end"][idx] = perf()
            rec.stack.pop()
        if hook is not None:
            hook(rec, idx, args, result)
        return result

    return wrapper


def op_span(rec: Recorder, fn, name: str):
    """``fn`` wrapped so that each call is one op span."""
    return _wrap(fn, rec, name, True, None)


# ---------------------------------------------------------------------------
# Counter hooks: counts are taken where the work happens
# ---------------------------------------------------------------------------


def _count_reported(rec, idx, args, result):
    parent = rec.cols["parent"][idx]
    if parent < 0 or not rec.names[rec.cols["name"][parent]].startswith("procedures."):
        rec.count("procedures.reported", result.n_reported)


def _count_scored(rec, idx, args, result):
    rec.count("metrics.sets_scored", len(args[0]))


def _count_fit(rec, idx, args, result):
    rec.count("trust.gd_iters", len(result.loss_trace) - 1)
    rec.count("trust.converged", int(bool(result.converged)))


def _count_ipv(rec, idx, args, result):
    rec.count("conformal.ipv_units", int(np.size(result)))


def _count_bh(rec, idx, args, result):
    rec.count("selection.units", int(result.pvalues.size))
    rec.count("selection.selected", int(result.selected.size))


def _hook_for(layer: str, name: str):
    if layer == "procedures" and name.startswith("run_"):
        return _count_reported
    if (layer, name) == ("metrics", "replication_metrics"):
        return _count_scored
    if layer == "trust" and name.startswith("train_"):
        return _count_fit
    if (layer, name) == ("conformal", "i_adjusted_pvalues"):
        return _count_ipv
    if (layer, name) == ("selection", "bh_select"):
        return _count_bh
    return None


def _scip_modules():
    mods = [scip]
    for info in pkgutil.iter_modules(scip.__path__):
        mods.append(importlib.import_module(f"scip.{info.name}"))
    return mods


def install(rec: Recorder, full: bool, before_op=None):
    """Wrap scip callables under every module name that refers to them.

    ``before_op``, if given, is called before each op span opens (outside it).
    Returns a function that restores the originals.
    """
    mods = _scip_modules()
    replaced: dict[int, object] = {}
    restore = []
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if (layer, name) in _UNWRAPPED:
                continue
            if inspect.isfunction(obj):
                is_op = layer == "experiments" and name in OP_FUNCTIONS
                if full or is_op:
                    hook = _hook_for(layer, name) if full else None
                    replaced[id(obj)] = _wrap(obj, rec, f"{layer}.{name}", is_op, hook,
                                              before_op if is_op else None)
            elif inspect.isclass(obj) and full:
                for attr, fn in list(vars(obj).items()):
                    public = not attr.startswith("_") or (layer, name, attr) in _WRAPPED_DUNDERS
                    if not (public and inspect.isfunction(fn)) or getattr(fn, "__isabstractmethod__", False):
                        continue
                    setattr(obj, attr, _wrap(fn, rec, f"{layer}.{name}.{attr}", False, None))
                    restore.append((obj, attr, fn))
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)
                restore.append((mod, name, obj))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


class SpanTable:
    """Vectorized views over a recorder's spans; per-name lookups go through name ids."""

    def __init__(self, rec: Recorder):
        cols = rec.arrays()
        self.names = rec.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.err = cols["err"].astype(bool)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - child[: self.dur.size]

    def mask(self, predicate) -> np.ndarray:
        """Spans whose full name satisfies ``predicate``."""
        by_name = np.array([bool(predicate(n)) for n in self.names])
        return by_name[self.name]

    def layer(self, layer: str) -> np.ndarray:
        return self.mask(lambda n: n.split(".", 1)[0] == layer)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` with no ancestor in ``mask`` (no double counting of nested calls)."""
        covered = np.zeros(mask.size, dtype=bool)
        has_parent = self.parent >= 0
        par = np.where(has_parent, self.parent, 0)
        while True:
            nxt = has_parent & (mask[par] | covered[par])
            if np.array_equal(nxt, covered):
                return mask & ~covered
            covered = nxt

    def inclusive_s(self, names) -> tuple[float, int]:
        """Summed duration and count of the outermost spans named in ``names``."""
        names = set(names)
        outer = self.outermost(self.mask(lambda n: n in names))
        return float(self.dur[outer].sum()), int(outer.sum())

    def top_ancestor_in(self, mask: np.ndarray) -> np.ndarray:
        """For each span in ``mask``: its outermost ancestor in ``mask`` (itself if none)."""
        top = np.arange(mask.size)
        for i in np.flatnonzero(mask):
            p = self.parent[i]
            if p >= 0 and mask[p]:
                top[i] = top[p]
        return top


METHOD_NAMES = (
    ("run_naive", "naive"),
    ("run_cfbh", "cfbh"),
    ("run_cfbh_plus", "cfbh_plus"),
    ("run_cfbh_plus_plus", "cfbh_plus_plus"),
    ("run_infosp", "infosp"),
    ("run_infosp_plus", "infosp_plus"),
    ("run_infosp_plus_plus", "infosp_plus_plus"),
    ("run_infoscop", "infoscop"),
)

_SET_BUILDERS = ("conformal.interval_set_from_radius", "conformal.class_set_from_radius",
                 "conformal.conformal_prediction_set")
_TRAINERS = ("trust.train_trust_classifier", "trust.train_pu_classifier", "trust.train_softmax_classifier")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer times (seconds, summed over the traced work) and counts."""
    t = SpanTable(rec)
    out: dict[str, float] = {}

    is_proc = t.layer("procedures")
    top = t.top_ancestor_in(is_proc)
    by_method = {f"procedures.{fn}": short for fn, short in METHOD_NAMES}
    method_self = {short: 0.0 for _, short in METHOD_NAMES}
    for i in np.flatnonzero(is_proc):
        short = by_method.get(t.names[t.name[top[i]]])
        if short is not None:
            method_self[short] += t.self_time[i]
    for short, value in method_self.items():
        out[f"procedures.{short}.self_s"] = value
    out["procedures.reported"] = rec.counters.get("procedures.reported", 0)

    out["conformal.set_build_s"], out["conformal.sets_built"] = t.inclusive_s(_SET_BUILDERS)
    contains = {f"core.{name}.contains" for name, cls in vars(scip.core).items()
                if isinstance(cls, type) and issubclass(cls, scip.core.InformativeConstraint)}
    out["core.contains_s"], out["core.contains_calls"] = t.inclusive_s(contains)
    out["metrics.score_s"], _ = t.inclusive_s(["metrics.replication_metrics"])
    out["metrics.sets_scored"] = rec.counters.get("metrics.sets_scored", 0)

    out["trust.fit_s"], fits = t.inclusive_s(_TRAINERS)
    out["trust.fit_calls"] = fits
    out["trust.gd_iters"] = rec.counters.get("trust.gd_iters", 0)
    out["trust.converged_frac"] = rec.counters.get("trust.converged", 0) / fits if fits else 0.0

    out["conformal.calib_s"], _ = t.inclusive_s(["conformal.CalibrationScores.__init__"])
    out["conformal.ipv_s"], _ = t.inclusive_s(["conformal.i_adjusted_pvalues", "conformal.i_adjusted_pvalue"])
    out["conformal.ipv_units"] = rec.counters.get("conformal.ipv_units", 0)
    out["conformal.radius_s"], _ = t.inclusive_s(["conformal.CalibrationScores.score_radius"])
    out["selection.pvalue_s"], _ = t.inclusive_s(["selection.generalized_conformal_pvalues"])
    out["selection.bh_s"], _ = t.inclusive_s(["selection.bh_select"])
    units = rec.counters.get("selection.units", 0)
    selected = rec.counters.get("selection.selected", 0)
    out["selection.units"] = units
    out["selection.selected"] = selected
    out["selection.select_ratio"] = selected / units if units else 0.0

    for layer in ("simgen", "experiments"):
        out[f"{layer}.self_s"] = float(t.self_time[t.layer(layer)].sum())
    # every replication span is nested in a run_experiment span: traced calls run at jobs = 1
    run_s, _ = t.inclusive_s(["cli.run_experiment"])
    out["cli.self_s"] = run_s - float(t.dur[t.mask(_is_op_name)].sum())

    for layer in LAYERS:
        out[f"{layer}.errors"] = int((t.err & t.layer(layer)).sum())
    return out


def op_durations(rec: Recorder) -> np.ndarray:
    """Durations (s) of the op spans, in recording order."""
    t = SpanTable(rec)
    return t.dur[t.mask(_is_op_name)]


def _is_op_name(name: str) -> bool:
    layer, _, fn = name.partition(".")
    return layer == "experiments" and fn in OP_FUNCTIONS
