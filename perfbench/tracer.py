"""Per-layer spans for the benchmark's traced run, installed from outside.

The tracer wraps the package's public functions at every site that holds
them (the defining module, modules that imported them by name and the
package namespace) plus three methods on ``expkant.core`` classes, and
restores the originals on ``uninstall``.  Spans stay in memory with the op
id and the parent span; ``write`` puts them out as JSON lines at the end.
Work counts are computed from the call arguments; the time spent counting
is kept out of every span's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

_BYTES_PER_VALUE = 8  # one float64 per (phase, node) pair or quadrature node


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_mean_values(args, kwargs):
    from expkant.operator import QuadratureSpec

    quad = _arg(args, kwargs, 5, "quad", QuadratureSpec())
    return {"cells": max(0, int(args[2]) - int(args[1]) + 1),
            "nodes": quad.nodes, "max_levels": quad.max_doublings + 1}


def _count_pairs(args, kwargs):
    from expkant import backend

    y = np.atleast_1d(np.asarray(args[0], dtype=float))
    t = np.asarray(args[1], dtype=float)
    pairs = y.size * t.size
    kind, order = args[3], args[4]
    if kind == backend.KIND_BSPLINE and pairs:
        radius = 0.5 * (order + 1)
        ts = t if np.all(np.diff(t) >= 0) else np.sort(t)
        useful = int(np.sum(np.searchsorted(ts, y + radius, "left")
                            - np.searchsorted(ts, y - radius, "right")))
    else:
        useful = pairs  # the Fejer profile is nonzero almost everywhere
    return {"pairs": pairs, "useful": useful}


def _count_points(args, kwargs):
    return {"points": int(np.size(args[1]))}


def _count_response(args, kwargs):
    return {"values": int(np.size(args[2]))}


def _count_modular_error(args, kwargs):
    # the integrand runs on n_points and on 2 * n_points abscissae
    return {"points": 3 * int(_arg(args, kwargs, 5, "n_points", 8192))}


# (module, attribute, span name, counter)
FUNCTIONS = (
    ("expkant.experiments", "run", "experiments.run", None),
    ("expkant.operator", "mean_values", "operator.mean_values",
     _count_mean_values),
    ("expkant.operator", "eval_kantorovich", "operator.eval_kantorovich", None),
    ("expkant.operator", "sup_error", "operator.sup_error", None),
    ("expkant.operator", "eval_on_log_grid", "operator.eval_on_log_grid", None),
    ("expkant.backend", "weighted_series_sum", "backend.weighted_series_sum",
     _count_pairs),
    ("expkant.backend", "phase_weighted_sum", "backend.phase_weighted_sum",
     _count_pairs),
    ("expkant.moments", "moment_value", "moments.moment_value", None),
    ("expkant.moments", "discrete_moment", "moments.discrete_moment", None),
    ("expkant.moments", "partition_bounds", "moments.partition_bounds", None),
    ("expkant.moments", "check_L3", "moments.check_L3", None),
    ("expkant.moments", "tail_sum", "moments.tail_sum", None),
    ("expkant.moments", "chi4_functionals", "moments.chi4", None),
    ("expkant.moments", "check_chi4", "moments.chi4", None),
    ("expkant.moments", "check_chi4_star", "moments.chi4", None),
    ("expkant.moments", "check_e3_1", "moments.check_e3_1", None),
    ("expkant.modular", "modular_error", "modular.modular_error",
     _count_modular_error),
    ("expkant.modular", "modular", "modular.modular", None),
    ("expkant.modular", "log_smoothness", "modular.log_smoothness", None),
    ("expkant.modular", "check_H", "modular.check_H", None),
    ("expkant.mellin", "voronovskaja_experiment",
     "mellin.voronovskaja_experiment", None),
    ("expkant.mellin", "mellin_derivative", "mellin.mellin_derivative", None),
    ("expkant.moduli", "log_modulus", "moduli.log_modulus", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("expkant.core", "Signal", "log_evaluate", "core.signal", _count_points),
    ("expkant.core", "Signal", "__call__", "core.signal", _count_points),
    ("expkant.core", "ResponseFamily", "__call__", "core.response",
     _count_response),
)

# span record fields
ID, PARENT, OP, NAME, START, END, SELF, COUNTS = range(8)


class Tracer:
    """Installs the spans; ``op`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []  # [record, time covered by children]
        self._undo: list = []

    def _wrap(self, fn, name: str, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            c0 = clock()
            rec = [len(spans), stack[-1][0][ID] if stack else -1, tracer.op,
                   name, 0.0, 0.0, 0.0,
                   count(args, kwargs) if count is not None else None]
            spans.append(rec)
            frame = [rec, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[START], rec[END] = t0, t1
                rec[SELF] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - c0

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import expkant  # noqa: F401  (loads every submodule)

        sites = [m for n, m in sys.modules.items()
                 if n == "expkant" or n.startswith("expkant.")]
        for modname, attr, name, count in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(orig, name, count)
            for mod in sites:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for modname, clsname, attr, name, count in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name, count))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "op": rec[OP],
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "self_s": rec[SELF], "counts": rec[COUNTS]}) + "\n")


def layer_metrics(spans: list, n_ops: int, max_terms: int) -> tuple:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops, and the
    largest working set one op computed, in bytes."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(rec)

    def per_op(x):
        return float(x) / n_ops

    def total(name, field=None):
        recs = by_name.get(name, ())
        if field is None:
            return sum(rec[SELF] for rec in recs)
        return sum(rec[COUNTS][field] for rec in recs)

    out = {}

    def layer(name, calls=True, self_s=True):
        if calls:
            out[f"{name}.calls"] = per_op(len(by_name.get(name, ())))
        if self_s:
            out[f"{name}.self_s"] = per_op(total(name))

    # Steklov quadrature: levels are the signal evaluations directly inside
    # one mean_values call
    mv = by_name.get("operator.mean_values", [])
    levels = [sum(1 for c in children[rec[ID]] if c[NAME] == "core.signal")
              for rec in mv]
    layer("operator.mean_values")
    out["operator.mean_values.cells"] = per_op(total("operator.mean_values",
                                                     "cells"))
    out["operator.mean_values.levels_mean"] = (
        float(np.mean(levels)) if levels else 0.0)
    out["operator.mean_values.levels_capped"] = per_op(sum(
        1 for rec, lv in zip(mv, levels) if lv == rec[COUNTS]["max_levels"]))
    working_set = max(
        [rec[COUNTS]["cells"] * rec[COUNTS]["nodes"] * 2 ** max(lv - 1, 0)
         * _BYTES_PER_VALUE for rec, lv in zip(mv, levels)] or [0])

    # points only at the outermost signal span (random bumps nest)
    sig_ids = {rec[ID] for rec in by_name.get("core.signal", ())}
    out["core.signal.points"] = per_op(sum(
        rec[COUNTS]["points"] for rec in by_name.get("core.signal", ())
        if rec[PARENT] not in sig_ids))
    out["core.signal.self_s"] = per_op(total("core.signal"))

    entries = {rec[ID] for name in ("operator.eval_kantorovich",
                                    "operator.eval_on_log_grid")
               for rec in by_name.get(name, ())}
    retained = [rec[COUNTS]["cells"] for rec in mv if rec[PARENT] in entries]
    out["operator.retained_terms"] = per_op(sum(retained))
    out["operator.cap_hits"] = per_op(sum(1 for c in retained
                                          if c >= max_terms))

    for name in ("backend.weighted_series_sum", "backend.phase_weighted_sum"):
        layer(name)
        pairs = total(name, "pairs")
        out[f"{name}.pairs"] = per_op(pairs)
        out[f"{name}.useful_ratio"] = (float(total(name, "useful")) / pairs
                                       if pairs else 0.0)
        out[f"{name}.bytes_computed"] = per_op(pairs * _BYTES_PER_VALUE)
    layer("operator.eval_on_log_grid")

    for name in ("discrete_moment", "partition_bounds", "check_L3",
                 "tail_sum", "chi4", "check_e3_1"):
        layer(f"moments.{name}", calls=False)
    # a lookup computes the moment (a discrete_moment child) only on a miss
    lookups = by_name.get("moments.moment_value", [])
    out["moments.moment_value.calls"] = per_op(len(lookups))
    hits = sum(1 for rec in lookups
               if not any(c[NAME] == "moments.discrete_moment"
                          for c in children[rec[ID]]))
    out["moments.moment_cache.hit_ratio"] = (hits / len(lookups)
                                             if lookups else 0.0)

    for name in ("modular_error", "modular", "log_smoothness", "check_H"):
        layer(f"modular.{name}", calls=False)
    out["modular.modular_error.points"] = per_op(
        total("modular.modular_error", "points"))

    layer("operator.eval_kantorovich")
    layer("operator.sup_error", calls=False)
    layer("mellin.voronovskaja_experiment", calls=False)
    layer("mellin.mellin_derivative", self_s=False)
    layer("moduli.log_modulus")
    out["core.response.values"] = per_op(total("core.response", "values"))
    out["core.response.self_s"] = per_op(total("core.response"))
    layer("experiments.run", calls=False)
    return out, working_set
