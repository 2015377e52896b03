"""Span tracer for the traced run.

``Tracer.install`` wraps each public function of gravclock's six modules,
and each public class- or staticmethod of their classes, and rebinds every
module-level name (and every module-level dict entry) that refers to the
original, so calls made inside gravclock are seen too: ``experiments`` calls
``analytic.spectrum`` through its own imported name, and ``cli.main``
reaches the ``cmd_*`` functions through a dict.  Spans (name, start, end,
parent, operation, pass) stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("model", "analytic", "numerics", "experiments", "serialize", "cli")

# serialize.fmt17 formats one number and runs once per value written (about
# half a million times per `figures` run); a span per call would cost more
# than the call.  Its time stays in the self time of write_csv / dump_json.
UNTRACED = frozenset({"serialize.fmt17"})

# Span-name prefix whose spans add up to model.density_build.
DENSITY_BUILD = "model.HeightDensity."


def _count_oracle(counts, args, kwargs, run) -> None:
    steps = len(run.times) - 1
    counts["numerics.oracle.modes"] += run.grid.n_modes
    counts["numerics.oracle.steps"] += steps
    counts["numerics.oracle.mode_steps"] += run.grid.n_modes * steps
    counts["numerics.oracle.unitarity_defect_max"] = max(
        counts["numerics.oracle.unitarity_defect_max"],
        run.max_unitarity_defect)


def _count_points(counts, args, kwargs, result) -> None:
    counts["analytic.spectrum.points"] += len(result.nu_grid)


def _count_bytes(name):
    def hook(counts, args, kwargs, result) -> None:
        counts[f"{name}.bytes"] += os.path.getsize(args[0])
    return hook


# Counters read at span boundaries, from arguments and results.
HOOKS = {"numerics.ww_simulate": _count_oracle,
         "analytic.spectrum": _count_points,
         "serialize.write_csv": _count_bytes("serialize.write_csv"),
         "serialize.dump_json": _count_bytes("serialize.dump_json")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index, operation, pass]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.pass_no = -1
        self._pass_start: dict[int, int] = {}
        self.counts: dict[int, defaultdict] = {}
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def begin_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self._pass_start[pass_no] = len(self.spans)
        self.counts[pass_no] = defaultdict(float)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   tracer.pass_no]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None and tracer.pass_no in tracer.counts:
                hook(tracer.counts[tracer.pass_no], args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        wrapped: dict[int, tuple] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class_methods(layer, obj)
                elif callable(obj) and f"{layer}.{attr}" not in UNTRACED:
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}",
                                                       obj))
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])
                    self._undo.append((setattr, mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            obj[key] = wrapped[id(val)][1]
                            self._undo.append((dict.__setitem__, obj, key,
                                               val))

    def _wrap_class_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or \
                    not isinstance(raw, (classmethod, staticmethod)):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            self._undo.append((setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- summaries -----------------------------------------------------------

    def summary(self, pass_no: int, wall_s: float) -> dict[str, float]:
        """Calls, busy time (outermost spans only) and self time per span
        name, self time per layer, and the counters, for one pass."""
        spans = self.spans
        lo = self._pass_start[pass_no]
        hi = next((self._pass_start[p] for p in sorted(self._pass_start)
                   if p > pass_no), len(spans))
        child = defaultdict(float)
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= 0:
                child[parent] += spans[i][2] - spans[i][1]
        out: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            nid, start, end, parent = spans[i][:4]
            name = self.names[nid]
            dur = end - start
            own = dur - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"layer.{name.split('.')[0]}.self_s"] += own
            ancestors = self._ancestor_names(parent)
            if name not in ancestors:
                out[f"{name}.busy_s"] += dur
            if name.startswith(DENSITY_BUILD) and \
                    not any(a.startswith(DENSITY_BUILD) for a in ancestors):
                out["model.density_build.busy_s"] += dur
        out.update(self.counts.get(pass_no, {}))
        accounted = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS)
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - accounted
        out["trace.spans"] = hi - lo
        return dict(out)

    def _ancestor_names(self, index: int) -> set[str]:
        names = set()
        while index >= 0:
            names.add(self.names[self.spans[index][0]])
            index = self.spans[index][3]
        return names

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op",
                                  "pass"],
                       "names": self.names, "spans": self.spans}, fh)
