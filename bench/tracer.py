"""Span tracing of the normrisk modules from outside the program.

`Tracer.install` wraps every public function of each module (the layers
numerics, parametric, kernels, bandwidth, case_studies and cli) and puts
the wrapper in place of the original in every module namespace that
imports it, so calls between modules are traced too.  Each call records a
span: name, start, end and the span that called it, plus the GK15 work
done inside it.  `integrate` also wraps its integrand, to count calls on
15-node arrays (panels) and on single points (the per-point fallback of
``numerics._vectorized``), and `minimize_scalar` adds up its iterations.

Spans stay in memory until `dump` writes them out; `summarize` turns the
spans files of a round into per-name totals and the self time of each layer.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("numerics", "parametric", "kernels", "bandwidth", "case_studies", "cli")

# fields of one span in the flat record array: the panel counter is read
# at both ends, so a span knows the GK15 panels evaluated inside it
_NAME, _START, _END, _PARENT, _PANELS0, _PANELS1 = range(6)
_FIELDS = 6


def _span_label(name: str, args: tuple) -> str:
    # real_mise_exact is reported per kernel: the two kernels differ in cost
    if name == "bandwidth.real_mise_exact":
        return f"{name}.{args[0].kernel.name}"
    return name


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.records = array("q")
        self._stack: list[int] = []
        self.panels = 0
        self.points = 0
        self.iterations = 0

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, fn, name: str):
        tracer = self
        records = self.records
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(records) // _FIELDS
            records.extend(
                (tracer._name_id(_span_label(name, args)), 0, 0,
                 stack[-1] if stack else -1, tracer.panels, 0)
            )
            stack.append(span)
            base = span * _FIELDS
            records[base + _START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                records[base + _END] = clock()
                stack.pop()
                records[base + _PANELS1] = tracer.panels

        traced.__wrapped__ = fn
        return traced

    def _counting(self, f):
        tracer = self

        def integrand(x):
            if np.ndim(x) == 0:
                tracer.points += 1
            else:
                tracer.panels += 1
            return f(x)

        return integrand

    def install(self) -> None:
        modules = [sys.modules[f"normrisk.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module, layer in zip(modules, LAYERS):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if attr == "integrate":
                    obj = self._counted_integrate(obj)
                elif attr == "minimize_scalar":
                    obj = self._counted_minimize(obj)
                wrappers[id(module.__dict__[attr])] = self._wrap(obj, f"{layer}.{attr}")
        for module in [sys.modules["normrisk"], *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    setattr(module, attr, wrappers[id(obj)])

    def _counted_integrate(self, integrate):
        def counted(f, *args, **kwargs):
            return integrate(self._counting(f), *args, **kwargs)

        return counted

    def _counted_minimize(self, minimize_scalar):
        def counted(*args, **kwargs):
            result = minimize_scalar(*args, **kwargs)
            self.iterations += result.iterations
            return result

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": _FIELDS,
                    "records": self.records.tolist(),
                    "counters": {
                        "panels": self.panels,
                        "points": self.points,
                        "minimize_iterations": self.iterations,
                    },
                },
                fh,
            )


def summarize(paths: list[str]) -> dict:
    """Merge spans files: per-name calls, total and self ns, durations and
    GK15 work; the self ns of each layer; and the work counters."""
    per_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    counters: dict[str, int] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, rec, k = data["names"], data["records"], data["fields"]
        count = len(rec) // k
        child_ns = [0] * count
        for i in range(count):
            parent = rec[i * k + _PARENT]
            if parent >= 0:
                child_ns[parent] += rec[i * k + _END] - rec[i * k + _START]
        for i in range(count):
            b = i * k
            name = names[rec[b + _NAME]]
            dur = rec[b + _END] - rec[b + _START]
            own = dur - child_ns[i]
            entry = per_name.setdefault(name, new_entry())
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += own
            entry["durations_ns"].append(dur)
            if not _inside_same_name(rec, k, i):
                # work inside a nested span of the same name is already counted
                entry["panels"] += rec[b + _PANELS1] - rec[b + _PANELS0]
            layer_self[name.split(".")[0]] += own
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"names": per_name, "layer_self_ns": layer_self, "counters": counters}


def new_entry() -> dict:
    return {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": [], "panels": 0}


def _inside_same_name(rec: list, k: int, span: int) -> bool:
    name = rec[span * k + _NAME]
    parent = rec[span * k + _PARENT]
    while parent >= 0:
        if rec[parent * k + _NAME] == name:
            return True
        parent = rec[parent * k + _PARENT]
    return False
