"""Spans around the public functions of every softmaxopt module.

``Tracer.install`` replaces each public function of the package, and the
load/save methods of ``ProblemInstance``, with a wrapper that records a span
(name, start, end, parent).  The wrapper is bound wherever a module holds the
function by name (``newton.hessian_total`` as well as
``calculus.hessian_total``) and in module-level dicts of functions such as
the verify suite's check table.  Spans stay in memory until ``fold`` turns
them into per-name call counts, inclusive time and self time, where a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "softmaxopt"
MODULES = ("cli", "model", "calculus", "newton", "planted", "verify", "landscape", "nce", "suite")
IO_METHODS = ("save", "load")  # ProblemInstance instance JSON I/O


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index) per call, in call order
        self.stack = []
        self.totals = {}  # name -> [calls, inclusive seconds, self seconds]
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if own and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        cls = sys.modules[f"{PACKAGE}.model"].ProblemInstance
        for attr in IO_METHODS:
            raw = vars(cls)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(f"model.ProblemInstance.{attr}", fn)
            self._set(cls, attr, raw, classmethod(wrapper) if is_classmethod else wrapper)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, obj, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]
                            self._restore.append((obj.__setitem__, key, val))

    def _set(self, target, attr, original, replacement) -> None:
        setattr(target, attr, replacement)
        self._restore.append((lambda k, v, t=target: setattr(t, k, v), attr, original))

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def fold(self) -> None:
        """Add the spans recorded so far to the per-name totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        spans.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def module_self_time(self, short: str) -> float:
        return sum(agg[2] for name, agg in self.totals.items() if name.startswith(short + "."))
