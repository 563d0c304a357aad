"""Per-layer tracing by wrapping the program's public functions from outside.

Every function listed in a module's ``__all__`` is replaced, in every
``volterrabound`` namespace that binds it, by a wrapper that records a
span (operation, name, start, end, parent, self time).  ``evaluate`` is
called up to ~10^5 times per operation, and the recursive ``to_text`` and
``variables`` up to ~10^4 times, so their calls are aggregated into
counters and into the enclosing span's child time instead of being kept
one by one.  Nothing inside the program changes; ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("expr", "model", "solver", "certificate", "comparison", "cli", "ioutil")
# Recursive tree walkers, called once per EvalDomainError among others:
# counted and timed at the outermost call, without spans.
COUNTED_ONLY = ("expr.to_text", "expr.variables")


class _Frame:
    __slots__ = ("span", "child_s", "array_calls")

    def __init__(self, span):
        self.span = span
        self.child_s = 0.0
        self.array_calls = 0


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, start, end, parent, self_s]
        self.stats = defaultdict(float)
        self.op = None
        self.per_op = []  # one dict of derived figures per traced operation
        self._stack = []
        self._patched = []

    # -- installation --------------------------------------------------

    def install(self):
        package = importlib.import_module("volterrabound")
        modules = [package] + [importlib.import_module(f"volterrabound.{m}") for m in LAYERS]
        domain_error = importlib.import_module("volterrabound.expr").EvalDomainError
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"volterrabound.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    label = f"{layer}.{name}"
                    if label == "expr.evaluate":
                        wrappers[fn] = self._wrap_evaluate(fn, domain_error)
                    elif label in COUNTED_ONLY:
                        wrappers[fn] = self._wrap_counted(label, fn)
                    else:
                        wrappers[fn] = self._wrap(label, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1].span if stack else None
            span = len(tracer.spans)
            tracer.spans.append(None)
            frame = _Frame(span)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1].child_s += duration
                self_s = duration - frame.child_s
                tracer.spans[span] = [tracer.op, label, start, end, parent, self_s]
                stats = tracer.stats
                stats[f"{label}_s"] += duration
                stats[f"{label}.self_s"] += self_s
                stats[f"{label}.calls"] += 1
                stats[f"{label}.array_calls"] += frame.array_calls
            tracer._observe(label, args, result)
            return result

        return wrapper

    def _wrap_counted(self, label, fn):
        tracer = self
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                duration = perf_counter() - start
                if tracer._stack:
                    tracer._stack[-1].child_s += duration
                tracer.stats[f"{label}_s"] += duration
                tracer.stats[f"{label}.calls"] += 1

        return wrapper

    def _wrap_evaluate(self, fn, domain_error):
        tracer = self

        @functools.wraps(fn)
        def evaluate(e, bindings):
            is_array = any(isinstance(v, np.ndarray) for v in bindings.values())
            stats = tracer.stats
            start = perf_counter()
            try:
                result = fn(e, bindings)
            except domain_error:
                stats["expr.evaluate.domain_errors"] += 1
                raise
            finally:
                duration = perf_counter() - start
                stack = tracer._stack
                if stack:
                    stack[-1].child_s += duration
                if is_array:
                    stats["expr.evaluate.array_calls"] += 1
                    stats["expr.evaluate.array_s"] += duration
                    if stack:
                        stack[-1].array_calls += 1
                else:
                    stats["expr.evaluate.scalar_calls"] += 1
                    stats["expr.evaluate.scalar_s"] += duration
            if is_array:
                stats["expr.evaluate.array_elems"] += np.size(result)
            return result

        return evaluate

    def _observe(self, label, args, result):
        """Figures read off return values: trajectory nodes, RK4 steps,
        bytes written, and the certified bound over the majorant."""
        stats = self.stats
        if label == "solver.solve":
            stats["solver.solve.nodes"] += len(result.values)
        elif label == "comparison.propagate_majorant":
            stats["comparison.propagate_majorant.steps"] += len(result.values) - 1
            self._current()["majorant_end"] = (float(result.times()[-1]), float(result.values[-1]))
        elif label == "certificate.search_exponential" and result.certified:
            self._current()["certificate"] = result
        elif label == "ioutil.write_text_atomic":
            stats["ioutil.bytes_written"] += len(args[1].encode())

    def _current(self):
        if not self.per_op or self.per_op[-1]["op"] != self.op:
            self.per_op.append({"op": self.op})
        return self.per_op[-1]

    # -- results ---------------------------------------------------------

    def bound_over_majorant(self):
        """Median over operations of bound(t_end) / majorant(t_end)."""
        ratios = []
        for entry in self.per_op:
            if "certificate" in entry and "majorant_end" in entry:
                t_end, g = entry["majorant_end"]
                ratios.append(float(entry["certificate"].bound_values([t_end])[0]) / g)
        return float(np.median(ratios)) if ratios else 0.0

    def span_rows(self):
        return {
            "fields": ["op", "name", "start", "end", "parent", "self_s"],
            "spans": [span for span in self.spans if span is not None],
        }
