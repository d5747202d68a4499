"""Per-layer tracing from outside the program.

The tracer replaces module attributes that callers look up at call time
(``engine.enumerate_classes``, ``kernels_numpy.perm_table``, ...) with
wrappers.  "Span" hooks record one span per call, with its parent span and
the CLI request it belongs to.  "Hot" hooks, for functions called tens of
thousands of times, only add up calls and time, to keep the overhead small.
Each hook charges its duration to the enclosing span, so a span's self time
is its duration minus its children's, and the self times of all hooks add up
to the duration of the root ``cli.main`` spans.

A hook whose module or function no longer exists is reported as absent; the
program can drop or rename functions without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from math import factorial


HOOKS = (
    # (module, attribute, kind, {counter: function of the return value})
    ("permclass.cli", "main", "span", {}),
    ("permclass.engine", "enumerate_classes", "span",
     {"ranks": lambda r: factorial(r.n), "classes": lambda r: r.num_classes}),
    ("permclass.engine", "build_tables", "span", {}),
    ("permclass.engine", "count_avoiders", "span", {}),
    ("permclass.engine", "class_of", "span", {"states": len}),
    ("permclass.engine.kernels_numpy", "perm_table", "span",
     {"bytes_computed": lambda r: r.nbytes}),
    ("permclass.engine.kernels_numpy", "factor_edges", "span", {"edges": lambda r: len(r[0])}),
    ("permclass.engine.kernels_numpy", "subword_edges", "span", {"edges": lambda r: len(r[0])}),
    ("permclass.engine.kernels_numpy", "connected_class_ids", "span",
     {"classes": lambda r: r[1]}),
    ("permclass.engine.kernels_numpy", "count_banned_avoiders", "span", {}),
    ("permclass.meta", "stooge_sets", "span", {}),
    ("permclass.meta", "avoider_criterion", "span", {}),
    ("permclass.oracle", "expected_count", "hot", {}),
    ("permclass.relation", "neighbors", "hot", {"transformations": len}),
    ("permclass.relation", "is_lefted", "hot", {}),
    ("permclass.relation", "is_righted", "hot", {}),
    ("permclass.relation", "is_middled", "hot", {}),
    ("permclass.perms", "unrank", "hot", {}),
)


def hook_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('permclass.')}.{attr}"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class Totals:
    """What one hook added up over a child process."""

    layer: str
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.totals: dict[str, Totals] = {}
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._requests = 0
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, kind, counters in self.hooks:
            name = hook_name(module, attr)
            try:
                mod = importlib.import_module(module)
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            layer = getattr(fn, "__module__", module).removeprefix("permclass.")
            self.totals[name] = Totals(layer=layer)
            wrap = self._span if kind == "span" else self._hot
            setattr(mod, attr, wrap(name, fn, counters))
            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    @staticmethod
    def _count(counters, result, into: dict) -> None:
        for key, fn in counters.items():
            try:
                value = int(fn(result))
            except (TypeError, IndexError, AttributeError):
                continue  # the function's return type changed; the counter stays 0
            into[key] = into.get(key, 0) + value

    def _span(self, name, fn, counters):
        totals = self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._requests += 1
            self._next_id += 1
            span = Span(self._next_id, name, None if parent is None else parent.id,
                        self._requests, time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                self._count(counters, result, span.counters)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                dur = span.end - span.start
                if parent is not None:
                    parent.child_s += dur
                totals.calls += 1
                totals.s += dur
                totals.self_s += dur - span.child_s
                for key, value in span.counters.items():
                    totals.counters[key] = totals.counters.get(key, 0) + value
                self.spans.append(span)

        return wrapper

    def _hot(self, name, fn, counters):
        totals = self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                self._count(counters, result, totals.counters)
                return result
            finally:
                dur = time.perf_counter() - t0
                totals.calls += 1
                totals.s += dur
                totals.self_s += dur
                if self._stack:
                    self._stack[-1].child_s += dur

        return wrapper

    def report(self) -> dict:
        """Per-hook totals, per-layer self time and the absent hooks."""
        hooks = {}
        layers: dict[str, float] = {}
        for module, attr, _, names in self.hooks:
            name = hook_name(module, attr)
            t = self.totals.get(name)
            counters = dict.fromkeys(names, 0)
            if t is not None:
                counters.update(t.counters)
                layers[t.layer] = layers.get(t.layer, 0.0) + t.self_s
            hooks[name] = {
                "calls": 0 if t is None else t.calls,
                "s": 0.0 if t is None else t.s,
                "self_s": 0.0 if t is None else t.self_s,
                **counters,
            }
        return {
            "hooks": hooks,
            "layers": layers,
            "absent": list(self.absent),
            "requests": self._requests,
            "spans": [
                [s.id, s.parent, s.request, s.name, round(s.end - s.start, 6)]
                for s in self.spans
            ],
        }
