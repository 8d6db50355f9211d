"""Per-layer tracing of cubefill from outside the package.

``Tracer.install`` replaces every public function, public method and
constructor of the layer modules with a timing wrapper, in every module
namespace that holds it by name, so calls between modules are caught as
well as calls from the benchmark.  Coarse calls are recorded as spans
(name, start, end, parent); hot face-level calls only add to per-name
accumulators, so memory stays bounded however many faces a run touches.
A call's self time is its duration minus the time its traced children
cover.  The wrappers' own cost is measured on a no-op function (again
before each traced pass, as CPU speed drifts) and taken out of self and
inclusive times, so that hot callables with millions of calls do not push
their wrappers' cost into their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import Counter

LAYERS = ("faces", "chains", "chainfile", "filling", "minimizers", "cli")

# Operators that make up the chain and face algebra, traced like methods.
DUNDERS = ("__init__", "__lt__", "__add__")

# Face-level callables run per face, and constructors per object: they add
# to accumulators only, with no span per call.
HOT_MODULES = ("faces",)

MAX_SPANS = 200_000


def _slice_faces(args, result, counters):
    counters["chains.Chain.slice.faces"] += len(args[0].support)


def _written_bytes(args, result, counters):
    counters["chainfile.write_chain.bytes"] += os.path.getsize(args[1])


def _exact_nodes(args, result, counters):
    counters["filling.exact_fill.nodes"] += result.nodes_explored
    counters["filling.exact_fill.optimal"] += result.optimal


# Counts taken where the work happens, beside calls and self time.
HOOKS = {
    "chains.Chain.slice": _slice_faces,
    "chainfile.write_chain": _written_bytes,
    "filling.exact_fill": _exact_nodes,
}


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self seconds, outermost inclusive seconds, active depth]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # frame: [span id, seconds its children cover, traced descendants]
        self._stack: list[list] = [[None, 0.0, 0]]
        self._patched: list[tuple] = []
        # wrapper cost per call inside and outside the timed window
        self.cost_inside = self.cost_outside = 0.0

    def wrap(self, name: str, fn, span: bool = True):
        module, _, _ = name.partition(".")
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        span = span and module not in HOT_MODULES
        hook = HOOKS.get(name)
        stack, spans, counters, clock = self._stack, self.spans, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            frame = [None, 0.0, 0]
            if span:
                if len(spans) < MAX_SPANS:
                    frame[0] = len(spans)
                    spans.append(None)
                else:
                    self.dropped_spans += 1
            parent = stack[-1][0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                inside, outside = self.cost_inside, self.cost_outside
                inclusive = duration - inside - frame[2] * (inside + outside)
                stat[0] += 1
                stat[1] += duration - frame[1] - inside
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += inclusive
                caller = stack[-1]
                caller[1] += duration + outside
                caller[2] += 1 + frame[2]
                if frame[0] is not None:
                    spans[frame[0]] = (frame[0], parent, name, start, end)
            if hook is not None:
                hook(args, result, counters)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def calibrate(self, rounds: int = 30, calls: int = 1000) -> None:
        """Measure the cost per call of a span-less wrapper, the kind hot
        callables get, on a two-argument no-op; bare and wrapped calls
        alternate so that both see the same CPU speed."""
        def noop(a, b):
            pass

        probe = Tracer()
        wrapped = probe.wrap("probe.noop", noop, span=False)
        stat = probe.stats["probe.noop"]
        inside, overhead = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                noop(1, 2)
            bare = time.perf_counter() - start
            recorded = stat[1]
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            total = time.perf_counter() - start
            inside.append((stat[1] - recorded - bare) / calls)
            overhead.append((total - bare) / calls)
        self.cost_inside = max(statistics.median(inside), 0.0)
        self.cost_outside = max(statistics.median(overhead) - self.cost_inside, 0.0)

    def install(self, package) -> None:
        """Wrap the public API of every layer module of ``package``."""
        self.calibrate()
        layers = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        modules = [package, package.constants, *layers.values()]
        replaced: dict[int, object] = {}
        for layer, module in layers.items():
            public = getattr(module, "__all__", None) or [
                n for n, v in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
            ]
            for attr in public:
                value = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isclass(value):
                    self._wrap_class(name, value)
                elif callable(value):
                    replaced[id(value)] = self.wrap(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, name: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            label = name if attr == "__init__" else f"{name}.{attr}"
            if isinstance(value, classmethod):
                wrapper = classmethod(self.wrap(label, value.__func__))
            elif inspect.isfunction(value):
                wrapper = self.wrap(label, value, span=attr != "__init__")
            else:
                continue
            self._patched.append((cls, attr, value))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON data."""
        return {
            "stats": {k: v[:3] for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [s for s in self.spans if s is not None],
            "dropped_spans": self.dropped_spans,
        }

    def merge(self, data: dict) -> None:
        """Add a snapshot taken in another process (a CLI child)."""
        for name, (calls, self_s, incl_s) in data["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            stat[0] += calls
            stat[1] += self_s
            stat[2] += incl_s
        self.counters.update(data["counters"])
        self.dropped_spans += data["dropped_spans"]
        offset = len(self.spans)
        for sid, parent, name, start, end in data["spans"]:
            if len(self.spans) >= MAX_SPANS:
                self.dropped_spans += 1
                continue
            parent = None if parent is None else parent + offset
            self.spans.append((sid + offset, parent, name, start, end))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                if record is not None:
                    handle.write(json.dumps(record) + "\n")
