"""Spans around the public functions of each shardgraph layer.

The benchmark wraps the functions from outside; shardgraph itself records
nothing. `instrument` replaces a function at every import site in the
package (a module attribute bound to the same function object), because
calls go through those bindings: `profitability.plan` also runs as
`transform.plan` and as the re-plan inside `simulator.cost`, and
`redundancy.analyze` as `profitability.analyze`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

# (module, function, span name). The layer is the span name's first part.
TRACED = (
    ("generators", "gen_module", "generators.gen_module"),
    ("textfmt", "parse_module", "textfmt.parse"),
    ("textfmt", "print_module", "textfmt.print"),
    ("verify", "verify", "verify.verify"),
    ("redundancy", "analyze", "redundancy.analyze"),
    ("profitability", "plan", "profitability.plan"),
    ("profitability", "find_clusters", "profitability.find_clusters"),
    ("profitability", "evaluate", "profitability.evaluate"),
    ("profitability", "cluster_io_bytes", "profitability.cluster_io_bytes"),
    ("transform", "apply", "transform.apply"),
    ("transform", "demote_allgather_precision", "transform.demote"),
    ("transform", "batch_collectives", "transform.batch"),
    ("transform", "memory_plan_for", "transform.memory_plan"),
    ("simulator", "cost", "simulator.cost"),
    ("simulator", "run", "simulator.run"),
    ("cli", "random_inputs", "cli.random_inputs"),
)
LAYERS = tuple(dict.fromkeys(span.split(".")[0] for _, _, span in TRACED))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    unit: int  # the op or set-up the span belongs to


class Tracer:
    """Spans kept in memory, plus exceptions raised per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.unit = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.unit))
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            layer = name.split(".")[0]
            if layer in self.errors:
                self.errors[layer] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per unit and span name, the summed self time: a span's duration
        minus the time its children cover. A span under a `phase.<p>` span
        is also counted as `<name>.<p>`."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            own = s.end - s.start - child_time[i]
            unit = out.setdefault(s.unit, {})
            unit[s.name] = unit.get(s.name, 0.0) + own
            phase = self._phase_of(s)
            if phase:
                key = f"{s.name}.{phase}"
                unit[key] = unit.get(key, 0.0) + own
        return out

    def total_times(self, name: str) -> dict[int, float]:
        """Per unit, the summed duration of the spans called `name`."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.unit] = out.get(s.unit, 0.0) + s.end - s.start
        return out

    def _phase_of(self, s: Span) -> str | None:
        while s.parent is not None:
            s = self.spans[s.parent]
            if s.name.startswith("phase."):
                return s.name[len("phase."):]
        return None

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "unit": s.unit}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "errors": self.errors}) + "\n")


class NullTracer:
    """The untraced run: phase spans cost one call each."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced function through a span while the block runs."""
    package = [m for n, m in list(sys.modules.items()) if n == "shardgraph" or n.startswith("shardgraph.")]
    patched = []
    for mod_name, fn_name, span_name in TRACED:
        orig = getattr(importlib.import_module(f"shardgraph.{mod_name}"), fn_name)
        wrapper = _wrap(orig, span_name, tracer)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, orig))
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
