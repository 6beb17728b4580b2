"""In-memory spans and counters recorded around calls into ``fenceinj``.

Spans are kept in a list and written once, when the run ends.  Each span
holds its name, start and end (``time.monotonic``, which is one clock for
every process on the machine, so spans from CLI subprocesses line up with
the parent's), the id of its parent span and the run id.

``instrument`` wraps public functions at the module attributes through which
``fenceinj`` modules call them, and restores them on exit.  Nothing in
``src/`` is edited.  Hot functions (``decode``, ``compose`` and the two
constructions) get call counters and summed seconds instead of one span per
call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) -> span name; the wrapper is installed wherever the
# original object is bound inside a fenceinj module
SPANNED_FUNCTIONS = {
    ("fenceinj.closure", "close"): "closure.close",
    ("fenceinj.closure", "close_excluding"): "closure.close",
}
COUNTED_FUNCTIONS = {
    ("fenceinj.fence", "decode"): "fence.decode",
    ("fenceinj.fence", "compose"): "fence.compose",
    ("fenceinj.constructions", "parity_reduce"): "constructions.parity_reduce",
    ("fenceinj.constructions", "convex_extend"): "constructions.convex_extend",
}


class Tracer:
    """Spans and counters of one benchmark run; disabled until ``enabled``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "name": name,
                  "start": time.monotonic(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def adopt(self, child_spans: list[dict], parent: int) -> None:
        """Append spans recorded by a subprocess under the span ``parent``."""
        offset = len(self.spans)
        for s in child_spans:
            s = dict(s, id=s["id"] + offset, run=self.run_id,
                     parent=parent if s["parent"] is None else s["parent"] + offset)
            self.spans.append(s)

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "spans": self.spans, "counters": dict(self.counters)}
        path.write_text(json.dumps(doc) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Calls run one at a time, so children never overlap each other.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        stats = result.stats
        tracer.counters["closure.close.calls"] += 1
        tracer.counters["closure.products"] += stats.products
        tracer.counters["closure.levels"] += len(stats.level_sizes)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counters[name + ".s"] += time.perf_counter() - started
            counters[name + ".calls"] += 1
    return wrapper


def _method_wrappers(tracer: Tracer, cls) -> dict:
    save, load, witness_items = cls.save, cls.load.__func__, cls.witness_items

    def traced_save(self, *args, **kwargs):
        with tracer.span("closure.save"):
            return save(self, *args, **kwargs)

    def traced_load(klass, *args, **kwargs):
        with tracer.span("closure.load"):
            return load(klass, *args, **kwargs)

    def traced_witness_items(self):
        # the span runs from the first item to exhaustion, so it includes
        # the consumer's per-item work
        with tracer.span("closure.witness"):
            yield from witness_items(self)

    return {"save": traced_save, "load": classmethod(traced_load),
            "witness_items": traced_witness_items}


@contextmanager
def instrument(tracer: Tracer):
    """Enable the tracer and wrap the traced functions until exit."""
    for module_name in ("fenceinj", "fenceinj.cli"):
        importlib.import_module(module_name)
    from fenceinj.closure import ClosureResult

    modules = [m for name, m in list(sys.modules.items())
               if name == "fenceinj" or name.startswith("fenceinj.")]
    patched: list[tuple[object, str, object]] = []

    def patch(original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    for table, make in ((SPANNED_FUNCTIONS, _spanned), (COUNTED_FUNCTIONS, _counted)):
        for (module_name, attr), name in table.items():
            original = getattr(sys.modules[module_name], attr)
            patch(original, make(tracer, name, original))
    for attr, wrapper in _method_wrappers(tracer, ClosureResult).items():
        patched.append((ClosureResult, attr, vars(ClosureResult)[attr]))
        setattr(ClosureResult, attr, wrapper)

    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = False
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
