"""Spans recorded from the benchmark's side of each layer boundary.

The library is not instrumented for this: :func:`install` wraps the
public methods of each layer's classes, and the module-level functions
at the name their caller looks up, *before* the benchmark builds any
object (bound methods captured at construction, like the WAL's
``append`` handed to ``ConcurrentLTree`` as its journal, then see the
wrapper too).  Every span records its name, start, end, parent span
and the request it belongs to; a call into the layer that is already
innermost is merged into the open span, so a layer's own internal
public calls do not fragment it.  Spans stay in memory and are written
out when the run ends.

Self time of a span is its duration minus its child spans'; a layer's
self time is the sum over its spans.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pstats
from collections import defaultdict
from typing import Any, Callable, Iterable

from perfbench.common import clock

#: (layer, module, class) whose public methods are wrapped
CLASS_TARGETS = (
    ("concurrent.service", "repro.concurrent.service", "ConcurrentDocument"),
    ("concurrent.engine", "repro.concurrent.engine", "ConcurrentLTree"),
    ("concurrent.engine", "repro.concurrent.engine", "LabelSnapshot"),
    ("core.sharded", "repro.core.sharded", "ShardedCompactLTree"),
    ("core.compact", "repro.core.compact", "CompactLTree"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog"),
    ("storage.pages", "repro.storage.pages", "PageStore"),
    ("labeling.scheme", "repro.labeling.scheme", "LabeledDocument"),
    ("query.columnar", "repro.query.columnar", "ColumnarStore"),
    ("query.columnar", "repro.query.columnar", "QuerySession"),
)

#: (layer, module the caller looks the name up in, attribute)
FUNCTION_TARGETS = (
    ("xml", "repro.labeling.scheme", "parse"),
    ("query.xpath", "repro.query", "parse_xpath"),
)

#: generator methods traced per ``next()`` (the others are skipped: a
#: wrapped generator function would only time the generator's creation)
GENERATOR_TARGETS = {("WriteAheadLog", "replay")}

class SpanRecorder:
    """In-memory span store plus the current request."""

    def __init__(self) -> None:
        #: (span_id, parent_id, request_id, layer, name, start, end)
        self.spans: list[tuple] = []
        #: request id -> request kind ("edit", "commit", "query", ...)
        self.requests: dict[int, str] = {}
        #: id of the open request; spans are recorded only inside one
        self.request: int | None = None
        #: request kind -> bytes handed to ``PageStore.put_blobs``
        self.bytes_put: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []
        self._next_span = 0

    def begin(self, kind: str) -> None:
        request = len(self.requests) + 1
        self.requests[request] = kind
        self.request = request

    def end(self) -> None:
        self.request = None

    def reset(self) -> None:
        """Drop every span and request (the wrappers stay installed)."""
        self.spans.clear()
        self.requests.clear()
        self.bytes_put.clear()
        self.request = None
        self._stack.clear()

    def request_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for kind in self.requests.values():
            counts[kind] += 1
        return counts

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON array per line:
        ``[span, parent, request, kind, layer, name, start_ns, end_ns]``
        (times in nanoseconds from the first span's start)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((span[5] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, layer, name, start, end \
                    in self.spans:
                out.write(json.dumps([
                    span_id, parent, request, self.requests.get(request),
                    layer, name, round((start - origin) * 1e9),
                    round((end - origin) * 1e9)]) + "\n")


def _traced(recorder: SpanRecorder, layer: str, name: str,
            fn: Callable) -> Callable:
    spans = recorder.spans
    stack = recorder._stack

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        request = recorder.request
        if request is None or (stack and stack[-1][1] == layer):
            return fn(*args, **kwargs)
        recorder._next_span += 1
        span_id = recorder._next_span
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, layer))
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans.append((span_id, parent, request, layer, name,
                          start, end))
    return wrapper


def _traced_generator(recorder: SpanRecorder, layer: str, name: str,
                      fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        step = _traced(recorder, layer, name, fn(*args, **kwargs).__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item
    return wrapper


def _counting_put(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def put_blobs(self: Any, items: dict, *args: Any, **kwargs: Any) -> Any:
        request = recorder.request
        if request is not None:
            recorder.bytes_put[recorder.requests[request]] += sum(
                len(data) for data in items.values())
        return fn(self, items, *args, **kwargs)
    return put_blobs


class Installation:
    """The patches :func:`install` applied; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every layer's public surface; call before building objects."""
    done = Installation()
    for layer, module_name, class_name in CLASS_TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            kind = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{class_name}.{attr}"
            if inspect.isgeneratorfunction(fn):
                if (class_name, attr) not in GENERATOR_TARGETS:
                    continue
                wrapped = _traced_generator(recorder, layer, name, fn)
            else:
                if (class_name, attr) == ("PageStore", "put_blobs"):
                    fn = _counting_put(recorder, fn)
                wrapped = _traced(recorder, layer, name, fn)
            done.replace(cls, attr,
                         kind(wrapped) if kind is not None else wrapped)
    for layer, module_name, attr in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        done.replace(module, attr, _traced(recorder, layer, attr, fn))
    return done


class Ledger:
    """Self time per (request kind, layer) and per (kind, span name)."""

    def __init__(self, recorder: SpanRecorder):
        child: dict[int, float] = defaultdict(float)
        layer_of: dict[int, str] = {}
        for span_id, parent, _request, layer, _name, start, end \
                in recorder.spans:
            layer_of[span_id] = layer
            if parent:
                child[parent] += end - start
        self.layer_self: dict[tuple[str, str], float] = defaultdict(float)
        #: (kind, layer) -> spans of the layer plus spans whose parent
        #: is in it: the wrappers whose cost its self time holds
        self.layer_wrappers: dict[tuple[str, str], int] = defaultdict(int)
        self.name_self: dict[tuple[str, str], float] = defaultdict(float)
        self.name_calls: dict[tuple[str, str], int] = defaultdict(int)
        for span_id, parent, request, layer, name, start, end \
                in recorder.spans:
            kind = recorder.requests[request]
            own = (end - start) - child[span_id]
            self.layer_self[(kind, layer)] += own
            self.layer_wrappers[(kind, layer)] += 1
            if parent:
                self.layer_wrappers[(kind, layer_of[parent])] += 1
            self.name_self[(kind, name)] += own
            self.name_calls[(kind, name)] += 1
        self.requests = recorder.request_counts()

    def per_request(self, kinds: Iterable[str], layer: str) -> float:
        """Seconds of ``layer`` self time per request of ``kinds``."""
        kinds = tuple(kinds)
        total = sum(self.layer_self.get((kind, layer), 0.0)
                    for kind in kinds)
        count = sum(self.requests.get(kind, 0) for kind in kinds)
        return total / count if count else 0.0

    def wrappers_per_request(self, kinds: Iterable[str], layer: str
                             ) -> float:
        """Wrapped calls whose cost lands in ``layer``'s self time, per
        request of ``kinds``: its own spans (the part of the wrapper
        between the two clock reads) and its child spans (the part
        outside them)."""
        kinds = tuple(kinds)
        total = sum(self.layer_wrappers.get((kind, layer), 0)
                    for kind in kinds)
        count = sum(self.requests.get(kind, 0) for kind in kinds)
        return total / count if count else 0.0

    def per_call(self, name: str, kinds: Iterable[str] | None = None
                 ) -> float:
        """Mean self seconds of one ``name`` span."""
        keys = [key for key in self.name_calls
                if key[1] == name and (kinds is None or key[0] in kinds)]
        calls = sum(self.name_calls[key] for key in keys)
        total = sum(self.name_self[key] for key in keys)
        return total / calls if calls else 0.0

    def name_per_request(self, name: str, kind: str) -> float:
        """Self seconds of ``name`` spans per request of ``kind``."""
        count = self.requests.get(kind, 0)
        return self.name_self.get((kind, name), 0.0) / count \
            if count else 0.0

    def calls(self, name: str) -> int:
        return sum(count for (kind, span_name), count
                   in self.name_calls.items() if span_name == name)


def wrapper_cost(calls: int = 100_000, rounds: int = 5) -> float:
    """Seconds one span adds to a traced call: an empty function called
    through the wrapper with a request open, against the same function
    called bare (median over ``rounds``)."""
    from perfbench.common import median

    def empty() -> None:
        return None

    recorder = SpanRecorder()
    traced = _traced(recorder, "probe", "empty", empty)
    recorder.begin("probe")
    samples = []
    for _ in range(rounds):
        recorder.spans.clear()
        start = clock()
        for _ in range(calls):
            traced()
        middle = clock()
        for _ in range(calls):
            empty()
        stop = clock()
        samples.append(((middle - start) - (stop - middle)) / calls)
    recorder.end()
    return median(samples)


class CallCounter:
    """Python calls into ``repro.<module>`` counted by ``cProfile``.

    Switched on around the counted operations only, so the counts are
    per operation and deterministic for a fixed operation stream.
    """

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.enable = self.profile.enable
        self.disable = self.profile.disable

    def by_layer(self) -> dict[str, int]:
        """Total calls per layer (``repro.core.compact`` -> ``core.compact``)."""
        counts: dict[str, int] = defaultdict(int)
        marker = os.sep + "repro" + os.sep
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        for (filename, _line, _func), row in stats.items():
            index = filename.rfind(marker)
            if index < 0 or not filename.endswith(".py"):
                continue
            module = filename[index + len(marker):-3].replace(os.sep, ".")
            counts[module] += row[1]
        return counts


def timing_metrics(ledger: Ledger, open_kind: str) -> dict[str, float]:
    """The timing-class per-layer metrics, from one traced segment.

    ``open_kind`` is the request kind that opens persisted state
    (``"recover"`` for the service, ``"setup"`` for saved documents).
    """
    edit = ("edit",)
    pins = ledger.calls("ColumnarStore.from_snapshot") + \
        ledger.calls("ColumnarStore.repin")
    label_columns = sum(seconds for (_kind, name), seconds
                        in ledger.name_self.items()
                        if name == "LabelSnapshot.label_columns")
    return {
        "core.compact.self_us_per_edit":
            ledger.per_request(edit, "core.compact") * 1e6,
        "core.sharded.self_us_per_edit":
            ledger.per_request(edit, "core.sharded") * 1e6,
        "concurrent.engine.self_us_per_edit":
            ledger.per_request(edit, "concurrent.engine") * 1e6,
        "concurrent.service.self_us_per_edit":
            ledger.per_request(edit, "concurrent.service") * 1e6,
        "core.sharded.save_ms_per_checkpoint":
            ledger.per_request(("checkpoint",), "core.sharded") * 1e3,
        "core.sharded.load_ms":
            ledger.per_request((open_kind,), "core.sharded") * 1e3,
        "concurrent.engine.snapshot_ms":
            ledger.per_call("ConcurrentLTree.snapshot") * 1e3,
        "concurrent.engine.label_columns_ms":
            label_columns / pins * 1e3 if pins else 0.0,
        "concurrent.service.commit_self_us":
            ledger.per_request(("commit",), "concurrent.service") * 1e6,
        "concurrent.service.checkpoint_self_ms":
            ledger.per_request(("checkpoint",), "concurrent.service") * 1e3,
        "concurrent.service.recover_self_ms":
            ledger.per_request(("recover",), "concurrent.service") * 1e3,
        "storage.wal.append_us":
            ledger.per_call("WriteAheadLog.append") * 1e6,
        "storage.wal.commit_us":
            ledger.per_call("WriteAheadLog.commit", ("commit",)) * 1e6,
        "storage.wal.replay_ms":
            ledger.name_per_request("WriteAheadLog.replay", "recover")
            * 1e3,
        "storage.pages.put_ms_per_checkpoint":
            ledger.per_request(("checkpoint",), "storage.pages") * 1e3,
        "storage.pages.get_ms":
            ledger.name_per_request("PageStore.get_blob", open_kind) * 1e3,
        "xml.parse_ms": ledger.per_call("parse") * 1e3,
        "labeling.scheme.open_self_ms":
            ledger.per_request((open_kind,), "labeling.scheme") * 1e3,
        "query.xpath.parse_us_per_query":
            ledger.per_request(("query",), "query.xpath") * 1e6,
        "query.columnar.build_ms":
            ledger.per_request(("setup",), "query.columnar") * 1e3,
        "query.columnar.repin_ms":
            ledger.name_per_request("ColumnarStore.repin", "refresh") * 1e3,
        "query.columnar.self_us_per_query":
            ledger.per_call("QuerySession.evaluate") * 1e6,
    }


def per_layer_result(timing: dict[str, float], counts: dict[str, float],
                     overhead: dict[str, float]) -> dict:
    """Every per-layer metric, zero where this workload never reaches
    the layer (the prediction there is "no change")."""
    from perfbench.names import PER_LAYER
    values = {**timing, **counts, **overhead}
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from names.PER_LAYER: {unknown}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()}


def calls_per(counter: CallCounter, layers: Iterable[str], ops: int,
              suffix: str) -> dict[str, float]:
    """``<layer>.calls_per_<suffix>`` for each of ``layers``."""
    by_layer = counter.by_layer()
    return {f"{layer}.calls_per_{suffix}": by_layer.get(layer, 0) / ops
            for layer in layers}


def trace_path(workload: str) -> str:
    """Where a traced run leaves its spans (the latest run's only)."""
    from perfbench.common import WORK_ROOT
    return os.path.join(WORK_ROOT, "traces", f"{workload}.jsonl")


def overhead(reference_ops: list[float], reference_seconds: float,
             traced_ops: list[float], traced_seconds: float
             ) -> dict[str, float]:
    """Tracing overhead: the traced segment's per-op median and
    throughput against the untraced reference segment's."""
    from perfbench.common import percentile
    return {
        "trace.overhead_op_p50":
            percentile(traced_ops, 0.5) / percentile(reference_ops, 0.5),
        "trace.overhead_ops_per_s":
            (len(reference_ops) / reference_seconds) /
            (len(traced_ops) / traced_seconds),
    }
