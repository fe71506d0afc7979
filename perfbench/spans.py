"""In-memory span recording around the library's public layer functions.

A traced run wraps each function listed in :data:`LAYERS` where its callers
look it up, records one span per call (name, start, end, parent) and turns
the spans into per-layer self time once the run ends.  Self time is a span's
duration minus the part of it that its child spans cover, so the self times
of all spans under one root add up to the root's duration exactly (times are
integer nanoseconds): nothing is counted twice.

Nothing here changes what the wrapped functions compute; a wrapper only reads
the clock before and after delegating.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer name, module, class or None for a module-level function, attribute).
# Module-level functions are patched in every loaded ``repro`` module that
# holds them under that name, which covers callers that imported them by
# name (``from repro.core.haar import sparse_haar_transform``).
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("mapreduce.runtime.begin_round", "repro.mapreduce.runtime", "JobRunner", "begin_round"),
    ("mapreduce.state.load", "repro.mapreduce.state", "StateStore", "load"),
    ("mapreduce.state.save", "repro.mapreduce.state", "StateStore", "save"),
    ("mapreduce.runtime.complete_map_phase", "repro.mapreduce.runtime",
     "RoundExecution", "complete_map_phase"),
    ("mapreduce.runtime.complete_reduce_phase", "repro.mapreduce.runtime",
     "RoundExecution", "complete_reduce_phase"),
    ("mapreduce.executor.execute_map_task", "repro.mapreduce.executor", None, "execute_map_task"),
    ("mapreduce.executor.execute_reduce_task", "repro.mapreduce.executor", None,
     "execute_reduce_task"),
    ("mapreduce.executor.run_tasks", "repro.mapreduce.executor", "SerialExecutor", "run_tasks"),
    ("sketches.gcs.HierarchicalGcs.init", "repro.sketches.gcs", "HierarchicalGcs", "__init__"),
    ("sketches.gcs.HierarchicalGcs.update_batch", "repro.sketches.gcs", "HierarchicalGcs",
     "update_batch"),
    ("sketches.gcs.HierarchicalGcs.search_top_k", "repro.sketches.gcs", "HierarchicalGcs",
     "search_top_k"),
    ("core.haar.sparse_haar_transform", "repro.core.haar", None, "sparse_haar_transform"),
    ("core.topk.top_k_coefficients", "repro.core.topk_coefficients", None, "top_k_coefficients"),
    ("algorithms.base.assemble_result", "repro.algorithms.base", "HistogramAlgorithm",
     "assemble_result"),
    ("serving.store.save", "repro.serving.store", "SynopsisStore", "save"),
    ("serving.store.save_delta", "repro.serving.store", "SynopsisStore", "save_delta"),
    ("serving.store.load", "repro.serving.store", "SynopsisStore", "load"),
    ("serving.store.StoredSynopsis.engine", "repro.serving.store", "StoredSynopsis", "engine"),
    ("serving.server.range_sums", "repro.serving.server", "QueryServer", "range_sums"),
    ("serving.engine.range_sum_many", "repro.serving.engine", "BatchQueryEngine",
     "range_sum_many"),
    ("serving.server.evaluate_range_shard", "repro.serving.server", None,
     "evaluate_range_shard"),
    ("service.facade.query", "repro.service.facade", "SynopsisService", "query"),
    ("streaming.ingest.StreamIngestor.batch", "repro.streaming.ingest", "StreamIngestor", "batch"),
    ("streaming.maintain.SynopsisMaintainer.ingest", "repro.streaming.maintain",
     "SynopsisMaintainer", "ingest"),
    ("streaming.maintain.SynopsisMaintainer.maintain", "repro.streaming.maintain",
     "SynopsisMaintainer", "maintain"),
)

ENGINE_LAYER = "serving.engine.range_sum_many"


class SpanRecorder:
    """Keeps spans in flat arrays: name id, start ns, end ns, parent index.

    ``-1`` is the parent of a root span.  Spans nest through a stack, which
    is exact for the single-threaded runs the benchmark makes.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = []
        # Per-call counters a layer reports besides its time.
        self.engine_queries = 0
        self.engine_cache_hits = 0
        self.engine_cache_lookups = 0

    def __len__(self) -> int:
        return len(self.starts)

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict):
        index = self._open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self._close(index)

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the benchmark's own stages)."""
        return _SpanContext(self, name)

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        """Append a finished span (hand-built span sets in the self-test)."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.starts) - 1

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines: name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.starts)):
                handle.write(json.dumps([
                    self.names[self.name_ids[index]], self.starts[index],
                    self.ends[index], self.parents[index],
                ]) + "\n")


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._index = -1

    def __enter__(self) -> "_SpanContext":
        self._index = self._recorder._open(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder._close(self._index)


def self_times(recorder: SpanRecorder) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-name self time (ns) and call count, from the spans' parent links.

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the parent.  Inclusive durations are never
    summed across names, so nested layers are not counted twice.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(recorder.parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    totals: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    starts, ends = recorder.starts, recorder.ends
    for index in range(len(starts)):
        start, end = starts[index], ends[index]
        covered = 0
        reach = start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        name = recorder.names[recorder.name_ids[index]]
        totals[name] = totals.get(name, 0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def root_wall_ns(recorder: SpanRecorder) -> int:
    """Summed duration of the root spans (the traced wall time)."""
    return sum(end - start for start, end, parent
               in zip(recorder.starts, recorder.ends, recorder.parents) if parent < 0)


def self_test() -> None:
    """Self times of a hand-built nested span set sum to the root's duration.

    Raises ``AssertionError`` (via explicit checks, so ``-O`` keeps them)
    when the self-time arithmetic is wrong.
    """
    recorder = SpanRecorder()
    root = recorder.add("root", 0, 1000, -1)
    build = recorder.add("build", 100, 600, root)
    recorder.add("map", 120, 300, build)
    reduce_ = recorder.add("reduce", 300, 550, build)
    recorder.add("haar", 400, 450, reduce_)
    recorder.add("map", 610, 700, root)
    serve = recorder.add("serve", 700, 990, root)
    recorder.add("load", 700, 710, serve)
    totals, calls = self_times(recorder)
    expected = {"root": 1000 - 500 - 90 - 290, "build": 500 - 180 - 250,
                "map": 180 + 90, "reduce": 250 - 50, "haar": 50,
                "serve": 290 - 10, "load": 10}
    if totals != expected:
        raise AssertionError(f"self times {totals} != {expected}")
    if sum(totals.values()) != root_wall_ns(recorder):
        raise AssertionError("self times do not sum to the root's inclusive time")
    if calls["map"] != 2 or calls["root"] != 1:
        raise AssertionError(f"call counts wrong: {calls}")


def _resolve(module_name: str, class_name: Optional[str], attribute: str):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    return owner, owner.__dict__[attribute] if class_name else getattr(module, attribute)


def _wrap(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        return recorder.call(name, function, args, kwargs)
    return traced


def _wrap_engine(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    # range_sum_many also reports how many queries it answered and how many
    # of them the range cache served, read from cache_info() around the call.
    @functools.wraps(function)
    def traced(engine, los, his):
        before = engine.cache_info()
        result = recorder.call(name, function, (engine, los, his), {})
        after = engine.cache_info()
        recorder.engine_queries += int(result.size)
        recorder.engine_cache_hits += after["hits"] - before["hits"]
        recorder.engine_cache_lookups += (after["hits"] + after["misses"]
                                          - before["hits"] - before["misses"])
        return result
    return traced


def install(recorder: SpanRecorder, layers: Sequence = LAYERS) -> Callable[[], None]:
    """Patch every layer function to record spans; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []
    for name, module_name, class_name, attribute in layers:
        owner, original = _resolve(module_name, class_name, attribute)
        wrap = _wrap_engine if name == ENGINE_LAYER else _wrap
        traced = wrap(recorder, name, original)
        if class_name:
            undo.append((owner, attribute, original))
            setattr(owner, attribute, traced)
            continue
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if (module_id == "repro" or module_id.startswith("repro.")) and \
                    module.__dict__.get(attribute) is original:
                undo.append((module, attribute, original))
                setattr(module, attribute, traced)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
    return uninstall
