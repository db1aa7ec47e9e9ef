"""Span tracing from outside the simulator.

The traced run wraps public methods of the simulator's classes at class
level (and, for trace production, the stream's record generator), so the
simulator itself carries no instrumentation.  Each call records one span
— layer, parent span, start, end — into flat in-memory arrays; nothing
is written until the benchmark exits.

A layer's *self time* is its spans' duration minus the time its direct
child spans cover.  Calls are single-threaded and properly nested, so
the children of one span never overlap and their durations simply add.

The fused kernels of the batched engine inline every layer below the
engine boundary, so under that engine only ``engine.batched`` (and the
phase and sweep layers above it) record spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Layer name -> the (module, class, methods) it wraps.  A method ending
#: in "*" is a generator whose every ``next`` is one span (trace
#: production).
COMPONENT_LAYERS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "workloads.trace": (("repro.workloads.synthetic", "TraceStream", ("_generate*",)),),
    "cpu.o3core": (("repro.cpu.o3core", "O3Core", ("step", "drain")),),
    "memory.hierarchy": (("repro.memory.hierarchy", "MemoryHierarchy", ("access",)),),
    "memory.cache": (("repro.memory.cache", "Cache", ("lookup", "fill")),),
    "memory.dram": (("repro.memory.dram", "DRAM", ("access",)),),
    "prefetchers.spp": (("repro.prefetchers.spp", "SPP", ("train",)),),
    "core.ppf": (("repro.core.ppf", "PPF", ("train", "on_eviction")),),
    "core.filter": (("repro.core.filter", "PerceptronFilter", ("decide", "train")),),
    "zoo.pythia": (("repro.zoo.pythia", "Pythia", ("train",)),),
    "zoo.two_level": (("repro.zoo.two_level", "TwoLevelFilter", ("train",)),),
}

_PHASES = ("__init__", "warmup", "begin_measurement", "measure", "result")

#: Layers at and above the engine boundary.  ``sim.phases`` covers sim
#: construction and the phase calls, so a sweep's self time is what it
#: does outside ``run_single_core``'s simulation.
BOUNDARY_LAYERS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "engine.scalar": (("repro.engine.scalar", "ScalarEngine", ("advance", "advance_multi")),),
    "engine.batched": (("repro.engine.batched", "BatchedEngine", ("advance", "advance_multi")),),
    "sim.phases": (
        ("repro.sim.single_core", "SingleCoreSim", _PHASES),
        ("repro.sim.multi_core", "MultiCoreSim", _PHASES),
    ),
    "sim.suite": (("repro.sim.suite", "SuiteRunner", ("sweep",)),),
}

ALL_LAYERS = {**COMPONENT_LAYERS, **BOUNDARY_LAYERS}


class SpanRecorder:
    """Flat arrays of spans plus the class-level wrappers that fill them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------------

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def clear(self) -> None:
        """Drop recorded spans (the wrappers keep the same arrays)."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()

    def spans(self) -> List[Tuple[str, int, int, int]]:
        """``(layer, parent, start_ns, end_ns)`` for every recorded span."""
        names = self.names
        return [
            (names[lid], parent, start, end)
            for lid, parent, start, end in zip(self.layer, self.parent, self.start, self.end)
        ]

    def _wrap(self, fn, lid: int):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_generator(self, fn, lid: int):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            produce = fn(*args, **kwargs).__next__
            while True:
                idx = len(start)
                layer.append(lid)
                parent.append(stack[-1] if stack else -1)
                end.append(0)
                start.append(clock())
                try:
                    item = produce()
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                yield item

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, layers: Iterable[str]) -> "SpanRecorder":
        """Wrap every method of ``layers`` at class level."""
        for name in layers:
            lid = self.layer_id(name)
            for module, cls_name, methods in ALL_LAYERS[name]:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    attr = method.rstrip("*")
                    original = cls.__dict__[attr]
                    if method.endswith("*"):
                        wrapped = self._wrap_generator(original, lid)
                    else:
                        wrapped = self._wrap(original, lid)
                    self._installed.append((cls, attr, original))
                    setattr(cls, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: Sequence[Tuple[str, int, int, int]]) -> Dict[str, Dict[str, int]]:
    """Per layer: ``calls``, ``total_ns`` and ``self_ns``.

    ``spans`` are ``(layer, parent_index, start_ns, end_ns)`` with
    ``parent_index`` -1 for a root.  Self time is a span's duration
    minus its direct children's durations.
    """
    child_ns = [0] * len(spans)
    for layer, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, Dict[str, int]] = {}
    for (layer, _parent, start, end), covered in zip(spans, child_ns):
        entry = out.setdefault(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered
    return out


def write_chrome_trace(path: Path, spans: Sequence[Tuple[str, int, int, int]]) -> None:
    """Write spans as Chrome ``trace_event`` complete events (µs)."""
    if not spans:
        return
    origin = min(start for _, _, start, _ in spans)
    events = [
        {
            "name": layer,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - origin) / 1000,
            "dur": (end - start) / 1000,
        }
        for layer, _parent, start, end in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
