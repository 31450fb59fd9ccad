"""Per-layer attribution from outside the program.

The traced run wraps the public entry points of each package layer at the
names their callers import (``repro.core.quality.ssim``, not only
``repro.metrics.ssim.ssim``) and records one span per call: name, layer,
start, end, parent and op id.  ``repro.obs`` tracing stays off; spans live in
this module's memory and are written out when the run ends.

A span's *self time* is its duration minus the time covered by its child
spans, so summing self times by layer splits an op's wall clock across the
layers without double counting nested calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute or Class.method, layer, entry-point name).  Module-level
#: functions are patched in every module that imported them by name, because
#: a caller holds its own reference to the function object.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.arithmetic.library", "ArithmeticBackend.add", "arithmetic", "add"),
    ("repro.arithmetic.library", "ArithmeticBackend.subtract", "arithmetic", "subtract"),
    ("repro.arithmetic.library", "ArithmeticBackend.multiply", "arithmetic", "multiply"),
    ("repro.arithmetic.library", "ArithmeticBackend.multiply_constant", "arithmetic", "multiply_constant"),
    ("repro.arithmetic.library", "ArithmeticBackend.square", "arithmetic", "square"),
    ("repro.dsp.pan_tompkins", "run_stage", "dsp.stage", "run_stage"),
    ("repro.streaming.stages", "run_stage", "dsp.stage", "run_stage"),
    ("repro.dsp.pan_tompkins", "detect_peaks", "dsp.detect", "detect_peaks"),
    ("repro.core.stage_graph", "StageGraphMemo.root_key", "core.key", "root_key"),
    ("repro.core.stage_graph", "StageGraphMemo.node_key", "core.key", "node_key"),
    ("repro.core.stage_graph", "StageGraphMemo.output_hash", "core.key", "output_hash"),
    ("repro.core.stage_graph", "StageGraphMemo.resolve", "core.resolve", "resolve"),
    ("repro.core.stage_graph", "MemoryStageStore.get", "store.get", "memory_get"),
    ("repro.core.stage_graph", "MemoryStageStore.put", "store.put", "memory_put"),
    ("repro.runtime.signal_store", "SQLiteSignalStore.get", "store.get", "sqlite_get"),
    ("repro.runtime.signal_store", "SQLiteSignalStore.put", "store.put", "sqlite_put"),
    ("repro.core.configurations", "DesignPoint.energy_reduction", "energy", "energy_reduction"),
    ("repro.core.configurations", "DesignPoint.energy_fj", "energy", "energy_fj"),
    ("repro.core.quality", "psnr", "metrics.psnr", "psnr"),
    ("repro.core.quality", "ssim", "metrics.ssim", "ssim"),
    ("repro.core.quality", "match_peaks", "metrics.match", "match_peaks"),
    ("repro.streaming.session", "match_peaks", "metrics.match", "match_peaks"),
    ("repro.runtime.engine", "ExplorationRuntime.__init__", "runtime.init", "runtime_init"),
    ("repro.runtime.engine", "ExplorationRuntime.evaluate_many", "runtime", "evaluate_many"),
    ("repro.runtime.engine", "run_design_evaluation", "runtime", "run_design_evaluation"),
    ("repro.streaming.session", "StreamSession.push", "streaming", "session_push"),
    ("repro.streaming.pipeline", "StreamingPipeline.push", "streaming", "pipeline_push"),
    ("repro.streaming.stages", "StageStreamer.push", "streaming", "streamer_push"),
    ("repro.streaming.detector", "IncrementalPeakDetector.update", "streaming.detect", "detector_update"),
)

def layer_group(layer: str) -> str:
    """The group a span layer belongs to (``dsp.stage`` -> ``dsp``).

    Entries into a group from outside it are what ``<group>.calls`` counts:
    a nested call inside the same group, such as ``energy_reduction``
    calling ``energy_fj``, is not a second entry.
    """
    return layer.split(".", 1)[0]


class SpanRecorder:
    """In-memory span stack with on-the-fly self-time aggregation.

    Every finished span adds its self time and one call to its layer's
    totals; the first ``keep_spans`` spans are also kept whole for the Chrome
    trace export.  Aggregation can be paused (``active = False``) so only
    spans of traced windows are counted.
    """

    def __init__(self, keep_spans: int = 20000) -> None:
        self.active = False
        self.op_id: Optional[int] = None
        self.keep_spans = keep_spans
        self.kept: List[Tuple] = []
        self.self_s: Dict[str, float] = {}
        self.entries: Dict[str, int] = {}
        self.calls_by_name: Dict[str, int] = {}
        self.incl_by_name: Dict[str, float] = {}
        self._stack: List[List] = []  # [name, layer, start, child_s, span_id]
        self._next_id = 1
        self._epoch = time.perf_counter()

    def enter(self, name: str, layer: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, layer, time.perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        end = time.perf_counter()
        name, layer, start, child_s, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if not self.active:
            return
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.calls_by_name[name] = self.calls_by_name.get(name, 0) + 1
        self.incl_by_name[name] = self.incl_by_name.get(name, 0.0) + duration
        group = layer_group(layer)
        if parent is None or layer_group(parent[1]) != group:
            self.entries[group] = self.entries.get(group, 0) + 1
        if len(self.kept) < self.keep_spans:
            self.kept.append(
                (
                    name,
                    layer,
                    start - self._epoch,
                    duration,
                    duration - child_s,
                    span_id,
                    parent[4] if parent is not None else None,
                    self.op_id,
                )
            )

    def chrome_trace(self) -> Dict[str, object]:
        """Kept spans as Chrome ``trace_event`` complete events (``ph: X``).

        Each event carries its layer as the category and its self time, op id
        and parent span id in ``args``, so one op can be selected in a trace
        viewer and its per-layer self times read off.
        """
        pid = os.getpid()
        per_op: Dict[object, Dict[str, float]] = {}
        for _, layer, _, _, self_s, _, _, op in self.kept:
            layers = per_op.setdefault(op, {})
            layers[layer] = layers.get(layer, 0.0) + self_s * 1e3
        events = []
        for name, layer, start, duration, self_s, span_id, parent, op in self.kept:
            args = {
                "self_us": round(self_s * 1e6, 3),
                "span_id": span_id,
                "parent_id": parent,
                "op": op,
            }
            if parent is None:
                args["self_ms_by_layer"] = {
                    key: round(value, 4) for key, value in sorted(per_op[op].items())
                }
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _wrap(function: Callable, recorder: SpanRecorder, name: str, layer: str) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        recorder.enter(name, layer)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.exit()

    return traced


class LayerWrappers:
    """Installs and removes the span wrappers of :data:`ENTRY_POINTS`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._originals: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        if self._originals:
            return
        for module_name, attribute, layer, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, self.recorder, name, layer))

    def remove(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
