"""Structured span tracing: bounded ring, JSONL sink, Chrome trace export.

A span is one timed region of work — a batch evaluation, one stage-graph
resolution, one scheduled job, one streamed chunk.  Finished spans are plain
dicts::

    {"name": "runtime.evaluate_many", "trace_id": "0000000a",
     "span_id": "0000000c", "parent_id": "0000000a",
     "start_s": 1.0234, "wall_s": 1754650000.12, "duration_s": 0.0421,
     "thread": "MainThread", "thread_id": 133788, "attrs": {...}}

``start_s`` is a monotonic offset (``time.perf_counter``) from the tracer's
epoch — differences between spans are meaningful even if the wall clock
steps; ``wall_s`` anchors the trace to calendar time for humans.

Parent/child nesting propagates through a :class:`contextvars.ContextVar`,
so it is correct across threads spawned per-task *and* across asyncio tasks
in the service event loop.

Tracing is **disabled by default**: :func:`span` then returns one shared
no-op object, and the instrumented hot paths pay a single attribute check.
``benchmarks/test_bench_stage_memoization.py`` checks that a warm Fig. 12
resweep records no span on that path.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Deque, Dict, List, Optional, TextIO, Tuple

__all__ = [
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "read_trace_jsonl",
    "span",
    "tracing_enabled",
]

_current_span: ContextVar[Optional[Tuple[str, str]]] = ContextVar(
    "repro_obs_current_span", default=None
)
_span_ids = itertools.count(1)

_KEEP_JSONL = object()  # sentinel: Tracer.configure leaves the sink alone


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def set_attribute(self, _key: str, _value: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class ActiveSpan:
    """A live span; use as a context manager."""

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_started",
        "_wall",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "ActiveSpan":
        self.span_id = f"{next(_span_ids):08x}"
        parent = _current_span.get()
        if parent is None:
            self.trace_id = self.span_id
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self._token = _current_span.set((self.trace_id, self.span_id))
        self._wall = time.time()
        self._started = time.perf_counter()
        return self

    def set_attribute(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def __exit__(self, exc_type, exc, _tb) -> bool:
        ended = time.perf_counter()
        _current_span.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record(
            {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_s": self._started - self._tracer.epoch_perf,
                "wall_s": self._wall,
                "duration_s": ended - self._started,
                "thread": threading.current_thread().name,
                "thread_id": threading.get_ident(),
                "attrs": self.attrs,
            }
        )
        return False


class Tracer:
    """Bounded in-memory span ring with optional live JSONL mirroring."""

    def __init__(self, capacity: int = 4096, enabled: bool = False) -> None:
        self.enabled = enabled
        self.capacity = int(capacity)
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = deque()
        self._finished = 0
        self._dropped = 0
        self._jsonl_path: Optional[str] = None
        self._jsonl: Optional[TextIO] = None

    # ------------------------------------------------------------- control
    def configure(
        self,
        enabled: Optional[bool] = None,
        capacity: Optional[int] = None,
        jsonl_path: object = _KEEP_JSONL,
    ) -> "Tracer":
        """Reconfigure in place; omitted arguments keep their setting.

        Passing ``jsonl_path=None`` closes an open sink; a path string
        opens (append mode) a live JSONL sink that every finished span is
        written to in addition to the ring.
        """
        with self._lock:
            if capacity is not None:
                self.capacity = int(capacity)
                while len(self._ring) > self.capacity:
                    self._ring.popleft()
                    self._dropped += 1
            if jsonl_path is not _KEEP_JSONL:
                if self._jsonl is not None:
                    self._jsonl.close()
                    self._jsonl = None
                    self._jsonl_path = None
                if jsonl_path is not None:
                    self._jsonl_path = str(jsonl_path)
                    self._jsonl = open(
                        self._jsonl_path, "a", encoding="utf-8"
                    )
            if enabled is not None:
                self.enabled = bool(enabled)
        return self

    def span(self, name: str, **attrs: object):
        if not self.enabled:
            return NOOP_SPAN
        return ActiveSpan(self, name, attrs)

    def _record(self, record: Dict[str, object]) -> None:
        with self._lock:
            if len(self._ring) >= self.capacity:
                self._ring.popleft()
                self._dropped += 1
            self._ring.append(record)
            self._finished += 1
            if self._jsonl is not None:
                self._jsonl.write(json.dumps(record, sort_keys=True) + "\n")
                self._jsonl.flush()

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._finished = 0
            self._dropped = 0

    # --------------------------------------------------------------- reads
    def spans(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most recent finished spans, oldest first (copy-on-read)."""
        with self._lock:
            records = list(self._ring)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def top_spans(self, count: int = 5) -> List[Dict[str, object]]:
        """The buffered spans with the longest durations, slowest first."""
        records = self.spans()
        records.sort(key=lambda rec: rec["duration_s"], reverse=True)  # type: ignore[arg-type,return-value]
        return records[: max(0, count)]

    def info(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "buffered": len(self._ring),
                "finished": self._finished,
                "dropped": self._dropped,
                "jsonl_path": self._jsonl_path,
            }

    # ------------------------------------------------------------- exports
    def chrome_trace(self) -> Dict[str, object]:
        """The ring as a Chrome ``trace_event`` document.

        Open in ``chrome://tracing`` or https://ui.perfetto.dev — spans
        become complete ("X") events, microsecond timestamps, one row per
        thread.
        """
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for record in self.spans():
            args = dict(record["attrs"])  # type: ignore[arg-type]
            args["trace_id"] = record["trace_id"]
            args["span_id"] = record["span_id"]
            if record["parent_id"] is not None:
                args["parent_id"] = record["parent_id"]
            events.append(
                {
                    "name": record["name"],
                    "cat": str(record["name"]).split(".", 1)[0],
                    "ph": "X",
                    "ts": float(record["start_s"]) * 1e6,  # type: ignore[arg-type]
                    "dur": float(record["duration_s"]) * 1e6,  # type: ignore[arg-type]
                    "pid": pid,
                    "tid": record["thread_id"],
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "epoch_wall_s": self.epoch_wall,
                "dropped_spans": self.info()["dropped"],
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
        return path


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The shared process-wide tracer."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def span(name: str, **attrs: object):
    """Open a span on the shared tracer (no-op singleton when disabled)."""
    if not _TRACER.enabled:
        return NOOP_SPAN
    return ActiveSpan(_TRACER, name, attrs)


def configure_tracing(
    enabled: Optional[bool] = None,
    capacity: Optional[int] = None,
    jsonl_path: object = _KEEP_JSONL,
) -> Tracer:
    """Reconfigure the shared tracer (see :meth:`Tracer.configure`)."""
    return _TRACER.configure(
        enabled=enabled, capacity=capacity, jsonl_path=jsonl_path
    )


def read_trace_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into span records."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
