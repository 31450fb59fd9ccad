"""Zero-dependency observability layer: metrics registry + span tracer.

``repro.obs`` is the bottom layer of the stack — it imports nothing from
the rest of :mod:`repro` (and nothing beyond the standard library), so every
other layer (core, runtime, service, streaming, arithmetic) can instrument
itself freely without risking import cycles.

Two halves:

``repro.obs.metrics``
    A process-wide, thread-safe registry of Counter / Gauge / Histogram
    instruments with label support, fixed log-scale latency buckets and two
    exporters: Prometheus text exposition (served as ``GET /metrics``) and
    canonical JSON (folded into ``/stats`` and ``RuntimeStatistics``).

``repro.obs.tracing``
    Structured spans (name, attrs, parent id, monotonic start/duration)
    recorded to a bounded in-memory ring, optionally mirrored to a JSONL
    file, exportable as Chrome ``trace_event`` JSON.  Disabled by default
    with a shared no-op span object, so the instrumented hot paths pay
    almost nothing until tracing is switched on.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    render_digest,
)
from .tracing import (
    Tracer,
    configure_tracing,
    get_tracer,
    read_trace_jsonl,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "Tracer",
    "configure_tracing",
    "counter",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "read_trace_jsonl",
    "render_digest",
    "span",
    "tracing_enabled",
]
