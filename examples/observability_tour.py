"""Tour of the observability subsystem: spans, metrics, exports.

Runs the paper's Fig. 12 sweep (cold, then warm) and a live streaming
session with tracing enabled, then shows what the :mod:`repro.obs` layer
captured: the five slowest spans, a digest of the metric registry, the
Prometheus rendering a scraper would pull from ``GET /metrics``, and a
Chrome ``trace_event`` file for ``chrome://tracing`` / Perfetto.

Self-checking (CI runs it): every instrumented layer must actually have
reported — runtime batches, stage-graph resolutions, cache tiers, streamed
chunks and spans of each flavour.

Run with::

    PYTHONPATH=src python examples/observability_tour.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro.core import paper_configuration, paper_configuration_names  # noqa: E402
from repro.obs import (  # noqa: E402
    configure_tracing,
    get_registry,
    get_tracer,
    render_digest,
)
from repro.runtime import ExplorationRuntime  # noqa: E402
from repro.signals import load_record  # noqa: E402
from repro.streaming import StreamSession  # noqa: E402

RECORD = "16265"
DURATION_S = 8.0
CHUNK_SAMPLES = 50
TRACE_PATH = os.path.join(
    REPO_ROOT, "benchmarks", "results", "observability_tour_trace.json"
)


def main() -> int:
    configure_tracing(enabled=True, capacity=65536)
    tracer = get_tracer()
    registry = get_registry()

    # --- 1. the Fig. 12 sweep, cold then warm ---------------------------
    record = load_record(RECORD, duration_s=DURATION_S)
    designs = [
        paper_configuration(name)
        for name in paper_configuration_names()
        if name == "A2" or name.startswith("B")
    ]
    runtime = ExplorationRuntime([record])
    runtime.evaluate_many(designs)  # cold: every stage node computes
    runtime.evaluate_many(designs)  # warm: served from the result cache
    print(
        f"swept {len(designs)} Fig. 12 designs twice (cold + warm) on "
        f"{RECORD} ({DURATION_S:g} s)"
    )

    # --- 2. a live streaming session --------------------------------
    session = StreamSession(
        design=paper_configuration("B6"),
        sample_rate_hz=record.sample_rate_hz,
        true_peaks=record.r_peak_indices,
    )
    samples = np.asarray(record.samples, dtype=np.int64)
    for lo in range(0, samples.size, CHUNK_SAMPLES):
        session.push(samples[lo : lo + CHUNK_SAMPLES])
    result = session.finalize()
    print(
        f"streamed {session.chunk_count} chunks: "
        f"{len(result.detection.peak_indices)} beats detected"
    )

    # --- 3. what the tracer saw -----------------------------------------
    print("\nslowest spans")
    print("-------------")
    for record_ in tracer.top_spans(5):
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(record_["attrs"].items())
        )
        print(
            f"  {record_['duration_s'] * 1e3:9.3f} ms  "
            f"{record_['name']:<24} {attrs}"
        )

    # --- 4. what the registry saw ---------------------------------------
    print("\nmetrics digest")
    print("--------------")
    for line in render_digest(registry):
        print(f"  {line}")

    print("\nGET /metrics excerpt (Prometheus text exposition)")
    print("-------------------------------------------------")
    exposition = registry.render_prometheus()
    for line in exposition.splitlines():
        if ("stage_resolve" in line or "designs_resolved" in line) and (
            "_bucket{" not in line
        ):
            print(f"  {line}")

    # --- 5. Chrome trace export -----------------------------------------
    os.makedirs(os.path.dirname(TRACE_PATH), exist_ok=True)
    tracer.write_chrome_trace(TRACE_PATH)
    print(
        f"\nwrote {len(tracer.spans())} spans to {TRACE_PATH}\n"
        "open it in chrome://tracing or https://ui.perfetto.dev"
    )

    # --- self-checks: every instrumented layer reported -----------------
    span_names = {record_["name"] for record_ in tracer.spans()}
    assert {"runtime.evaluate_many", "runtime.evaluate", "stage.compute",
            "stream.chunk"} <= span_names, span_names
    snapshot = registry.snapshot()

    def series(name: str, **labels: str) -> float:
        for sample in snapshot[name]["samples"]:
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                return sample.get("value", sample.get("count", 0.0))
        return 0.0

    assert series("repro_designs_resolved_total", source="computed") >= len(designs)
    assert series("repro_designs_resolved_total", source="cache") >= len(designs)
    assert series("repro_evaluate_batch_seconds") >= 2
    assert series("repro_stage_resolve_seconds", result="miss") >= 1
    assert series("repro_cache_ops_total", tier="result_cache", op="hits") >= 1
    assert series("repro_stream_chunk_seconds") >= session.chunk_count
    assert series("repro_lut_tables") >= 1  # B6 compiles approximate LUTs
    assert tracer.info()["finished"] >= len(tracer.spans())
    print("self-checks passed: all instrumented layers reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
