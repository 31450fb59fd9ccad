"""The instrumented layers feed the shared registry and tracer.

These tests run real work (a small sweep, a short stream) and assert
*deltas* on the process-wide registry — other tests share it, so absolute
values are meaningless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configurations import DesignPoint, paper_configuration
from repro.obs import get_registry, get_tracer
from repro.runtime import ExplorationRuntime
from repro.streaming import StreamSession


def _series_value(name: str, labels: dict) -> float:
    document = get_registry().snapshot()
    family = document.get(name)
    if family is None:
        return 0.0
    for sample in family["samples"]:
        if sample["labels"] == labels:
            return sample.get("value", sample.get("count", 0.0))
    return 0.0


@pytest.fixture()
def traced():
    """Enable the shared tracer for one test, restoring its prior state."""
    tracer = get_tracer()
    saved = tracer.info()
    tracer.configure(enabled=True)
    yield tracer
    tracer.configure(enabled=bool(saved["enabled"]))


def test_runtime_sweep_updates_metrics_and_spans(short_record, traced):
    designs = [paper_configuration(name) for name in ("A2", "B1", "B9")]
    computed_before = _series_value(
        "repro_designs_resolved_total", {"source": "computed"}
    )
    cached_before = _series_value(
        "repro_designs_resolved_total", {"source": "cache"}
    )
    batches_before = _series_value("repro_evaluate_batch_seconds", {})

    runtime = ExplorationRuntime([short_record])
    runtime.evaluate_many(designs)
    runtime.evaluate_many(designs)  # second pass: result-cache hits
    report = runtime.report().splitlines()

    assert _series_value(
        "repro_designs_resolved_total", {"source": "computed"}
    ) == computed_before + len(designs)
    assert _series_value(
        "repro_designs_resolved_total", {"source": "cache"}
    ) == cached_before + len(designs)
    assert _series_value("repro_evaluate_batch_seconds", {}) == batches_before + 2

    names = {record["name"] for record in traced.spans()}
    assert {"runtime.evaluate_many", "runtime.evaluate", "stage.compute"} <= names

    # the report's last line reads the registry's series count and the
    # tracer state directly
    series = get_registry().series_count()
    buffered = traced.info()["buffered"]
    assert series >= 1
    assert report[-1] == (
        f"observability    : {series} metric series, {buffered} spans "
        "buffered (tracing on)"
    )


def test_stage_resolution_histogram_labels(short_record):
    before = {
        result: _series_value(
            "repro_stage_resolve_seconds", {"stage": "low_pass", "result": result}
        )
        for result in ("miss", "classic")
    }
    runtime = ExplorationRuntime([short_record])
    runtime.evaluate(paper_configuration("A2"), use_cache=False)
    runtime.evaluate(paper_configuration("B2"), use_cache=False)
    after = {
        result: _series_value(
            "repro_stage_resolve_seconds", {"stage": "low_pass", "result": result}
        )
        for result in ("miss", "classic")
    }
    # first design computes the lpf node; if the second shares it, the hit is
    # classified (classic/warm/...) — at minimum the miss path was exercised
    assert after["miss"] >= before["miss"] + 1


def test_cache_tier_counters(short_record):
    misses_before = _series_value(
        "repro_cache_ops_total", {"tier": "result_cache", "op": "misses"}
    )
    hits_before = _series_value(
        "repro_cache_ops_total", {"tier": "result_cache", "op": "hits"}
    )
    runtime = ExplorationRuntime([short_record])
    runtime.evaluate(paper_configuration("A2"))
    runtime.evaluate(paper_configuration("A2"))
    assert (
        _series_value(
            "repro_cache_ops_total", {"tier": "result_cache", "op": "misses"}
        )
        == misses_before + 1
    )
    assert (
        _series_value(
            "repro_cache_ops_total", {"tier": "result_cache", "op": "hits"}
        )
        == hits_before + 1
    )


def test_stream_session_chunk_metrics(traced):
    chunks_before = _series_value("repro_stream_chunk_seconds", {})
    session = StreamSession(design=DesignPoint.accurate(), sample_rate_hz=200)
    rng = np.random.default_rng(7)
    for _ in range(4):
        report = session.push(rng.integers(-200, 200, size=50).astype(np.int64))
    assert _series_value("repro_stream_chunk_seconds", {}) == chunks_before + 4
    # Headroom is the chunk's signal time over its processing time.
    headroom = _series_value("repro_stream_realtime_headroom", {})
    assert headroom * report.processing_ms / 1e3 == pytest.approx(50 / 200)
    names = [record["name"] for record in traced.spans()]
    assert names.count("stream.chunk") >= 4


def test_lut_registry_gauges_match_registry_info():
    from repro.arithmetic import adder_cell, compiled_add, registry_info
    from repro.arithmetic.compiled import _REGISTRY

    operand = np.arange(256, dtype=np.int64)
    compiled_add(operand, operand, 16, 4, adder_cell("ApproxAdd5"))
    info = registry_info()
    assert info["tables"] > 0
    assert _series_value("repro_lut_tables", {}) == info["tables"]
    assert _series_value("repro_lut_table_bytes", {}) == info["bytes"]
    # A clear empties the gauges too, before any later build.
    _REGISTRY.clear()
    assert registry_info()["tables"] == 0
    assert _series_value("repro_lut_tables", {}) == 0
    assert _series_value("repro_lut_table_bytes", {}) == 0
