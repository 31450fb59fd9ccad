"""Span tracer: nesting, ring bounds, JSONL round-trip, Chrome export."""

from __future__ import annotations

import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    NOOP_SPAN,
    Tracer,
    get_tracer,
    read_trace_jsonl,
    span,
    tracing_enabled,
)


@pytest.fixture()
def tracer():
    return Tracer(capacity=64, enabled=True)


def _fake_perf_counter(monkeypatch, *readings):
    """Make the spans' monotonic clock return ``readings`` in order."""
    ticks = iter(readings)
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))


def test_disabled_tracer_returns_shared_noop(tracer):
    tracer.configure(enabled=False)
    opened = tracer.span("anything", key="value")
    assert opened is NOOP_SPAN
    with opened as active:
        active.set_attribute("ignored", 1)
    assert tracer.spans() == []


def test_span_records_fields_and_attrs(tracer, monkeypatch):
    _fake_perf_counter(monkeypatch, 10.0, 10.25)
    with tracer.span("unit.work", designs=3) as active:
        active.set_attribute("extra", "yes")
    monkeypatch.undo()
    (record,) = tracer.spans()
    assert record["name"] == "unit.work"
    assert record["attrs"] == {"designs": 3, "extra": "yes"}
    assert record["parent_id"] is None
    assert record["trace_id"] == record["span_id"]
    assert record["start_s"] == 10.0 - tracer.epoch_perf
    assert record["duration_s"] == 0.25
    assert record["thread"] == threading.current_thread().name


def test_nesting_sets_parent_and_trace_ids(tracer):
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("sibling"):
            pass
    inner, sibling, outer = tracer.spans()
    assert inner["name"] == "inner"  # children finish first
    assert outer["parent_id"] is None
    assert inner["parent_id"] == outer["span_id"]
    assert sibling["parent_id"] == outer["span_id"]
    assert inner["trace_id"] == sibling["trace_id"] == outer["trace_id"]


def test_exception_tags_error_attr(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    (record,) = tracer.spans()
    assert record["attrs"]["error"] == "RuntimeError"


def test_ring_capacity_counts_drops():
    tracer = Tracer(capacity=4, enabled=True)
    for index in range(10):
        with tracer.span(f"s{index}"):
            pass
    info = tracer.info()
    assert info["buffered"] == 4
    assert info["finished"] == 10
    assert info["dropped"] == 6
    assert [record["name"] for record in tracer.spans()] == [
        "s6", "s7", "s8", "s9",
    ]


def test_spans_limit_and_top_spans(tracer, monkeypatch):
    # Durations 1, 3 and 2 ms.
    _fake_perf_counter(monkeypatch, 0.0, 0.001, 1.0, 1.003, 2.0, 2.002)
    for index in range(3):
        with tracer.span(f"s{index}"):
            pass
    monkeypatch.undo()
    assert len(tracer.spans(limit=2)) == 2
    assert [record["name"] for record in tracer.top_spans(2)] == ["s1", "s2"]


def test_jsonl_round_trip(tmp_path, tracer):
    path = str(tmp_path / "trace.jsonl")
    tracer.configure(jsonl_path=path)
    with tracer.span("a", chunk=1):
        with tracer.span("b"):
            pass
    tracer.configure(jsonl_path=None)  # close the sink
    records = read_trace_jsonl(path)
    assert [record["name"] for record in records] == ["b", "a"]
    assert records == tracer.spans()
    assert records[1]["attrs"] == {"chunk": 1}


def test_chrome_trace_shape(tmp_path, tracer):
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    document = tracer.chrome_trace()
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["tid"], int)
    inner = next(e for e in events if e["name"] == "inner")
    outer = next(e for e in events if e["name"] == "outer")
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    import json

    path = str(tmp_path / "trace.json")
    tracer.write_chrome_trace(path)
    with open(path, "r", encoding="utf-8") as handle:
        assert json.load(handle)["traceEvents"] == events


def test_capacity_shrink_drops_oldest(tracer):
    for index in range(8):
        with tracer.span(f"s{index}"):
            pass
    tracer.configure(capacity=2)
    assert [record["name"] for record in tracer.spans()] == ["s6", "s7"]
    assert tracer.info()["dropped"] == 6


def test_module_level_span_respects_global_toggle():
    shared = get_tracer()
    saved = shared.info()
    try:
        shared.configure(enabled=False)
        assert not tracing_enabled()
        assert span("off") is NOOP_SPAN
        shared.configure(enabled=True)
        with span("on", k=1):
            pass
        assert shared.spans(limit=1)[0]["name"] == "on"
    finally:
        shared.configure(enabled=bool(saved["enabled"]))


def test_threads_get_independent_parents(tracer):
    records = {}

    def worker() -> None:
        with tracer.span("thread.work"):
            pass

    with tracer.span("main.outer"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    for record in tracer.spans():
        records[record["name"]] = record
    # a span opened on a fresh thread has no inherited parent
    assert records["thread.work"]["parent_id"] is None
    assert records["main.outer"]["parent_id"] is None
