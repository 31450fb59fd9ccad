"""Metrics registry: golden Prometheus text, exporters, thread safety."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import metrics as obs
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
)


# ----------------------------------------------------------------- rendering
def test_golden_prometheus_text():
    registry = MetricsRegistry()
    counter = registry.counter("demo_ops_total", "Operations.", ("kind",))
    counter.labels("read").inc(3)
    counter.labels("write").inc()
    gauge = registry.gauge("demo_depth", "Queue depth.")
    gauge.set(7)
    hist = registry.histogram(
        "demo_latency_seconds", "Latency.", buckets=(0.1, 1.0)
    )
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    assert registry.render_prometheus() == (
        "# HELP demo_depth Queue depth.\n"
        "# TYPE demo_depth gauge\n"
        "demo_depth 7\n"
        "# HELP demo_latency_seconds Latency.\n"
        "# TYPE demo_latency_seconds histogram\n"
        'demo_latency_seconds_bucket{le="0.1"} 1\n'
        'demo_latency_seconds_bucket{le="1"} 2\n'
        'demo_latency_seconds_bucket{le="+Inf"} 3\n'
        "demo_latency_seconds_sum 5.55\n"
        "demo_latency_seconds_count 3\n"
        "# HELP demo_ops_total Operations.\n"
        "# TYPE demo_ops_total counter\n"
        'demo_ops_total{kind="read"} 3\n'
        'demo_ops_total{kind="write"} 1\n'
    )


def test_prometheus_content_type():
    assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_label_value_and_help_escaping():
    registry = MetricsRegistry()
    counter = registry.counter(
        "esc_total", 'Help with \\ backslash\nand newline.', ("path",)
    )
    counter.labels('a"b\\c\nd').inc()
    text = registry.render_prometheus()
    assert "# HELP esc_total Help with \\\\ backslash\\nand newline." in text
    assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in text


def test_label_ordering_is_declaration_order_and_children_sorted():
    registry = MetricsRegistry()
    counter = registry.counter("pair_total", "Pairs.", ("zeta", "alpha"))
    counter.labels("z2", "a1").inc()
    counter.labels("z1", "a2").inc()
    lines = [
        line
        for line in registry.render_prometheus().splitlines()
        if line.startswith("pair_total{")
    ]
    # label *names* keep declaration order; children sort by label values
    assert lines == [
        'pair_total{zeta="z1",alpha="a2"} 1',
        'pair_total{zeta="z2",alpha="a1"} 1',
    ]


def test_histogram_bucket_invariants():
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", "H.", ("stage",))
    child = hist.labels("lpf")
    values = (1e-7, 3e-6, 0.004, 0.004, 2.0, 50.0)
    for value in values:
        child.observe(value)
    cumulative = child.cumulative_buckets()
    bounds = [bound for bound, _ in cumulative]
    counts = [count for _, count in cumulative]
    assert bounds[:-1] == sorted(bounds[:-1])
    assert bounds[-1] == math.inf
    assert counts == sorted(counts)  # cumulative => monotone
    assert counts[-1] == child.count == 6
    assert child.sum == pytest.approx(sum(values), rel=1e-12)
    # boundary values land in the bucket whose upper bound they equal (le)
    boundary = registry.histogram("edge_seconds", "E.", buckets=(1.0, 2.0))
    boundary.observe(1.0)
    assert boundary._unlabelled().cumulative_buckets()[0] == (1.0, 1)


def test_default_buckets_cover_microseconds_to_seconds():
    assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
    assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
    assert len(DEFAULT_LATENCY_BUCKETS) == 22
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_snapshot_and_render_json_round_trip():
    registry = MetricsRegistry()
    registry.counter("c_total", "C.", ("k",)).labels("x").inc(2)
    registry.histogram("h_seconds", "H.", buckets=(1.0,)).observe(0.5)
    document = json.loads(registry.render_json())
    assert document["c_total"]["type"] == "counter"
    assert document["c_total"]["samples"] == [
        {"labels": {"k": "x"}, "value": 2.0}
    ]
    hist_sample = document["h_seconds"]["samples"][0]
    assert hist_sample["count"] == 1
    assert hist_sample["sum"] == 0.5
    assert hist_sample["buckets"] == {"1": 1, "+Inf": 1}


# ------------------------------------------------------------------ registry
def test_idempotent_getters_and_mismatch_errors():
    registry = MetricsRegistry()
    first = registry.counter("same_total", "Doc.", ("k",))
    assert registry.counter("same_total", "Doc.", ("k",)) is first
    with pytest.raises(ValueError):
        registry.gauge("same_total", "Doc.", ("k",))
    with pytest.raises(ValueError):
        registry.counter("same_total", "Doc.", ("other",))


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("bad-name", "Doc.")
    with pytest.raises(ValueError):
        registry.counter("ok_total", "Doc.", ("bad-label",))
    with pytest.raises(ValueError):
        registry.counter("ok_total", "Doc.", ("__reserved",))
    with pytest.raises(ValueError):
        registry.histogram("h_seconds", "Doc.", ("le",))


def test_labelled_family_rejects_unlabelled_use():
    registry = MetricsRegistry()
    counter = registry.counter("lab_total", "Doc.", ("k",))
    with pytest.raises(ValueError):
        counter.inc()
    with pytest.raises(ValueError):
        counter.labels("a", "b")


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("neg_total", "Doc.").inc(-1)


def test_reset_keeps_families_and_series_count():
    registry = MetricsRegistry()
    counter = registry.counter("r_total", "Doc.", ("k",))
    child = counter.labels("x")
    child.inc(5)
    registry.reset()
    assert registry.series_count() == 1
    # the family reference stays live; the child handle is re-fetched
    assert counter.labels("x").value == 0
    counter.labels("x").inc()
    assert counter.labels("x").value == 1


def test_histogram_timer_observes():
    registry = MetricsRegistry()
    hist = registry.histogram("timed_seconds", "Doc.")
    with hist.time():
        pass
    child = hist._unlabelled()
    assert child.count == 1
    assert child.sum >= 0


def test_render_digest_skips_zero_series():
    registry = MetricsRegistry()
    registry.counter("zero_total", "Doc.")
    registry.counter("one_total", "Doc.").inc()
    lines = obs.render_digest(registry)
    assert lines == ["one_total 1"]


# --------------------------------------------------------------- concurrency
def test_concurrent_writes_exact_totals():
    registry = MetricsRegistry()
    counter = registry.counter("conc_total", "Doc.", ("worker",))
    hist = registry.histogram("conc_seconds", "Doc.", buckets=(0.5,))
    shared = counter.labels("shared")
    per_thread_incs = 2000
    threads = 8

    def hammer(index: int) -> None:
        for i in range(per_thread_incs):
            shared.inc()
            counter.labels(str(index % 2)).inc()
            hist.observe(0.25 if i % 2 == 0 else 0.75)

    workers = [
        threading.Thread(target=hammer, args=(index,)) for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert shared.value == threads * per_thread_incs
    total_split = sum(
        child.value for key, child in counter.children() if key != ("shared",)
    )
    assert total_split == threads * per_thread_incs
    child = hist._unlabelled()
    assert child.count == threads * per_thread_incs
    cumulative = dict(child.cumulative_buckets())
    assert cumulative[0.5] == threads * per_thread_incs // 2
    assert cumulative[math.inf] == threads * per_thread_incs
    assert child.sum == pytest.approx(threads * per_thread_incs * 0.5)
