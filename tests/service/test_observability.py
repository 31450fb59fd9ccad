"""Service observability endpoints: ``GET /metrics`` and ``GET /trace``.

The ``/metrics`` test includes a miniature Prometheus text parser — the
exposition format has enough sharp edges (escaping, ``# HELP``/``# TYPE``
headers, histogram suffixes) that "a scraper can parse it" is the property
worth pinning, not any specific byte string.
"""

from __future__ import annotations

import re

import pytest

from repro.service import ServiceError

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str):
    """Parse exposition text into ``{family: {"type", "samples": [...]}}``."""
    families = {}
    types = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            families.setdefault(name, {"type": None, "samples": []})
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in {"counter", "gauge", "histogram", "untyped"}
            families[name]["type"] = kind
            types[name] = kind
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name = match.group("name")
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    base = name[: -len(suffix)]
            assert base in families, f"sample {name} missing HELP/TYPE header"
            labels = dict(
                (m.group(1), m.group(2))
                for m in _LABEL_RE.finditer(match.group("labels") or "")
            )
            value = match.group("value")
            assert value in {"+Inf", "-Inf", "NaN"} or float(value) is not None
            families[base]["samples"].append((name, labels, value))
    return families


def test_metrics_endpoint_is_valid_prometheus(client):
    job = client.run(
        {"kind": "evaluate", "designs": [{"config": "A2"}]}, timeout=120.0
    )
    assert job["state"] == "succeeded"

    text = client.metrics_text()
    families = parse_prometheus(text)

    # every family has a TYPE header and at least the instrumented ones exist
    for name, family in families.items():
        assert family["type"] is not None, f"{name} missing # TYPE"
    for expected in (
        "repro_jobs_submitted_total",
        "repro_jobs_finished_total",
        "repro_job_run_seconds",
        "repro_http_requests_total",
        "repro_designs_resolved_total",
        "repro_stage_resolve_seconds",
        "repro_cache_ops_total",
    ):
        assert expected in families, f"{expected} not exported"

    # histogram invariants on the run-duration family
    run = families["repro_job_run_seconds"]
    assert run["type"] == "histogram"
    buckets = [
        (labels, value)
        for name, labels, value in run["samples"]
        if name.endswith("_bucket") and labels.get("kind") == "evaluate"
    ]
    assert buckets and buckets[-1][0]["le"] == "+Inf"
    counts = [int(value) for _, value in buckets]
    assert counts == sorted(counts)
    count_sample = next(
        value
        for name, labels, value in run["samples"]
        if name.endswith("_count") and labels.get("kind") == "evaluate"
    )
    assert int(count_sample) == counts[-1] >= 1

    # the finished-jobs counter saw this job
    finished = {
        labels["state"]: float(value)
        for name, labels, value in families["repro_jobs_finished_total"]["samples"]
        if name == "repro_jobs_finished_total"
    }
    assert finished.get("succeeded", 0) >= 1


def test_metrics_rejects_non_get(client):
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/metrics", payload={})
    assert excinfo.value.status == 405


def test_trace_endpoint_returns_spans(client):
    job = client.run(
        {"kind": "evaluate", "designs": [{"config": "B2"}]}, timeout=120.0
    )
    assert job["state"] == "succeeded"

    document = client.trace(limit=50)
    assert document["tracer"]["enabled"] is True
    spans = document["spans"]
    assert spans, "tracer returned no spans after a job ran"
    names = {span["name"] for span in spans}
    assert "service.job" in names
    for span in spans:
        assert isinstance(span["duration_s"], float)
        assert span["span_id"]
    # the service.job span parents the runtime spans of the same trace
    job_span = next(s for s in spans if s["name"] == "service.job")
    children = [s for s in spans if s.get("parent_id") == job_span["span_id"]]
    assert any(child["name"] == "runtime.evaluate_many" for child in children)


def test_stats_folds_in_registry_and_tracer(client):
    document = client.stats()
    assert "metrics" in document and "tracing" in document
    assert "repro_jobs_submitted_total" in document["metrics"]
    assert set(document["tracing"]) >= {"enabled", "capacity", "buffered"}
