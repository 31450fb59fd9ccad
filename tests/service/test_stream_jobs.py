"""Stream jobs over the real HTTP stack: replay, push, SSE, backlog, GC.

The acceptance criterion for the streaming subsystem at the service layer:
a live ``stream`` job (replay or client push) reproduces the offline
pipeline's beat list end to end, and the scheduler survives unbounded event
producers (ring buffer) and long-lived job tables (TTL GC).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.configurations import paper_configuration
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.service import (
    RuntimeProvider,
    ServiceClient,
    ServiceError,
    ServiceThread,
)
from repro.signals import load_record

# Mirror the conftest service workload (test modules are imported without a
# package, so the shared constants cannot be imported relatively).
SERVICE_RECORDS = ("16265",)
SERVICE_DURATION_S = 4.0
RECORD_NAME = SERVICE_RECORDS[0]
DESIGN_PAYLOAD = {"config": "B6"}


def offline_beats():
    """Ground truth: the same record/design through the offline pipeline."""
    record = load_record(RECORD_NAME, duration_s=SERVICE_DURATION_S)
    design = paper_configuration("B6")
    result = PanTompkinsPipeline(backends=design.backends()).process(
        record.samples
    )
    return list(result.detection.peak_indices)


@pytest.fixture(scope="module")
def reference_beats():
    return offline_beats()


def test_replay_stream_matches_offline_pipeline(client, reference_beats):
    submission = client.submit_stream(
        record=RECORD_NAME,
        design=DESIGN_PAYLOAD,
        duration_s=SERVICE_DURATION_S,
        chunk_samples=40,
    )
    job = client.wait(submission["job"]["id"], timeout=120)
    assert job["state"] == "succeeded"
    result = job["result"]
    assert result["kind"] == "stream"
    assert result["beats"] == reference_beats
    assert result["beat_count"] == len(reference_beats)
    assert result["design"]["name"] == "B6"
    assert result["samples"] == result["chunks"] * 40 or result["samples"] > 0
    assert result["energy"]["reduction_factor"] > 1.0
    assert result["quality"] is not None
    assert result["latency"]["max_chunk_ms"] >= result["latency"]["mean_chunk_ms"] > 0


def test_push_stream_matches_offline_pipeline(client, reference_beats):
    submission = client.submit_stream(
        design=DESIGN_PAYLOAD,
        source="push",
        record=RECORD_NAME,
        duration_s=SERVICE_DURATION_S,
        idle_timeout_s=30.0,
    )
    job_id = submission["job"]["id"]
    record = load_record(RECORD_NAME, duration_s=SERVICE_DURATION_S)
    samples = np.asarray(record.samples, dtype=np.int64)
    for lo in range(0, samples.size, 100):
        ack = client.push_chunk(job_id, samples[lo : lo + 100].tolist())
        assert ack["received"] >= 1
    client.push_chunk(job_id, [], final=True)
    job = client.wait(job_id, timeout=120)
    assert job["state"] == "succeeded"
    assert job["result"]["beats"] == reference_beats
    assert job["result"]["source"] == "push"


def test_stream_events_carry_live_telemetry(client):
    submission = client.submit_stream(
        record=RECORD_NAME,
        design=DESIGN_PAYLOAD,
        duration_s=SERVICE_DURATION_S,
        chunk_samples=100,
    )
    job = client.wait(submission["job"]["id"], timeout=120)
    document = client.events(job["id"], after=0, timeout=1.0)
    chunk_events = [
        event for event in document["events"] if event.get("type") == "chunk"
    ]
    assert chunk_events, "replay stream emitted no chunk events"
    last = chunk_events[-1]
    # The last live report may lag the final count: tail candidates inside
    # the alignment horizon are only confirmed by the finalize flush.
    assert last["beat_count"] <= job["result"]["beat_count"]
    assert last["total_samples"] == job["result"]["samples"]
    assert "energy" in last and "cumulative_fj" in last["energy"]


def test_sse_stream_delivers_chunks_and_end(client):
    submission = client.submit_stream(
        record=RECORD_NAME,
        design=DESIGN_PAYLOAD,
        duration_s=SERVICE_DURATION_S,
        chunk_samples=100,
    )
    events = list(client.events_stream(submission["job"]["id"], timeout=60.0))
    assert events, "SSE stream yielded nothing"
    assert events[-1]["type"] == "end"
    assert events[-1]["state"] == "succeeded"
    kinds = {event.get("type") for event in events}
    assert "chunk" in kinds
    chunk_events = [e for e in events if e.get("type") == "chunk"]
    totals = [e["total_samples"] for e in chunk_events]
    assert totals == sorted(totals)


def test_stream_jobs_never_coalesce(client):
    first = client.submit_stream(
        record=RECORD_NAME, duration_s=SERVICE_DURATION_S
    )
    second = client.submit_stream(
        record=RECORD_NAME, duration_s=SERVICE_DURATION_S
    )
    assert first["job"]["id"] != second["job"]["id"]
    assert not second["coalesced"]
    assert not second["cached"]
    client.wait(first["job"]["id"], timeout=120)
    client.wait(second["job"]["id"], timeout=120)


class TestChunkRouteErrors:
    def test_push_to_non_stream_job_is_rejected(self, client):
        submission = client.submit_evaluate(
            [DESIGN_PAYLOAD], duration_s=SERVICE_DURATION_S
        )
        job_id = submission["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.push_chunk(job_id, [1, 2, 3])
        assert excinfo.value.status == 400
        client.wait(job_id, timeout=120)

    def test_push_to_replay_job_is_rejected(self, client):
        submission = client.submit_stream(
            record=RECORD_NAME, duration_s=SERVICE_DURATION_S
        )
        job_id = submission["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.push_chunk(job_id, [1, 2, 3])
        assert excinfo.value.status == 400
        client.wait(job_id, timeout=120)

    def test_push_to_finished_job_is_rejected(self, client):
        submission = client.submit_stream(
            design=DESIGN_PAYLOAD,
            source="push",
            record=RECORD_NAME,
            duration_s=SERVICE_DURATION_S,
        )
        job_id = submission["job"]["id"]
        client.push_chunk(job_id, [0] * 32, final=True)
        client.wait(job_id, timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            client.push_chunk(job_id, [1, 2, 3])
        assert excinfo.value.status == 400

    def test_push_after_final_is_rejected(self, client, reference_beats):
        submission = client.submit_stream(
            design=DESIGN_PAYLOAD,
            source="push",
            record=RECORD_NAME,
            duration_s=SERVICE_DURATION_S,
        )
        job_id = submission["job"]["id"]
        samples = load_record(
            RECORD_NAME, duration_s=SERVICE_DURATION_S
        ).samples.tolist()
        client.push_chunk(job_id, samples, final=True)
        # Refused whether the job is still running or already done.
        with pytest.raises(ServiceError) as excinfo:
            client.push_chunk(job_id, [1, 2, 3])
        assert excinfo.value.status == 400
        message = excinfo.value.payload["error"]
        assert job_id in message and "final chunk" in message
        job = client.wait(job_id, timeout=120)
        assert job["state"] == "succeeded"
        assert job["result"]["samples"] == len(samples)
        assert job["result"]["beats"] == reference_beats

    def test_malformed_samples_are_rejected(self, client):
        submission = client.submit_stream(
            source="push", record=RECORD_NAME, duration_s=SERVICE_DURATION_S
        )
        job_id = submission["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/jobs/{job_id}/chunks",
                payload={"samples": "not-a-list"},
            )
        assert excinfo.value.status == 400
        client.push_chunk(job_id, [0] * 16, final=True)
        client.wait(job_id, timeout=120)

    def test_samples_must_be_adc_codes(self, client, reference_beats):
        submission = client.submit_stream(
            design=DESIGN_PAYLOAD,
            source="push",
            record=RECORD_NAME,
            duration_s=SERVICE_DURATION_S,
        )
        job_id = submission["job"]["id"]
        # A float, a boolean, and one past each end of the 16-bit ADC range.
        for bad in (1.5, True, 32768, -32769):
            with pytest.raises(ServiceError) as excinfo:
                client.push_chunk(job_id, [0, bad])
            assert excinfo.value.status == 400
            assert "samples[1]" in excinfo.value.payload["error"]
        # None of the rejected chunks was queued: the session sees exactly
        # the record.
        record = load_record(RECORD_NAME, duration_s=SERVICE_DURATION_S)
        samples = record.samples.tolist()
        ack = client.push_chunk(job_id, samples, final=True)
        assert ack["received"] == len(samples)
        job = client.wait(job_id, timeout=120)
        assert job["state"] == "succeeded"
        assert job["result"]["samples"] == len(samples)
        assert job["result"]["beats"] == reference_beats

    # A string, a number or null is no boolean, whatever its truth.
    @pytest.mark.parametrize(
        "bad", ["false", 1, None], ids=["string", "number", "null"]
    )
    def test_final_must_be_a_json_boolean(self, client, reference_beats, bad):
        submission = client.submit_stream(
            design=DESIGN_PAYLOAD,
            source="push",
            record=RECORD_NAME,
            duration_s=SERVICE_DURATION_S,
        )
        job_id = submission["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/jobs/{job_id}/chunks",
                payload={"samples": [0, 1], "final": bad},
            )
        assert excinfo.value.status == 400
        assert "final" in excinfo.value.payload["error"]
        # The refused chunk neither ended the stream nor was queued.
        record = load_record(RECORD_NAME, duration_s=SERVICE_DURATION_S)
        samples = record.samples.tolist()
        ack = client.push_chunk(job_id, samples, final=True)
        assert ack["received"] == len(samples)
        job = client.wait(job_id, timeout=120)
        assert job["state"] == "succeeded"
        assert job["result"]["samples"] == len(samples)
        assert job["result"]["beats"] == reference_beats

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.push_chunk("no-such-job", [1])
        assert excinfo.value.status == 404


def test_event_backlog_ring_buffer_drops_and_reports():
    """A tiny backlog forces drops; counters surface in the job and /stats."""
    provider = RuntimeProvider(
        default_records=SERVICE_RECORDS,
        default_duration_s=SERVICE_DURATION_S,
    )
    with ServiceThread(
        provider=provider, max_concurrency=2, event_backlog=4
    ) as service:
        host, port = service.address
        client = ServiceClient(host, port, timeout=60.0)
        submission = client.submit_stream(
            record=RECORD_NAME,
            duration_s=SERVICE_DURATION_S,
            chunk_samples=25,  # many chunk events vs a backlog of 4
        )
        job = client.wait(submission["job"]["id"], timeout=120)
        assert job["state"] == "succeeded"
        assert job["events_dropped"] > 0
        # Long-poll readers still get a consistent view: the next cursor
        # advances past the dropped region instead of replaying stale seqs.
        document = client.events(job["id"], after=0, timeout=1.0)
        assert document["dropped"] == job["events_dropped"]
        seqs = [event["seq"] for event in document["events"]]
        assert seqs == sorted(seqs)
        assert document["next"] == seqs[-1] + 1

        stats = client.stats()
        assert stats["jobs"]["events_dropped"] >= job["events_dropped"]
        assert stats["jobs"]["event_backlog"] == 4


def test_completed_job_ttl_gc():
    """Terminal jobs expire after ``job_ttl_s`` and free table capacity."""
    provider = RuntimeProvider(
        default_records=SERVICE_RECORDS,
        default_duration_s=SERVICE_DURATION_S,
    )
    with ServiceThread(
        provider=provider, max_concurrency=2, job_ttl_s=1.0
    ) as service:
        host, port = service.address
        client = ServiceClient(host, port, timeout=60.0)
        submission = client.submit_stream(
            record=RECORD_NAME, duration_s=SERVICE_DURATION_S
        )
        job_id = submission["job"]["id"]
        client.wait(job_id, timeout=120)

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = client.stats()
            if stats["jobs"]["expired"] >= 1:
                break
            time.sleep(0.25)
        assert stats["jobs"]["expired"] >= 1
        assert stats["jobs"]["job_ttl_s"] == 1.0
        with pytest.raises(ServiceError) as excinfo:
            client.job(job_id)
        assert excinfo.value.status == 404
