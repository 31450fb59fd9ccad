"""HTTP API: endpoints, long-poll events, 4xx handling, /stats."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import ServiceClient, ServiceError

EVALUATE_B9 = {"kind": "evaluate", "designs": [{"config": "B9"}]}

#: Distinct single-stage designs: slow enough to observe in-flight states.
SLOW_BATCH = {
    "kind": "evaluate",
    "designs": [{"lsbs": {"lpf": k}} for k in (2, 4, 6, 8, 10, 12)],
}


class TestBasicEndpoints:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["service"] == "repro.service"
        assert doc["version"]

    def test_submit_poll_result(self, client):
        submission = client.submit(EVALUATE_B9)
        job = submission["job"]
        assert not submission["coalesced"] and not submission["cached"]
        assert job["state"] in ("submitted", "running")
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "succeeded"
        evaluations = final["result"]["evaluations"]
        assert len(evaluations) == 1
        assert evaluations[0]["design"]["name"] == "B9"
        assert evaluations[0]["psnr_db"] > 0

    def test_job_listing_contains_submitted_jobs(self, client):
        submission = client.submit(EVALUATE_B9)
        client.wait(submission["job"]["id"], timeout=120)
        listing = client.jobs()
        assert [job["id"] for job in listing] == [submission["job"]["id"]]
        # Listings omit results (status documents only).
        assert "result" not in listing[0]

    def test_events_long_poll_streams_progress(self, client):
        submission = client.submit(SLOW_BATCH)
        job_id = submission["job"]["id"]
        collected = []
        after = 0
        while True:
            doc = client.events(job_id, after=after, timeout=5.0)
            collected.extend(doc["events"])
            after = doc["next"]
            if doc["state"] in ("succeeded", "failed", "cancelled"):
                break
        types = [event["type"] for event in collected]
        assert "progress" in types
        states = [e["state"] for e in collected if e["type"] == "state"]
        assert states[0] == "submitted" and states[-1] == "succeeded"
        # Events are sequenced for resumable polling.
        assert [e["seq"] for e in collected] == list(range(len(collected)))

    def test_cancellation_over_http(self, client):
        submission = client.submit(SLOW_BATCH)
        job_id = submission["job"]["id"]
        # Wait until it is actually running, then cancel.
        client.events(job_id, after=0, timeout=5.0)
        answer = client.cancel(job_id)
        final = client.wait(job_id, timeout=120)
        if answer["cancelled"]:
            assert final["state"] == "cancelled"
            assert final["result"] is None
        else:  # pragma: no cover - job won the race; still a valid outcome
            assert final["state"] == "succeeded"


class TestCoalescingOverHttp:
    def test_duplicate_submission_coalesces_in_flight(self, client):
        first = client.submit(SLOW_BATCH)
        second = client.submit(SLOW_BATCH)
        assert second["coalesced"]
        assert second["job"]["id"] == first["job"]["id"]
        final = client.wait(first["job"]["id"], timeout=180)
        assert final["state"] == "succeeded"
        assert final["coalesced"] == 1

    def test_repeat_submission_served_from_cache(self, client):
        first = client.submit(EVALUATE_B9)
        client.wait(first["job"]["id"], timeout=120)
        second = client.submit(EVALUATE_B9)
        assert second["cached"] and not second["coalesced"]
        assert second["job"]["state"] == "succeeded"
        assert second["job"]["from_cache"]
        # Cached submissions return the result inline, no polling needed.
        assert second["job"]["result"]["evaluations"]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "bogus"},
            {"kind": "evaluate"},
            {"kind": "evaluate", "designs": [{"config": "Z99"}]},
            {"kind": "resilience", "stages": ["warp_core"]},
            ["not", "an", "object"],
        ],
    )
    def test_invalid_payloads_get_400(self, client, payload):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "explore", "threshold": float("nan")},
            {"kind": "explore", "threshold": float("-inf")},
            {
                "kind": "stream",
                "source": "push",
                "idle_timeout_s": float("inf"),
                "realtime_factor": float("inf"),
            },
            {"kind": "stream", "source": "push", "idle_timeout_s": float("inf")},
            {"kind": "stream", "realtime_factor": float("inf")},
            # int(Infinity) raises OverflowError: once a 500, now a 400.
            {"kind": "explore", "max_designs": float("inf")},
            {"kind": "evaluate", "designs": [{"lsbs": {"lpf": float("inf")}}]},
        ],
        ids=[
            "threshold-nan", "threshold-neg-inf", "idle-and-pace-inf",
            "idle-inf", "pace-inf", "max-designs-inf", "lsbs-inf",
        ],
    )
    def test_non_finite_numbers_get_400(self, client, payload):
        # json.dumps writes the NaN / Infinity tokens json.loads accepts.
        with pytest.raises(ServiceError) as excinfo:
            accepted = client.submit(payload)
            # Reached only if the payload was accepted: stop the job, since a
            # push session with an infinite idle timeout would never end.
            client.cancel(accepted["job"]["id"])
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]

    @pytest.mark.parametrize(
        "payload, field",
        [
            (
                {"kind": "evaluate", "designs": [{"lsbs": {"lpf": 2.7, "hpf": True}}]},
                "designs[0].lsbs.lpf",
            ),
            ({"kind": "explore", "lsb_step": 2.5}, "lsb_step"),
            ({"kind": "explore", "max_designs": True}, "max_designs"),
        ],
        ids=["lsbs-fraction", "lsb-step-fraction", "max-designs-bool"],
    )
    def test_non_integral_integer_fields_get_400_naming_the_field(
        self, client, payload, field
    ):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert f"{field} must be an integer" in excinfo.value.payload["error"]

    def test_a_record_shorter_than_one_sample_gets_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "stream", "duration_s": 0.001})
        assert excinfo.value.status == 400
        assert "one sample period" in excinfo.value.payload["error"]

    def test_a_record_too_short_to_score_fails_the_job(self, client):
        final = client.run(
            {"kind": "evaluate", "designs": [{"config": "B9"}],
             "duration_s": 0.005}
        )
        assert final["state"] == "failed"
        assert final["error"] == (
            "record 16265 is too short to score: its accurate pre-processed "
            "output is constant"
        )

    def test_invalid_json_body_gets_400(self, service):
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request(
            "POST", "/jobs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_unknown_job_gets_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.events("job-424242", timeout=0.1)
        assert excinfo.value.status == 404

    def test_unknown_path_gets_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_gets_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/jobs", payload={})
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/healthz", payload={})
        assert excinfo.value.status == 405

    def test_bad_query_parameter_gets_400(self, client):
        submission = client.submit(EVALUATE_B9)
        job_id = submission["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{job_id}/events?after=soon")
        assert excinfo.value.status == 400
        client.wait(job_id, timeout=120)


class TestCapacityOverHttp:
    def test_full_job_table_gets_503(self):
        from repro.service import JobScheduler, RuntimeProvider, ServiceThread

        provider = RuntimeProvider(
            default_records=("16265",),
            default_duration_s=4.0,
        )
        scheduler = JobScheduler(provider, max_concurrency=1, max_jobs=1)
        with ServiceThread(scheduler=scheduler) as service:
            client = ServiceClient(*service.address, timeout=60.0)
            first = client.submit(SLOW_BATCH)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(EVALUATE_B9)
            assert excinfo.value.status == 503
            client.wait(first["job"]["id"], timeout=180)


class TestStatsEndpoint:
    def test_stats_reflect_jobs_and_caches(self, client):
        first = client.submit(EVALUATE_B9)
        client.wait(first["job"]["id"], timeout=120)
        client.submit(EVALUATE_B9)  # served from cache
        stats = client.stats()
        jobs = stats["jobs"]
        assert jobs["total"] == 2
        assert jobs["executed"] == 1
        assert jobs["served_from_cache"] == 1
        cache = stats["runtime"]["result_cache"]
        assert cache["puts"] >= 1
        assert "evictions" in cache
        assert cache["entries"] >= 1
        workloads = stats["runtime"]["workloads"]
        assert workloads and workloads[0]["records"] == ["16265"]
        assert set(workloads[0]) == {"records", "duration_s", "telemetry"}
        assert "stage_hit_rate" in workloads[0]["telemetry"]
