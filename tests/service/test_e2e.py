"""End-to-end acceptance: HTTP results are bit-identical to direct runs.

The issue's acceptance criteria, verified over a real socket:

* a job submitted over HTTP returns a result bit-identical to calling
  :meth:`ExplorationRuntime.evaluate_many` directly, and
* two concurrent identical submissions execute the underlying evaluation
  exactly once.
"""

from __future__ import annotations

import threading

from repro.runtime import ExplorationRuntime
from repro.runtime.cache import serialize_evaluation
from repro.service import RuntimeProvider, ServiceClient, ServiceThread
from repro.signals import load_record

RECORD_NAME = "16265"
DURATION_S = 4.0

#: Three designs sharing settings prefixes (exercises the stage graph too).
DESIGN_PAYLOADS = [
    {"config": "B2"},
    {"config": "B9"},
    {"lsbs": {"lpf": 4, "hpf": 6}},
]


def direct_evaluations():
    """The ground truth: the same designs through a bare runtime."""
    from repro.service.jobs import JobRequest

    request = JobRequest.from_payload(
        {"kind": "evaluate", "designs": DESIGN_PAYLOADS},
        default_records=(RECORD_NAME,),
        default_duration_s=DURATION_S,
    )
    record = load_record(RECORD_NAME, duration_s=DURATION_S)
    runtime = ExplorationRuntime([record])
    evaluations = runtime.evaluate_many(list(request.designs))
    return [serialize_evaluation(evaluation) for evaluation in evaluations]


def test_http_job_matches_direct_runtime_and_coalesces():
    provider = RuntimeProvider(
        default_records=(RECORD_NAME,),
        default_duration_s=DURATION_S,
    )
    with ServiceThread(provider=provider, max_concurrency=2) as service:
        host, port = service.address
        client = ServiceClient(host, port, timeout=60.0)

        # Two *concurrent* identical submissions from separate client
        # threads: they must coalesce onto one job id.
        payload = {
            "kind": "evaluate",
            "designs": DESIGN_PAYLOADS,
            "records": [RECORD_NAME],
            "duration_s": DURATION_S,
        }
        submissions = [None, None]

        def submit(slot):
            submissions[slot] = client.submit(payload)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {submission["job"]["id"] for submission in submissions}
        assert len(ids) == 1, "identical submissions did not coalesce"
        assert any(s["coalesced"] for s in submissions)

        final = client.wait(ids.pop(), timeout=300)
        assert final["state"] == "succeeded"

        # Bit-identical to the direct runtime run (JSON round-trips floats
        # exactly, so deep equality is bit equality).
        assert final["result"]["evaluations"] == direct_evaluations()

        # A replay of the finished job is answered from its result.
        replay = client.submit(payload)
        assert replay["cached"] and not replay["coalesced"]
        assert replay["job"]["result"] == final["result"]

        # The underlying evaluation ran exactly once per unique design.
        stats = client.stats()
        assert stats["jobs"]["executed"] == 1
        assert stats["jobs"]["coalesced"] == 1
        assert stats["jobs"]["served_from_cache"] == 1
        workload = stats["runtime"]["workloads"][0]
        assert workload["telemetry"]["evaluations"] == len(DESIGN_PAYLOADS)
