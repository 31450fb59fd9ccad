"""Fixtures for the job-orchestration service tests.

Service tests run real pipeline evaluations through the full HTTP stack
(that is the point: a job's result must be bit-identical to a direct
runtime run), so they use the same ~4 s record as the runtime tests.
"""

from __future__ import annotations

import pytest

from repro.service import RuntimeProvider, ServiceClient, ServiceThread

#: Default workload of every test service (short record => fast evaluations).
SERVICE_RECORDS = ("16265",)
SERVICE_DURATION_S = 4.0


@pytest.fixture()
def service():
    """A fresh service on an ephemeral port (fresh counters per test)."""
    provider = RuntimeProvider(
        default_records=SERVICE_RECORDS,
        default_duration_s=SERVICE_DURATION_S,
    )
    with ServiceThread(provider=provider, max_concurrency=2) as thread:
        yield thread


@pytest.fixture()
def client(service):
    host, port = service.address
    return ServiceClient(host, port, timeout=60.0)
