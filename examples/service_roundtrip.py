"""End-to-end round trip through the job-orchestration service.

Starts ``python -m repro serve`` as a real subprocess on a free port, submits
a small exploration job through :class:`repro.service.ServiceClient`, polls
it to completion over the long-poll events endpoint, and asserts the result
is bit-identical to running the same exploration directly on an
:class:`repro.runtime.ExplorationRuntime` — the CI gate for the service
layer, and a template for driving the service from scripts.

Run with::

    PYTHONPATH=src python examples/service_roundtrip.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core import QualityConstraint  # noqa: E402
from repro.runtime import ExplorationRuntime  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.jobs import execute_explore  # noqa: E402
from repro.signals import load_record  # noqa: E402

RECORD = "16265"
DURATION_S = 4.0
MAX_DESIGNS = 4


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main() -> int:
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--records", RECORD,
            "--duration", str(DURATION_S),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    try:
        # Wait for the server to come up.
        for _ in range(100):
            try:
                health = client.healthz()
                break
            except OSError:
                if server.poll() is not None:
                    print(server.stdout.read())
                    raise SystemExit("server exited before becoming healthy")
                time.sleep(0.2)
        else:
            raise SystemExit("server never became healthy")
        print(f"server healthy on port {port}: {health}")

        # Submit a small exploration job and follow it to completion.
        submission = client.submit_explore(max_designs=MAX_DESIGNS)
        job_id = submission["job"]["id"]
        print(f"submitted exploration job {job_id}")
        job = client.wait(job_id, timeout=600)
        print(f"job {job_id} finished: {job['state']}")
        assert job["state"] == "succeeded", job
        served = job["result"]

        # Ground truth: the same exploration, directly on the runtime.
        record = load_record(RECORD, duration_s=DURATION_S)
        runtime = ExplorationRuntime([record])
        direct = execute_explore(
            runtime, QualityConstraint("psnr", 15.0), max_designs=MAX_DESIGNS
        )
        assert served == direct, "service result differs from the direct run"
        print(
            f"service result is bit-identical to the direct runtime run "
            f"({served['designs_evaluated']} designs, "
            f"{served['feasible']} feasible)"
        )

        stats = client.stats()
        print(f"service stats: {stats['jobs']}")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
