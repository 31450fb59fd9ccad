"""Live chunked round trip through the streaming job API.

Starts ``python -m repro serve`` as a real subprocess on a free port, opens a
server-replay ``stream`` job, follows its per-chunk telemetry over the SSE
events endpoint, then drives a second session in client-push mode — and
asserts both beat lists are bit-identical to the offline
:class:`repro.dsp.pan_tompkins.PanTompkinsPipeline` run on the concatenated
signal.  The CI gate for the streaming subsystem, and a template for feeding
live sensors into the service.

Run with::

    PYTHONPATH=src python examples/stream_session.py
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

import numpy as np  # noqa: E402

from repro.core.configurations import paper_configuration  # noqa: E402
from repro.dsp.pan_tompkins import PanTompkinsPipeline  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.signals import load_record  # noqa: E402

RECORD = "16265"
DURATION_S = 6.0
CONFIG = "B6"
CHUNK_SAMPLES = 50


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main() -> int:
    # Ground truth: the offline pipeline on the whole signal.
    record = load_record(RECORD, duration_s=DURATION_S)
    design = paper_configuration(CONFIG)
    offline = PanTompkinsPipeline(backends=design.backends()).process(
        record.samples
    )
    offline_beats = list(offline.detection.peak_indices)
    print(
        f"offline reference: {len(offline_beats)} beats on {RECORD} "
        f"({DURATION_S:.0f} s, {CONFIG})"
    )

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
        for _ in range(100):
            try:
                client.healthz()
                break
            except OSError:
                if server.poll() is not None:
                    print(server.stdout.read())
                    raise SystemExit("server exited before becoming healthy")
                time.sleep(0.2)
        else:
            raise SystemExit("server never became healthy")
        print(f"server healthy on port {port}")

        # --- session 1: server-side replay, followed live over SSE -------
        submission = client.submit_stream(
            record=RECORD,
            design={"config": CONFIG},
            duration_s=DURATION_S,
            chunk_samples=CHUNK_SAMPLES,
        )
        job_id = submission["job"]["id"]
        print(f"replay stream job {job_id} opened, following SSE ...")
        chunk_events = 0
        last = None
        for event in client.events_stream(job_id, timeout=120.0):
            if event.get("type") == "chunk":
                chunk_events += 1
                last = event
            elif event.get("type") == "end":
                print(f"SSE end frame: state={event['state']}")
        assert last is not None, "no chunk telemetry arrived over SSE"
        print(
            f"followed {chunk_events} chunk events; last: "
            f"{last['total_samples']} samples, {last['beat_count']} beats, "
            f"hr={last['heart_rate_bpm']}"
        )
        job = client.job(job_id)
        assert job["state"] == "succeeded", job
        assert job["result"]["beats"] == offline_beats, (
            "replay stream beats differ from the offline pipeline"
        )
        print("replay session beats are bit-identical to the offline run")

        # --- session 2: client-push chunks over POST /jobs/{id}/chunks ---
        submission = client.submit_stream(
            record=RECORD,
            design={"config": CONFIG},
            source="push",
            duration_s=DURATION_S,
            idle_timeout_s=30.0,
        )
        job_id = submission["job"]["id"]
        samples = np.asarray(record.samples, dtype=np.int64)
        for lo in range(0, samples.size, CHUNK_SAMPLES):
            client.push_chunk(job_id, samples[lo : lo + CHUNK_SAMPLES].tolist())
        client.push_chunk(job_id, [], final=True)
        print(
            f"push stream job {job_id}: fed {samples.size} samples in "
            f"{-(-samples.size // CHUNK_SAMPLES)} chunks"
        )
        job = client.wait(job_id, timeout=120)
        assert job["state"] == "succeeded", job
        assert job["result"]["beats"] == offline_beats, (
            "push stream beats differ from the offline pipeline"
        )
        print("push session beats are bit-identical to the offline run")

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
