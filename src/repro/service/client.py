"""Blocking HTTP client of the exploration service (stdlib ``http.client``).

The synchronous counterpart of :mod:`repro.service.server`, used by the
tests, the examples, the throughput benchmark and the CI end-to-end check.
One short-lived connection per request — the server closes connections after
each response, so there is nothing to pool.

>>> client = ServiceClient("127.0.0.1", 8377)
>>> submission = client.submit_evaluate([{"config": "B9"}], duration_s=4.0)
>>> job = client.wait(submission["job"]["id"])
>>> job["result"]["evaluations"][0]["psnr_db"]  # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence

from .jobs import TERMINAL_STATES

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-2xx answer from the service (carries status and error payload)."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        message = payload.get("error", "unknown error")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Small blocking client for the job-orchestration API."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8377, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------ transport
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        document = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ServiceError(response.status, document)
        return document

    def _request_text(
        self, method: str, path: str, timeout: Optional[float] = None
    ) -> str:
        """Like :meth:`_request` but for non-JSON (text) endpoints."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            connection.request(method, path)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status >= 400:
            try:
                document = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                document = {"error": raw.decode("utf-8", "replace")}
            raise ServiceError(response.status, document)
        return raw.decode("utf-8")

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, object]:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """``GET /metrics`` — Prometheus text exposition format."""
        return self._request_text("GET", "/metrics")

    def trace(self, limit: int = 200) -> Dict[str, object]:
        """``GET /trace`` — recent spans plus tracer state."""
        return self._request("GET", f"/trace?limit={int(limit)}")

    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST /jobs`` with a raw job payload."""
        return self._request("POST", "/jobs", payload=payload)

    def jobs(self) -> List[Dict[str, object]]:
        """``GET /jobs`` — status documents of every known job."""
        return self._request("GET", "/jobs")["jobs"]  # type: ignore[return-value]

    def job(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/{id}`` — one job's status + result."""
        return self._request("GET", f"/jobs/{job_id}")["job"]  # type: ignore[return-value]

    def events(
        self, job_id: str, after: int = 0, timeout: float = 10.0
    ) -> Dict[str, object]:
        """``GET /jobs/{id}/events`` — long-poll progress events."""
        return self._request(
            "GET",
            f"/jobs/{job_id}/events?after={int(after)}&timeout={float(timeout)}",
            timeout=timeout + self.timeout,
        )

    def cancel(self, job_id: str) -> Dict[str, object]:
        """``DELETE /jobs/{id}`` — cooperative cancellation."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def push_chunk(
        self,
        job_id: str,
        samples: Sequence[int],
        final: bool = False,
    ) -> Dict[str, object]:
        """``POST /jobs/{id}/chunks`` — feed samples to a push-mode stream.

        The samples go out as given (a numpy array as its ``tolist()``); the
        server refuses any that is not a 16-bit ADC code.
        """
        values = samples.tolist() if hasattr(samples, "tolist") else list(samples)
        return self._request(
            "POST",
            f"/jobs/{job_id}/chunks",
            payload={"samples": values, "final": final},
        )

    def events_stream(
        self,
        job_id: str,
        after: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, object]]:
        """``GET /jobs/{id}/events`` as Server-Sent Events.

        Yields one event dict per SSE frame until the server's ``end`` frame
        (the job reached a terminal state) or the connection closes.  The
        final ``end`` payload (``{"state": ..., "next": ...}``) is yielded
        too, tagged with ``"type": "end"``.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            connection.request(
                "GET",
                f"/jobs/{job_id}/events?after={int(after)}",
                headers={"Accept": "text/event-stream"},
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                document = json.loads(raw) if raw else {}
                raise ServiceError(response.status, document)
            event_name = None
            data_lines: List[str] = []
            while True:
                line = response.fp.readline()
                if not line:
                    break
                line = line.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event:"):
                    event_name = line.partition(":")[2].strip()
                elif line.startswith("data:"):
                    data_lines.append(line.partition(":")[2].strip())
                elif line == "":
                    if data_lines:
                        payload = json.loads("\n".join(data_lines))
                        if event_name == "end":
                            payload["type"] = "end"
                            yield payload
                            return
                        yield payload
                    event_name = None
                    data_lines = []
        finally:
            connection.close()

    # ---------------------------------------------------------- convenience
    def submit_evaluate(
        self,
        designs: Sequence[Dict[str, object]],
        records: Optional[Sequence[str]] = None,
        duration_s: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Submit an ``evaluate`` job for a list of design payloads."""
        payload: Dict[str, object] = {
            "kind": "evaluate",
            "designs": list(designs),
            "priority": priority,
        }
        if records is not None:
            payload["records"] = list(records)
        if duration_s is not None:
            payload["duration_s"] = duration_s
        return self.submit(payload)

    def submit_explore(
        self,
        max_designs: Optional[int] = None,
        lsb_step: int = 2,
        metric: str = "psnr",
        threshold: float = 15.0,
        records: Optional[Sequence[str]] = None,
        duration_s: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Submit an ``explore`` job over the pre-processing grid."""
        payload: Dict[str, object] = {
            "kind": "explore",
            "lsb_step": lsb_step,
            "metric": metric,
            "threshold": threshold,
            "priority": priority,
        }
        if max_designs is not None:
            payload["max_designs"] = max_designs
        if records is not None:
            payload["records"] = list(records)
        if duration_s is not None:
            payload["duration_s"] = duration_s
        return self.submit(payload)

    def submit_stream(
        self,
        record: Optional[str] = None,
        design: Optional[Dict[str, object]] = None,
        source: str = "replay",
        chunk_samples: int = 50,
        realtime_factor: float = 0.0,
        duration_s: Optional[float] = None,
        idle_timeout_s: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Submit a ``stream`` job (server replay or client push)."""
        payload: Dict[str, object] = {
            "kind": "stream",
            "source": source,
            "chunk_samples": chunk_samples,
            "realtime_factor": realtime_factor,
            "priority": priority,
        }
        if record is not None:
            payload["records"] = [record]
        if design is not None:
            payload["design"] = design
        if duration_s is not None:
            payload["duration_s"] = duration_s
        if idle_timeout_s is not None:
            payload["idle_timeout_s"] = idle_timeout_s
        return self.submit(payload)

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_timeout: float = 5.0,
    ) -> Dict[str, object]:
        """Follow a job's events until it reaches a terminal state.

        Returns the final status document (with result); raises
        :exc:`TimeoutError` when the job is still live after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        after = 0
        while True:
            document = self.events(job_id, after=after, timeout=poll_timeout)
            after = int(document["next"])  # type: ignore[arg-type]
            if document["state"] in TERMINAL_STATES:
                return self.job(job_id)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {document['state']} after {timeout} s"
                )

    def run(
        self, payload: Dict[str, object], timeout: float = 600.0
    ) -> Dict[str, object]:
        """Submit a payload and block until its terminal status document."""
        submission = self.submit(payload)
        job = submission["job"]
        if submission.get("cached") and job.get("result") is not None:  # type: ignore[union-attr]
            return job  # type: ignore[return-value]
        return self.wait(job["id"], timeout=timeout)  # type: ignore[index]
