"""JSON-over-HTTP front-end of the exploration service (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no web
framework, one connection per request — exposing the scheduler as a REST-ish
API:

====================  ======================================================
``POST /jobs``        submit a job (``evaluate`` / ``explore`` /
                      ``resilience`` / ``stream``); 202 on fresh submission,
                      200 when the request coalesced onto an in-flight job or
                      was served from a completed one
``GET /jobs``         list job status documents (no results)
``GET /jobs/{id}``    one job's status + result
``GET /jobs/{id}/events``  long-poll progress events (``?after=N&timeout=S``);
                      with ``Accept: text/event-stream`` the same events are
                      served as Server-Sent Events until the job finishes
``POST /jobs/{id}/chunks`` append samples to a push-mode stream job
                      (``{"samples": [...], "final": bool}``)
``DELETE /jobs/{id}`` cooperative cancellation
``GET /healthz``      liveness + library version
``GET /stats``        job counters (incl. dropped events + expired jobs),
                      cache hit/eviction rates (entry + byte budgets),
                      stage-graph hit rates with reuse classes (cross-record
                      and warm hits of the input-addressed node store, plus
                      stale entries purged on a key-schema change), the
                      compiled-LUT registry footprint, per-workload telemetry,
                      and a full metrics-registry snapshot (JSON)
``GET /metrics``      the metrics registry in Prometheus text exposition
                      format (the one non-JSON endpoint besides SSE)
``GET /trace``        recent spans from the in-memory trace ring
                      (``?limit=N``, default 200) plus tracer state
====================  ======================================================

Errors are JSON too: 400 for malformed payloads (:exc:`BadRequest`), 404 for
unknown jobs/paths, 405 for wrong methods, 413 for oversized bodies, 503
when the job table is full (:exc:`ServiceBusy`).

:class:`ServiceServer` runs on an existing event loop (the CLI's ``serve``
command); :class:`ServiceThread` hosts a scheduler + server on a background
loop for tests, examples and embedding into synchronous programs.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.fingerprint import library_version
from ..obs import metrics as obs_metrics
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE
from ..obs.tracing import configure_tracing, get_tracer
from .jobs import BadRequest, ServiceBusy
from .scheduler import JobScheduler, RuntimeProvider

__all__ = ["ServiceServer", "ServiceThread", "DEFAULT_PORT"]

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 8377

#: Submission bodies larger than this are refused with a 413.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_-]+)$")
_EVENTS_PATH = re.compile(r"^/jobs/([A-Za-z0-9_-]+)/events$")
_CHUNKS_PATH = re.compile(r"^/jobs/([A-Za-z0-9_-]+)/chunks$")

_HTTP_REQUESTS = obs_metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by normalized route, method and status.",
    labelnames=("route", "method", "status"),
)


def _route_label(path: str) -> str:
    """Normalize a request path to a bounded route label."""
    if path in ("/jobs", "/healthz", "/stats", "/metrics", "/trace"):
        return path
    if _JOB_PATH.match(path):
        return "/jobs/{id}"
    if _EVENTS_PATH.match(path):
        return "/jobs/{id}/events"
    if _CHUNKS_PATH.match(path):
        return "/jobs/{id}/chunks"
    return "other"


class _HttpError(Exception):
    """Internal: carries an HTTP status + message to the response writer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """The HTTP API bound to one :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        tracing: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: Enable in-memory ring tracing on start so ``/trace`` has spans to
        #: serve.  The tracer is process-global and stays enabled on stop.
        self.tracing = tracing
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        Port 0 picks a free ephemeral port (the bound port is recorded on
        :attr:`port`).
        """
        if self.tracing and not get_tracer().enabled:
            configure_tracing(enabled=True)
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until the task is cancelled."""
        assert self._server is not None, "start() was not called"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and shut the scheduler down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.shutdown()

    # ------------------------------------------------------------- plumbing
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body, headers = await self._read_request(
                    reader
                )
            except _HttpError as error:
                status, payload = error.status, {"error": str(error)}
            else:
                if path == "/metrics" and method == "GET":
                    # Raw Prometheus text, not JSON: served before _dispatch
                    # the same way SSE is.
                    text = obs_metrics.get_registry().render_prometheus()
                    _HTTP_REQUESTS.labels("/metrics", "GET", "200").inc()
                    await self._respond(
                        writer, 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                    )
                    return
                sse_match = _EVENTS_PATH.match(path)
                if (
                    sse_match
                    and method == "GET"
                    and "text/event-stream" in headers.get("accept", "")
                ):
                    _HTTP_REQUESTS.labels(
                        "/jobs/{id}/events", method, "200"
                    ).inc()
                    await self._serve_sse(writer, sse_match.group(1), query)
                    return
                status, payload = await self._dispatch(method, path, query, body)
                _HTTP_REQUESTS.labels(
                    _route_label(path), method, str(status)
                ).inc()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # noqa: BLE001 - keep the server alive
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._respond(writer, status, data)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        """Write one complete response and close the connection."""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - client went away
            pass

    async def _serve_sse(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        query: Dict[str, str],
    ) -> None:
        """Stream a job's events as Server-Sent Events until it finishes.

        Frames carry the event ``seq`` as the SSE ``id`` and the event JSON
        as ``data``; a final ``event: end`` frame announces the terminal
        state so clients know the stream is complete (rather than broken).
        """
        scheduler = self.scheduler
        after = self._int_param(query, "after", 0)
        try:
            scheduler.get(job_id)
        except KeyError:
            data = json.dumps({"error": "no such job"}).encode("utf-8")
            await self._respond(writer, 404, data)
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("ascii"))
            await writer.drain()
            while True:
                events = await scheduler.wait_for_events(
                    job_id, after=after, timeout=10.0
                )
                job = scheduler.get(job_id)
                for event in events:
                    frame = (
                        f"id: {event['seq']}\n"
                        f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    )
                    writer.write(frame.encode("utf-8"))
                    after = int(event["seq"]) + 1  # type: ignore[arg-type]
                await writer.drain()
                if job.done and job.events.total <= after:
                    end = json.dumps({"state": job.state, "next": after})
                    writer.write(f"event: end\ndata: {end}\n\n".encode("utf-8"))
                    await writer.drain()
                    break
        except (ConnectionError, KeyError):
            pass  # client went away, or the job expired mid-stream
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str], Optional[object], Dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = await reader.readexactly(length) if length > 0 else b""
        body: Optional[object] = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as error:
                raise _HttpError(400, f"request body is not valid JSON: {error}")
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        return method.upper(), split.path, query, body, headers

    # -------------------------------------------------------------- routing
    async def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[object],
    ) -> Tuple[int, Dict[str, object]]:
        scheduler = self.scheduler
        try:
            if path == "/healthz":
                self._require_method(method, "GET")
                return 200, {
                    "status": "ok",
                    "service": "repro.service",
                    "version": library_version(),
                }
            if path == "/stats":
                self._require_method(method, "GET")
                return 200, scheduler.stats()
            if path == "/metrics":
                # GET /metrics is intercepted upstream and answered as raw
                # Prometheus text; only wrong methods reach this route.
                self._require_method(method, "GET")
            if path == "/trace":
                self._require_method(method, "GET")
                tracer = get_tracer()
                limit = self._int_param(query, "limit", 200)
                return 200, {
                    "spans": tracer.spans(limit=limit),
                    "tracer": tracer.info(),
                }
            if path == "/jobs":
                if method == "POST":
                    job, coalesced, cached = await scheduler.submit(body)
                    status = 200 if (coalesced or cached) else 202
                    return status, {
                        "job": job.describe(include_result=cached),
                        "coalesced": coalesced,
                        "cached": cached,
                    }
                self._require_method(method, "GET", "POST")
                return 200, {
                    "jobs": [
                        job.describe(include_result=False)
                        for job in scheduler.jobs()
                    ]
                }
            match = _JOB_PATH.match(path)
            if match:
                job_id = match.group(1)
                if method == "DELETE":
                    cancelled = scheduler.cancel(job_id)
                    return 200, {
                        "cancelled": cancelled,
                        "job": scheduler.get(job_id).describe(),
                    }
                self._require_method(method, "GET", "DELETE")
                return 200, {"job": scheduler.get(job_id).describe()}
            match = _EVENTS_PATH.match(path)
            if match:
                self._require_method(method, "GET")
                job_id = match.group(1)
                after = self._int_param(query, "after", 0)
                timeout = self._float_param(query, "timeout", 10.0)
                events = await scheduler.wait_for_events(
                    job_id, after=after, timeout=min(timeout, 60.0)
                )
                job = scheduler.get(job_id)
                # "next" comes from the last event's seq, not after+len:
                # the ring buffer may have dropped events between the two.
                next_seq = (
                    int(events[-1]["seq"]) + 1 if events else after
                )
                return 200, {
                    "id": job.id,
                    "state": job.state,
                    "events": events,
                    "next": next_seq,
                    "dropped": job.events.dropped,
                }
            match = _CHUNKS_PATH.match(path)
            if match:
                self._require_method(method, "POST")
                if not isinstance(body, dict):
                    raise BadRequest("request body must be a JSON object")
                ack = scheduler.push_chunk(
                    match.group(1),
                    body.get("samples"),
                    final=body.get("final", False),
                )
                return 200, ack
            return 404, {"error": f"no such endpoint: {path}"}
        except BadRequest as error:
            return 400, {"error": str(error)}
        except ServiceBusy as error:
            return 503, {"error": str(error)}
        except KeyError:
            return 404, {"error": "no such job"}
        except _HttpError as error:
            return error.status, {"error": str(error)}

    @staticmethod
    def _require_method(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise _HttpError(
                405, f"method {method} not allowed (expected {'/'.join(allowed)})"
            )

    @staticmethod
    def _int_param(query: Dict[str, str], name: str, default: int) -> int:
        try:
            return int(query.get(name, default))
        except (TypeError, ValueError):
            raise _HttpError(400, f"query parameter {name!r} must be an integer")

    @staticmethod
    def _float_param(query: Dict[str, str], name: str, default: float) -> float:
        try:
            return float(query.get(name, default))
        except (TypeError, ValueError):
            raise _HttpError(400, f"query parameter {name!r} must be a number")


class ServiceThread:
    """Hosts a scheduler + HTTP server on a background event loop.

    The synchronous-world adapter used by tests, examples and the throughput
    benchmark::

        service = ServiceThread(provider=RuntimeProvider(...))
        host, port = service.start()
        ...  # drive it with ServiceClient(host, port)
        service.stop()

    Also usable as a context manager.
    """

    def __init__(
        self,
        provider: Optional[RuntimeProvider] = None,
        scheduler: Optional[JobScheduler] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 2,
        event_backlog: int = 1024,
        job_ttl_s: Optional[float] = 3600.0,
    ) -> None:
        self.scheduler = scheduler or JobScheduler(
            provider,
            max_concurrency=max_concurrency,
            event_backlog=event_backlog,
            job_ttl_s=job_ttl_s,
        )
        self.server = ServiceServer(self.scheduler, host=host, port=port)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return self.server.host, self.server.port

    def start(self) -> Tuple[str, int]:
        """Start the background loop; blocks until the server is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def stop(self) -> None:
        """Stop the server and join the background thread."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup races
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.stop()
