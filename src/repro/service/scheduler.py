"""Asyncio job scheduler over the exploration runtime.

Submission flow::

    submit(payload) -> JobRequest.from_payload -> job_key
        in-flight job with the same key?   -> coalesce onto it (one execution)
        completed job with the same key?   -> answer instantly from its result
        otherwise                          -> enqueue by (priority, arrival)

A fixed set of worker tasks drains the priority queue with bounded
concurrency; each job executes in a thread (the runtime is synchronous) via
``loop.run_in_executor``, streaming progress events back onto the loop with
``call_soon_threadsafe``.  Cancellation is cooperative: ``cancel()`` flips
the job's ``cancel_requested`` event, which the execution thread polls at
every runtime progress point and answers by raising
:exc:`~repro.service.jobs.JobCancelled` — so a running batch stops at the
next resolved design, not at the end of the sweep.

:class:`RuntimeProvider` owns the :class:`ExplorationRuntime` instances, one
per record workload, all sharing one result cache and one signal store — the
content-addressed keys make a shared cache safe across workloads.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..arithmetic.compiled import registry_info
from ..core.store import Store
from ..obs import metrics as obs_metrics
from ..obs.tracing import get_tracer, span as obs_span
from ..runtime.cache import MemoryResultCache
from ..runtime.engine import ExplorationRuntime
from ..signals.adc import ADCConfig
from ..signals.records import load_record
from .jobs import (
    CANCELLED,
    FAILED,
    RUNNING,
    SUBMITTED,
    SUCCEEDED,
    BadRequest,
    EventLog,
    Job,
    JobCancelled,
    JobRequest,
    ServiceBusy,
    execute_stream,
)

__all__ = ["RuntimeProvider", "JobScheduler"]

_JOBS_SUBMITTED = obs_metrics.counter(
    "repro_jobs_submitted_total",
    "Job submissions by outcome (new/coalesced/cached).",
    labelnames=("outcome",),
)
_JOBS_FINISHED = obs_metrics.counter(
    "repro_jobs_finished_total",
    "Jobs reaching a terminal state, by state.",
    labelnames=("state",),
)
_JOBS_EXPIRED = obs_metrics.counter(
    "repro_jobs_expired_total",
    "Terminal jobs dropped from the table by TTL garbage collection.",
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "repro_job_queue_depth",
    "Jobs currently waiting in the scheduler's priority queue.",
)
_QUEUE_WAIT = obs_metrics.histogram(
    "repro_job_queue_wait_seconds",
    "Time jobs spend queued before a worker picks them up.",
)
_RUN_SECONDS = obs_metrics.histogram(
    "repro_job_run_seconds",
    "Job execution duration (running to terminal), by job kind.",
    labelnames=("kind",),
)
_EVENTS_DROPPED = obs_metrics.counter(
    "repro_job_events_dropped_total",
    "Per-job progress events discarded by bounded event backlogs.",
)

#: Pushed samples must be codes of the front-end ADC (16-bit signed).
_ADC = ADCConfig()


def _store_stats(store: Store) -> Dict[str, object]:
    """One store's ``/stats`` entry: counters, entries and payload bytes."""
    doc: Dict[str, object] = store.stats.as_dict()
    doc["entries"] = len(store)
    doc["size_bytes"] = store.size_bytes()
    return doc


class RuntimeProvider:
    """Lazily builds one :class:`ExplorationRuntime` per record workload.

    All runtimes share the provider's result cache and signal store; keys
    are content-addressed, so results from different workloads coexist in
    one backend without collisions.
    """

    def __init__(
        self,
        cache: Optional[Store] = None,
        signal_store: Optional[Store] = None,
        default_records: Tuple[str, ...] = ("16265",),
        default_duration_s: float = 10.0,
    ) -> None:
        self.cache: Store = cache if cache is not None else MemoryResultCache()
        self.signal_store = signal_store
        self.default_records = tuple(default_records)
        self.default_duration_s = default_duration_s
        self._runtimes: Dict[Tuple[Tuple[str, ...], float], ExplorationRuntime] = {}
        self._lock = threading.Lock()

    def runtime_for(self, request: JobRequest) -> ExplorationRuntime:
        """The runtime evaluating ``request``'s workload (built on first use).

        Raises :exc:`BadRequest` when a record is too short to score.
        """
        key = request.workload_key
        with self._lock:
            runtime = self._runtimes.get(key)
            if runtime is None:
                names, duration_s = key
                records = [
                    load_record(name, duration_s=duration_s) for name in names
                ]
                try:
                    runtime = ExplorationRuntime(
                        records,
                        cache=self.cache,
                        signal_store=self.signal_store,
                    )
                except ValueError as error:
                    raise BadRequest(str(error)) from None
                self._runtimes[key] = runtime
            return runtime

    def statistics(self) -> Dict[str, object]:
        """Cache, signal-store and per-workload telemetry (for ``/stats``)."""
        doc: Dict[str, object] = {
            "result_cache": _store_stats(self.cache),
            "workloads": [],
            # Compiled-LUT registry footprint (process-wide: every workload's
            # approximate arithmetic runs through the same tables).
            "arithmetic": registry_info(),
        }
        if self.signal_store is not None:
            doc["signal_store"] = _store_stats(self.signal_store)
        with self._lock:
            runtimes = dict(self._runtimes)
        for (names, duration_s), runtime in runtimes.items():
            telemetry = runtime.telemetry.snapshot()
            doc["workloads"].append(
                {
                    "records": list(names),
                    "duration_s": duration_s,
                    "telemetry": telemetry,
                    "stage_hit_rate": telemetry["stage_hit_rate"],
                    "stage_cross_record_hits": (
                        telemetry["stage_cross_record_hits"]
                    ),
                    "stage_warm_hits": telemetry["stage_warm_hits"],
                }
            )
        return doc


class JobScheduler:
    """Priority-queued, coalescing, cancellable job execution.

    All public coroutines/methods must run on the scheduler's event loop;
    the HTTP server shares that loop, and tests drive the scheduler directly
    inside ``asyncio.run``.
    """

    def __init__(
        self,
        provider: Optional[RuntimeProvider] = None,
        max_concurrency: int = 2,
        max_jobs: int = 4096,
        event_backlog: int = 1024,
        job_ttl_s: Optional[float] = 3600.0,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if event_backlog < 1:
            raise ValueError(f"event_backlog must be >= 1, got {event_backlog}")
        if job_ttl_s is not None and job_ttl_s <= 0:
            raise ValueError(f"job_ttl_s must be positive, got {job_ttl_s}")
        self.provider = provider if provider is not None else RuntimeProvider()
        self.max_concurrency = max_concurrency
        self.max_jobs = max_jobs
        self.event_backlog = event_backlog
        self.job_ttl_s = job_ttl_s
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, Job]]" = (
            asyncio.PriorityQueue()
        )
        self._jobs: "Dict[str, Job]" = {}
        self._by_key: Dict[str, Job] = {}
        self._workers: List[asyncio.Task] = []
        self._gc_task: Optional[asyncio.Task] = None
        self._arrival = itertools.count()
        self._job_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Running total of events dropped across every job ever (alive or
        #: expired), maintained at drop time via the event logs' ``on_drop``
        #: hook — ``stats()`` reads it O(1) instead of rescanning the table.
        self._events_dropped = 0
        #: Incremental per-state job counts, maintained on job creation,
        #: state transition and expiry — another O(jobs) scan ``stats()``
        #: no longer performs under the event loop.
        self._state_counts: Dict[str, int] = {}
        self.counters = {
            "submitted": 0,
            "coalesced": 0,
            "served_from_cache": 0,
            "executed": 0,
            "expired": 0,
        }

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Spawn the worker tasks and the job GC (idempotent)."""
        self._loop = asyncio.get_running_loop()
        while len(self._workers) < self.max_concurrency:
            self._workers.append(
                asyncio.create_task(
                    self._worker(), name=f"repro-job-worker-{len(self._workers)}"
                )
            )
        if self._gc_task is None and self.job_ttl_s is not None:
            self._gc_task = asyncio.create_task(
                self._gc_loop(), name="repro-job-gc"
            )

    async def shutdown(self) -> None:
        """Cancel the worker tasks and the job GC."""
        tasks = list(self._workers)
        if self._gc_task is not None:
            tasks.append(self._gc_task)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._gc_task = None

    # ----------------------------------------------------------- submission
    async def submit(self, payload: object) -> Tuple[Job, bool, bool]:
        """Submit a job payload; returns ``(job, coalesced, from_cache)``.

        Raises :exc:`BadRequest` for malformed payloads (mapped to HTTP 400
        by the server layer) and :exc:`ServiceBusy` when the job table is
        full (mapped to 503) — coalescing submissions still succeed at
        capacity, since they add no table entry.
        """
        request = JobRequest.from_payload(
            payload,
            default_records=self.provider.default_records,
            default_duration_s=self.provider.default_duration_s,
        )
        key = request.job_key()
        existing = self._by_key.get(key)
        if existing is not None:
            if not existing.done and not existing.cancel_requested.is_set():
                # Identical request already queued or running: coalesce onto
                # the one execution.  (A cancel-requested job is skipped —
                # the new submitter did not ask for a cancelled result.)
                self.counters["submitted"] += 1
                existing.coalesced += 1
                self.counters["coalesced"] += 1
                _JOBS_SUBMITTED.labels("coalesced").inc()
                return existing, True, False
            if existing.state == SUCCEEDED:
                # Identical request already answered: serve a fresh job
                # straight from the completed result.
                self._require_capacity()
                self.counters["submitted"] += 1
                job = Job(
                    id=self._new_job_id(),
                    request=request,
                    key=key,
                    state=SUCCEEDED,
                    result=existing.result,
                    from_cache=True,
                    events=self._new_event_log(),
                )
                job.started_at = job.finished_at = job.submitted_at
                job.started_monotonic = job.submitted_monotonic
                job.finished_monotonic = job.submitted_monotonic
                job.append_event({"type": "state", "state": SUCCEEDED})
                self._jobs[job.id] = job
                self._bump_state(SUCCEEDED, +1)
                self.counters["served_from_cache"] += 1
                _JOBS_SUBMITTED.labels("cached").inc()
                return job, False, True
            # Failed, cancelled or being cancelled: execute afresh.
        self._require_capacity()
        self.counters["submitted"] += 1
        job = Job(
            id=self._new_job_id(),
            request=request,
            key=key,
            events=self._new_event_log(),
        )
        job.append_event({"type": "state", "state": SUBMITTED})
        self._jobs[job.id] = job
        self._by_key[key] = job
        self._bump_state(SUBMITTED, +1)
        _JOBS_SUBMITTED.labels("new").inc()
        await self._queue.put((request.priority, next(self._arrival), job))
        _QUEUE_DEPTH.set(self._queue.qsize())
        return job, False, False

    def _new_event_log(self) -> EventLog:
        return EventLog(self.event_backlog, on_drop=self._on_event_drop)

    def _on_event_drop(self, count: int) -> None:
        self._events_dropped += count
        _EVENTS_DROPPED.inc(count)

    def _bump_state(self, state: str, delta: int) -> None:
        self._state_counts[state] = self._state_counts.get(state, 0) + delta

    def _require_capacity(self) -> None:
        if len(self._jobs) >= self.max_jobs:
            # Reclaim expired finished jobs before refusing: a long-running
            # server fills its table with history, not live work.
            self._expire_jobs()
        if len(self._jobs) >= self.max_jobs:
            raise ServiceBusy(
                f"job table is full ({self.max_jobs} jobs); try again later"
            )

    def _expire_jobs(self) -> int:
        """Drop terminal jobs older than the TTL (loop thread only).

        Age is measured on the monotonic clock (``finished_monotonic``) so a
        wall-clock step (NTP correction, DST) can neither mass-expire fresh
        jobs nor keep stale ones alive.
        """
        if self.job_ttl_s is None:
            return 0
        now = time.monotonic()
        expired = [
            job
            for job in self._jobs.values()
            if job.done
            and job.finished_monotonic is not None
            and now - job.finished_monotonic > self.job_ttl_s
        ]
        for job in expired:
            del self._jobs[job.id]
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
            self._bump_state(job.state, -1)
        self.counters["expired"] += len(expired)
        _JOBS_EXPIRED.inc(len(expired))
        return len(expired)

    async def _gc_loop(self) -> None:
        """Periodically expire finished jobs past their TTL."""
        assert self.job_ttl_s is not None
        interval = max(0.5, min(self.job_ttl_s / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            self._expire_jobs()

    def _new_job_id(self) -> str:
        return f"job-{next(self._job_ids):06d}"

    # -------------------------------------------------------------- queries
    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (raises :exc:`KeyError` when unknown)."""
        return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False when the job already finished.

        A queued job is cancelled immediately; a running job stops at its
        next progress point (cooperative cancellation).
        """
        job = self.get(job_id)
        if job.done:
            return False
        job.cancel_requested.set()
        if job.state == SUBMITTED:
            self._transition(job, CANCELLED)
        return True

    async def wait_for_events(
        self, job_id: str, after: int = 0, timeout: float = 10.0
    ) -> List[Dict[str, object]]:
        """Long-poll: events past index ``after``, waiting up to ``timeout``.

        Returns immediately once events are available or the job is done;
        otherwise waits for the next event (or the timeout).
        """
        job = self.get(job_id)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while job.events.total <= after and not job.done:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            job.changed.clear()
            if job.events.total > after or job.done:
                break
            try:
                await asyncio.wait_for(job.changed.wait(), remaining)
            except asyncio.TimeoutError:
                break
        return job.events.since(after)

    def push_chunk(
        self, job_id: str, samples: object, final: object = False
    ) -> Dict[str, object]:
        """Feed samples to a push-mode stream job (``POST /jobs/{id}/chunks``).

        ``samples`` may be empty when ``final`` just closes the stream.
        Raises :exc:`BadRequest` for non-stream/non-push jobs, for a push
        after the stream's ``final`` one, for any sample that is not an ADC
        code or a ``final`` that is not a boolean (the chunk is then not
        queued), and :exc:`KeyError` for unknown jobs.
        """
        job = self.get(job_id)
        if job.request.kind != "stream":
            raise BadRequest(f"job {job_id} is not a stream job")
        if job.request.source != "push":
            raise BadRequest(f"stream job {job_id} replays server-side")
        if job.final_received:
            raise BadRequest(f"stream job {job_id} already received its final chunk")
        if job.done:
            raise BadRequest(f"stream job {job_id} already finished")
        if type(final) is not bool:
            raise BadRequest(f"final must be true or false, got {final!r}")
        if samples is None:
            samples = []
        if not isinstance(samples, (list, tuple)):
            raise BadRequest("samples must be a list of integers")
        low, high = _ADC.min_count, _ADC.max_count
        for index, value in enumerate(samples):
            # bool is an int subclass; JSON true is not an ADC code.
            if type(value) is not int or not low <= value <= high:
                raise BadRequest(
                    f"samples[{index}] must be an ADC code: an integer in "
                    f"[{low}, {high}], got {value!r}"
                )
        chunk = np.asarray(samples, dtype=np.int64)
        if chunk.size:
            job.chunk_queue.put(chunk)
        if final:
            job.chunk_queue.put(None)
            job.final_received = True
        return {
            "id": job.id,
            "state": job.state,
            "received": int(chunk.size),
            "final": final,
        }

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` document: job counters plus runtime/cache telemetry.

        Copy-on-read: state counts and the dropped-event total are
        maintained incrementally (on submit / transition / expiry / drop),
        and the metrics document is a snapshot of the process registry — no
        per-poll scan of the job table runs under the event loop, so a tight
        ``/stats`` poller cannot stall running jobs.  TTL expiry happens in
        the background GC loop, not here.
        """
        states = {
            state: count
            for state, count in sorted(self._state_counts.items())
            if count > 0
        }
        return {
            "jobs": {
                "total": len(self._jobs),
                "queued": self._queue.qsize(),
                "states": states,
                "events_dropped": self._events_dropped,
                "event_backlog": self.event_backlog,
                "job_ttl_s": self.job_ttl_s,
                **self.counters,
            },
            "runtime": self.provider.statistics(),
            "metrics": obs_metrics.get_registry().snapshot(),
            "tracing": get_tracer().info(),
        }

    # ------------------------------------------------------------ execution
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, job = await self._queue.get()
            _QUEUE_DEPTH.set(self._queue.qsize())
            try:
                if job.done:
                    continue  # cancelled while queued
                if job.cancel_requested.is_set():
                    self._transition(job, CANCELLED)
                    continue
                _QUEUE_WAIT.observe(
                    time.monotonic() - job.submitted_monotonic
                )
                self._transition(job, RUNNING)
                try:
                    result = await loop.run_in_executor(None, self._execute, job)
                except JobCancelled:
                    self._transition(job, CANCELLED)
                except BadRequest as error:
                    job.error = str(error)
                    self._transition(job, FAILED)
                except Exception as error:  # noqa: BLE001 - job isolation
                    job.error = f"{type(error).__name__}: {error}"
                    self._transition(job, FAILED)
                else:
                    job.result = result
                    self.counters["executed"] += 1
                    self._transition(job, SUCCEEDED)
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> Dict[str, object]:
        """Run one job in a worker thread of the loop's default executor."""
        loop = self._loop
        assert loop is not None, "scheduler was not started"

        def progress(event: Dict[str, object]) -> None:
            loop.call_soon_threadsafe(job.append_event, event)

        with obs_span("service.job", job=job.id, kind=job.request.kind):
            if job.request.kind == "stream":
                # Streams never touch the exploration runtime: replay
                # sessions synthesize their own record, push sessions drain
                # the job's chunk queue until the client finalises (or goes
                # idle).
                chunks = (
                    self._push_chunks(job)
                    if job.request.source == "push"
                    else None
                )
                return execute_stream(
                    job.request,
                    chunks=chunks,
                    progress=progress,
                    cancelled=job.cancel_requested.is_set,
                )
            runtime = self.provider.runtime_for(job.request)
            return job.request.execute(
                runtime,
                progress=progress,
                cancelled=job.cancel_requested.is_set,
            )

    @staticmethod
    def _push_chunks(job: Job) -> Iterator[np.ndarray]:
        """Yield a push-mode stream job's chunks (runs in its worker thread).

        Ends on the explicit ``final`` marker (``None`` sentinel) or after
        ``idle_timeout_s`` without input — an abandoned session finalises
        with what it received instead of occupying a worker forever.
        Cancellation is honoured between chunks.
        """
        idle_timeout_s = job.request.idle_timeout_s
        deadline = time.monotonic() + idle_timeout_s
        while True:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            try:
                item = job.chunk_queue.get(timeout=min(0.25, idle_timeout_s))
            except queue.Empty:
                if time.monotonic() >= deadline:
                    return
                continue
            if item is None:
                return
            deadline = time.monotonic() + idle_timeout_s
            yield item

    def _transition(self, job: Job, state: str) -> None:
        """Advance a job's state and wake waiters (loop thread only)."""
        previous = job.state
        if previous != state:
            self._bump_state(previous, -1)
            self._bump_state(state, +1)
        job.state = state
        now = time.time()
        now_monotonic = time.monotonic()
        if state == RUNNING:
            job.started_at = now
            job.started_monotonic = now_monotonic
        elif state in (SUCCEEDED, FAILED, CANCELLED):
            job.finished_at = now
            job.finished_monotonic = now_monotonic
            _JOBS_FINISHED.labels(state).inc()
            if job.started_monotonic is not None:
                _RUN_SECONDS.labels(job.request.kind).observe(
                    now_monotonic - job.started_monotonic
                )
        job.append_event({"type": "state", "state": state})
