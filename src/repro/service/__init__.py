"""Async job-orchestration service over the exploration runtime.

This package turns the one-shot CLI workloads into a long-running,
network-reachable service: clients submit *jobs* (design-point evaluation
batches, design-space explorations, resilience sweeps, live streaming
sessions) over JSON/HTTP; an asyncio scheduler runs them with priorities,
bounded concurrency and cooperative cancellation on top of
:class:`~repro.runtime.ExplorationRuntime` — inheriting every caching layer
underneath (result caches, the stage graph and its signal stores).  Batch
jobs are content-addressed with the same fingerprints as the caches, so
identical concurrent submissions execute exactly once and repeat submissions
are answered instantly; ``stream`` jobs (:mod:`repro.streaming`) are
long-lived sessions whose beats/quality/energy telemetry flows out through
the events endpoint (long-poll or Server-Sent Events), with per-job event
backlogs ring-buffered and finished jobs garbage-collected after a TTL.

Everything is standard library: ``asyncio`` for the scheduler and server,
``http.client`` for the blocking client.

Modules
-------
``repro.service.jobs``
    The job model: request validation, content-addressed job keys,
    lifecycle states and the canonical JSON result payloads (built on
    :func:`repro.runtime.cache.serialize_evaluation`, shared with the CLI's
    ``--json`` mode).
``repro.service.scheduler``
    The asyncio scheduler: priority queue, bounded concurrency, in-flight
    coalescing, completed-job result cache, cooperative cancellation and
    per-job progress events; plus the per-workload runtime provider.
``repro.service.server``
    The JSON-over-HTTP API (``POST /jobs``, ``GET /jobs/{id}``, long-poll
    ``/events``, ``DELETE`` cancellation, ``/healthz``, ``/stats``) and the
    background-thread harness used by tests and examples.
``repro.service.client``
    A small blocking client (submit / poll / cancel / stats).

Start a server with ``python -m repro serve`` (see ``--help`` for the cache
and pool options) and drive it with :class:`ServiceClient`.
"""

import importlib

#: Public names by defining submodule.  A name loads its submodule on first
#: access (PEP 562), so a CLI workload command that validates and runs a
#: request loads the job model without the scheduler, server and client.
_SUBMODULES = {
    "client": ("ServiceClient", "ServiceError"),
    "jobs": (
        "BadRequest", "CANCELLED", "EventLog", "FAILED", "JOB_KINDS",
        "JOB_STATES", "Job", "JobCancelled", "JobRequest", "RUNNING",
        "SUBMITTED", "SUCCEEDED", "ServiceBusy", "TERMINAL_STATES",
        "execute_stream",
    ),
    "scheduler": ("JobScheduler", "RuntimeProvider"),
    "server": ("DEFAULT_PORT", "ServiceServer", "ServiceThread"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
