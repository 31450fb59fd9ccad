"""Parallel, cached design-space exploration runtime.

This package is the execution layer of the reproduction: every exploration
and evaluation workload — the XBioSiP methodology, the exhaustive/heuristic
baselines, the error-resilience sweeps and the ``python -m repro`` CLI — runs
its design-point evaluations through an :class:`ExplorationRuntime`, the one
design evaluator of the package.  Around the pure computation of
:func:`~repro.core.quality.run_design_evaluation` it adds the accurate
reference runs, an evaluation counter, worker-pool parallelism, persistent
content-addressed result caching and progress/throughput telemetry.

Modules
-------
``repro.runtime.engine``
    The :class:`ExplorationRuntime` itself (serial or thread-pool
    execution, deterministic ordering, batch deduplication).
``repro.runtime.cache``
    Result caches: the in-memory LRU and the SQLite store of
    :mod:`repro.core.store` bound to the design-evaluation codec (entry
    caps on both; SQLite rows checksummed with corruption recovery and
    byte-budgeted; hit/miss/eviction statistics).
``repro.runtime.signal_store``
    Intermediate-signal stores backing the stage graph
    (:mod:`repro.core.stage_graph`): the same two stores, holding memoized
    per-stage output signals instead of whole evaluations.
``repro.runtime.telemetry``
    Progress events and aggregate throughput / cache telemetry.
``repro.runtime.cli``
    The ``python -m repro`` command-line interface (``explore``,
    ``evaluate``, ``resilience``, ``serve``).

The job-orchestration service in :mod:`repro.service` sits one level up:
it exposes this runtime over JSON/HTTP as concurrent, cancellable,
content-addressed jobs.
"""

from .cache import MemoryResultCache, SQLiteResultCache, open_cache
from .engine import EXECUTOR_KINDS, ExplorationRuntime, RuntimeStatistics
from .signal_store import MemorySignalStore, SQLiteSignalStore, open_signal_store
from .telemetry import ProgressEvent, ProgressLog, RuntimeTelemetry

__all__ = [
    "MemorySignalStore",
    "SQLiteSignalStore",
    "open_signal_store",
    "MemoryResultCache",
    "SQLiteResultCache",
    "open_cache",
    "EXECUTOR_KINDS",
    "ExplorationRuntime",
    "RuntimeStatistics",
    "ProgressEvent",
    "ProgressLog",
    "RuntimeTelemetry",
]
