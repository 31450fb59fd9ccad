"""The parallel, cached design-space exploration engine.

:class:`ExplorationRuntime` is the execution layer every exploration and
evaluation workload in the reproduction runs through.  It exposes the same
``evaluate`` / ``evaluate_many`` / ``evaluation_count`` surface as
:class:`~repro.core.quality.DesignEvaluator` — so Algorithm 1, the baseline
searches and the resilience analysis accept either interchangeably — and adds:

* **Parallel fan-out** — batches of independent design points are split into
  chunks (:class:`~repro.runtime.chunking.ChunkPolicy`) and evaluated on a
  ``concurrent.futures`` thread or process pool.  Results are always returned
  in submission order, so parallel runs are bit-identical to serial ones.
* **Content-addressed caching** — every result is stored in a result cache
  (:mod:`repro.runtime.cache`) under the stable fingerprints of
  :mod:`repro.core.fingerprint`; plugging in a SQLite cache makes
  results shareable across runs and processes.  Duplicate designs inside one
  batch are deduplicated before any work is submitted, so evaluation counts
  match the serial path exactly.
* **Telemetry** — evaluations-per-second, cache hit rates and measured
  wall-clock vs. the :class:`~repro.core.exploration_time.ExplorationCostModel`
  estimates, plus per-design progress callbacks.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..arithmetic.compiled import prewarm_tables, registry_info
from ..core.configurations import DesignPoint
from ..core.exploration_time import ExplorationCostModel
from ..core.quality import (
    DesignEvaluation,
    DesignEvaluator,
    relabel_evaluation,
    run_design_evaluation,
)
from ..core.store import Store
from ..dsp.detection import PeakDetectionConfig
from ..obs import metrics as obs_metrics
from ..obs.tracing import get_tracer, span as obs_span
from ..signals.records import ECGRecord
from .cache import MemoryResultCache
from .chunking import ChunkPolicy, chunked
from .signal_store import open_signal_store, signal_store_spec
from .telemetry import ProgressCallback, ProgressEvent, RuntimeTelemetry

__all__ = ["EXECUTOR_KINDS", "RuntimeStatistics", "ExplorationRuntime"]

#: Supported execution backends.
EXECUTOR_KINDS = ("serial", "thread", "process")

_DESIGNS_RESOLVED = obs_metrics.counter(
    "repro_designs_resolved_total",
    "Design points resolved by the runtime, by source (computed/cache).",
    labelnames=("source",),
)
_BATCH_SECONDS = obs_metrics.histogram(
    "repro_evaluate_batch_seconds",
    "Wall-clock duration of ExplorationRuntime.evaluate_many batches.",
)


# ----------------------------------------------------- process-pool plumbing
# Each worker process builds its own evaluator once and reuses it for every
# chunk it receives.  The parent ships its accurate reference runs along
# (warm start), so workers seed their stage graphs instead of recomputing
# the accurate chain once per worker.
_WORKER_EVALUATOR: Optional[DesignEvaluator] = None


def _init_process_worker(
    records: List[ECGRecord],
    detection_config: Optional[PeakDetectionConfig],
    peak_tolerance_samples: int,
    accurate: Optional[Dict[str, object]] = None,
    store_spec: Optional[tuple] = None,
) -> None:
    global _WORKER_EVALUATOR
    # Pre-warm the compiled arithmetic tables: workers build the common LUTs
    # once up front instead of paying the (single-flight) build cost inside
    # their first evaluation.  Thread pools share the parent's process-wide
    # registry and need no warm-up.
    prewarm_tables()
    signal_store = None
    if store_spec is not None:
        # Persistent signal stores cannot cross the process boundary as
        # objects; each worker reopens the same on-disk store so stage-node
        # reuse spans the whole pool (and later runs).
        path, max_entries, max_bytes = store_spec
        signal_store = open_signal_store(
            path, max_entries=max_entries, max_bytes=max_bytes
        )
    _WORKER_EVALUATOR = DesignEvaluator(
        records,
        detection_config=detection_config,
        peak_tolerance_samples=peak_tolerance_samples,
        accurate_results=accurate,
        signal_store=signal_store,
    )


def _evaluate_chunk_in_process(
    designs: List[DesignPoint],
) -> List[DesignEvaluation]:
    evaluator = _WORKER_EVALUATOR
    if evaluator is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process was not initialised")
    return [evaluator.evaluate(design, use_cache=False) for design in designs]


# ------------------------------------------------------------------ results
@dataclass(frozen=True)
class RuntimeStatistics:
    """Snapshot of one runtime's execution and cache behaviour."""

    executor: str
    max_workers: int
    evaluations: int
    designs_resolved: int
    cache_hit_rate: float
    evaluations_per_second: float
    busy_s: float
    modeled_serial_s: float
    speedup_vs_model: float
    cache: Dict[str, float]
    stage_hit_rate: float = 0.0
    stage_cache: Dict[str, Dict[str, float]] = None  # type: ignore[assignment]
    stage_cross_record_hits: int = 0
    stage_warm_hits: int = 0
    lut_registry: Dict[str, int] = None  # type: ignore[assignment]
    #: Observability snapshot: full metrics-registry document plus tracer
    #: state ({"metrics": ..., "metric_series": N, "tracing": {...}}).
    obs: Dict[str, object] = None  # type: ignore[assignment]

    def report(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [
            f"executor         : {self.executor} x{self.max_workers}",
            f"designs resolved : {self.designs_resolved} "
            f"({self.evaluations} evaluated, "
            f"{self.cache_hit_rate * 100:.1f}% cache hits)",
            f"throughput       : {self.evaluations_per_second:.2f} evaluations/s",
            f"busy wall-clock  : {self.busy_s:.2f} s",
            f"modeled serial   : {self.modeled_serial_s:.0f} s "
            f"(speedup x{self.speedup_vs_model:.1f})",
        ]
        if self.stage_cache:
            lines.append(
                f"stage-node reuse : {self.stage_hit_rate * 100:.1f}% of stage "
                "runs served from the signal store "
                f"({self.stage_cross_record_hits} cross-record, "
                f"{self.stage_warm_hits} warm)"
            )
            for name, row in self.stage_cache.items():
                lines.append(
                    f"  {name:<24}: {int(row['computes'])} computed, "
                    f"{int(row['hits'])} reused "
                    f"({row['hit_rate'] * 100:.1f}% hit rate)"
                )
        if self.lut_registry:
            lines.append(
                f"compiled LUTs    : {self.lut_registry.get('tables', 0)} tables "
                f"({self.lut_registry.get('builds', 0)} builds, "
                f"{self.lut_registry.get('bytes', 0) / 1024:.0f} KiB)"
            )
        if self.obs:
            tracing = self.obs.get("tracing", {})
            state = "on" if tracing.get("enabled") else "off"
            lines.append(
                f"observability    : {self.obs.get('metric_series', 0)} metric "
                f"series, {tracing.get('buffered', 0)} spans buffered "
                f"(tracing {state})"
            )
        return "\n".join(lines)


# ------------------------------------------------------------------- engine
class ExplorationRuntime:
    """Parallel, cached executor of design-point evaluations.

    Parameters
    ----------
    records:
        ECG record(s) every design is evaluated on.
    detection_config / peak_tolerance_samples:
        Evaluation parameters (forwarded to the evaluator core; both are part
        of the cache keys).
    cache:
        Result cache; defaults to an unbounded in-memory cache.  Pass a
        :class:`~repro.runtime.cache.SQLiteResultCache` to persist results
        across runs.
    signal_store:
        Intermediate-signal store backing the stage graph; defaults to a
        bounded in-process store.  Pass a
        :class:`~repro.runtime.signal_store.SQLiteSignalStore` to reuse stage
        outputs across runs.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    max_workers:
        Pool size; defaults to 1 for serial, else ``os.cpu_count()``.
    chunk_policy:
        Batching policy for multi-design workloads.
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per resolved design.
    """

    def __init__(
        self,
        records: Union[ECGRecord, Sequence[ECGRecord]],
        detection_config: Optional[PeakDetectionConfig] = None,
        peak_tolerance_samples: int = 40,
        cache: Optional[Store] = None,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        chunk_policy: Optional[ChunkPolicy] = None,
        progress: Optional[ProgressCallback] = None,
        signal_store: Optional[Store] = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
            )
        self._core = DesignEvaluator(
            records,
            detection_config=detection_config,
            peak_tolerance_samples=peak_tolerance_samples,
            signal_store=signal_store,
        )
        self.detection_config = detection_config
        self.peak_tolerance_samples = peak_tolerance_samples
        self.executor_kind = executor
        if max_workers is None:
            max_workers = 1 if executor == "serial" else (os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.cache: Store = cache if cache is not None else MemoryResultCache()
        self.chunk_policy = chunk_policy or ChunkPolicy()
        self.progress = progress
        self.telemetry = RuntimeTelemetry()
        self._accurate = {
            record.name: self._core.accurate_result(record)
            for record in self._core.records
        }
        self._evaluation_count = 0
        self._executor: Optional[Executor] = None
        # Guards the counters shared by concurrent evaluate_many callers (the
        # job-orchestration service runs several jobs against one runtime).
        self._count_lock = threading.Lock()

    # --------------------------------------------- DesignEvaluator surface
    @property
    def records(self) -> List[ECGRecord]:
        """The records every design is evaluated on."""
        return self._core.records

    @property
    def evaluation_count(self) -> int:
        """Number of fresh (non-cached) pipeline evaluations performed."""
        return self._evaluation_count

    def reset_counter(self) -> None:
        """Reset the evaluation counter (cache and telemetry are kept)."""
        self._evaluation_count = 0

    @property
    def workload(self) -> str:
        """Content fingerprint of the record set + evaluation parameters."""
        return self._core.workload

    def cache_key(self, design: DesignPoint) -> str:
        """Portable cache key of ``design`` on this runtime's workload."""
        return self._core.cache_key(design)

    def accurate_result(self, record: ECGRecord):
        """The accurate pipeline result for one of the records."""
        return self._core.accurate_result(record)

    @property
    def stage_memo(self):
        """The stage-graph memo shared by this runtime's pipeline runs."""
        return self._core.stage_memo

    @property
    def stage_stats(self):
        """Per-stage hit/compute accounting of the stage graph.

        Process-pool workers keep their own graphs, so with
        ``executor="process"`` these counters only cover the parent process
        (the accurate reference runs and any inline evaluations).
        """
        return self._core.stage_stats

    def evaluate(self, design: DesignPoint, use_cache: bool = True) -> DesignEvaluation:
        """Evaluate a single design (through the cache, inline)."""
        return self.evaluate_many([design], use_cache=use_cache)[0]

    # ----------------------------------------------------------- batch path
    def evaluate_many(
        self,
        designs: Iterable[DesignPoint],
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> List[DesignEvaluation]:
        """Evaluate a batch of designs; results match the input order.

        Cache lookups happen first; duplicate designs (by content key) are
        collapsed so each unique miss is computed exactly once; misses are
        then fanned out over the worker pool.  The returned list is ordered
        like ``designs`` regardless of completion order, so serial, thread
        and process execution produce identical results.

        Progress events stream while the batch runs: as soon as a design and
        every design before it are resolved, its event fires (so events
        arrive in input order, chunk by chunk, not all at the end).
        """
        designs = list(designs)
        with obs_span(
            "runtime.evaluate_many",
            designs=len(designs),
            executor=self.executor_kind,
        ) as batch_span:
            return self._evaluate_many_traced(
                designs, use_cache, progress, batch_span
            )

    def _evaluate_many_traced(
        self,
        designs: List[DesignPoint],
        use_cache: bool,
        progress: Optional[ProgressCallback],
        batch_span,
    ) -> List[DesignEvaluation]:
        total = len(designs)
        callback = progress or self.progress
        started = time.perf_counter()

        results: List[Optional[DesignEvaluation]] = [None] * total
        hit_indices: set = set()
        emitted = 0

        def flush() -> None:
            """Fire events for the resolved prefix of the batch."""
            nonlocal emitted
            if callback is None:
                return
            while emitted < total and results[emitted] is not None:
                callback(
                    ProgressEvent(
                        index=emitted,
                        total=total,
                        design=designs[emitted],
                        evaluation=results[emitted],
                        cache_hit=emitted in hit_indices,
                        elapsed_s=time.perf_counter() - started,
                    )
                )
                emitted += 1

        # key -> indices awaiting that key's evaluation (insertion-ordered so
        # computed results line up with first occurrence order).
        pending: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, design in enumerate(designs):
            if use_cache:
                key = self.cache_key(design)
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = relabel_evaluation(cached, design)
                    hit_indices.add(index)
                    continue
            else:
                # Forced recomputation: give every index its own slot so the
                # semantics match DesignEvaluator(use_cache=False).
                key = f"nocache:{index}"
            pending.setdefault(key, []).append(index)
        flush()

        miss_items = list(pending.items())
        misses = [designs[indices[0]] for _, indices in miss_items]
        for (key, indices), evaluation in zip(
            miss_items, self._iter_computed(misses)
        ):
            if use_cache:
                self.cache.put(key, evaluation)
            for index in indices:
                results[index] = relabel_evaluation(evaluation, designs[index])
                if index != indices[0]:
                    # Duplicate within the batch: resolved without extra work.
                    hit_indices.add(index)
            flush()

        elapsed = time.perf_counter() - started
        with self._count_lock:
            self._evaluation_count += len(misses)
            self.telemetry.record_batch(len(misses), len(hit_indices), elapsed)
            self.telemetry.update_stage_stats(self._core.stage_stats.as_dict())
        _DESIGNS_RESOLVED.labels("computed").inc(len(misses))
        _DESIGNS_RESOLVED.labels("cache").inc(len(hit_indices))
        _BATCH_SECONDS.observe(elapsed)
        batch_span.set_attribute("computed", len(misses))
        batch_span.set_attribute("cache_hits", len(hit_indices))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ execution
    def _iter_computed(self, designs: List[DesignPoint]):
        """Yield evaluations of unique designs in order; parallel when worth it.

        The parallel path submits every chunk up front and then consumes the
        futures in submission order, so downstream consumers see results (and
        can report progress) as chunks complete while later chunks still run.
        """
        if not designs:
            return
        if (
            self.executor_kind == "serial"
            or self.max_workers == 1
            or len(designs) == 1
        ):
            for design in designs:
                yield self._evaluate_inline(design)
            return

        size = self.chunk_policy.size_for(len(designs), self.max_workers)
        chunks = list(chunked(designs, size))
        executor = self._ensure_executor()
        if self.executor_kind == "process":
            futures = [
                executor.submit(_evaluate_chunk_in_process, chunk)
                for chunk in chunks
            ]
        else:
            futures = [
                executor.submit(self._evaluate_chunk_local, chunk)
                for chunk in chunks
            ]
        for future in futures:  # submission order => deterministic ordering
            yield from future.result()

    def _evaluate_inline(self, design: DesignPoint) -> DesignEvaluation:
        # The stage memo is thread-safe, so thread-pool workers share the
        # parent's stage graph: designs with a common settings prefix reuse
        # upstream stage outputs regardless of which worker runs them.
        with obs_span("runtime.evaluate", design=design.name):
            return run_design_evaluation(
                design,
                self._core.records,
                self._accurate,
                detection_config=self.detection_config,
                peak_tolerance_samples=self.peak_tolerance_samples,
                stage_memo=self._core.stage_memo,
            )

    def _evaluate_chunk_local(
        self, designs: List[DesignPoint]
    ) -> List[DesignEvaluation]:
        """Thread-pool chunk: shares the parent's read-only accurate runs."""
        with obs_span("runtime.chunk", designs=len(designs)):
            return [self._evaluate_inline(design) for design in designs]

    def _ensure_executor(self) -> Executor:
        # Guarded: concurrent evaluate_many callers (service jobs sharing one
        # runtime) must not race the lazy init and leak a second pool.
        with self._count_lock:
            if self._executor is None:
                if self.executor_kind == "thread":
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-eval",
                    )
                else:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers,
                        initializer=_init_process_worker,
                        initargs=(
                            self._core.records,
                            self.detection_config,
                            self.peak_tolerance_samples,
                            # Warm start: workers seed their stage graphs
                            # from the parent's accurate runs instead of
                            # recomputing them once per worker.
                            self._core.accurate_results,
                            # Persistent signal stores are reopened per
                            # worker so stage-node reuse spans the pool.
                            signal_store_spec(self._core.stage_memo.store),
                        ),
                    )
            return self._executor

    # ------------------------------------------------------------ lifecycle
    def shutdown(self) -> None:
        """Tear down the worker pool (the cache and telemetry survive)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ExplorationRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ reporting
    def statistics(
        self, cost_model: Optional[ExplorationCostModel] = None
    ) -> RuntimeStatistics:
        """Execution + cache snapshot, measured against the Fig. 11 model."""
        telemetry = self.telemetry
        stage_stats = self._core.stage_stats
        cache_stats = self.cache.stats.as_dict()
        cache_stats["size_bytes"] = self.cache.size_bytes()
        return RuntimeStatistics(
            executor=self.executor_kind,
            max_workers=self.max_workers,
            evaluations=telemetry.evaluations,
            designs_resolved=telemetry.designs_resolved,
            cache_hit_rate=telemetry.cache_hit_rate,
            evaluations_per_second=telemetry.evaluations_per_second,
            busy_s=telemetry.busy_s,
            modeled_serial_s=telemetry.modeled_duration_s(cost_model),
            speedup_vs_model=telemetry.speedup_vs_model(cost_model),
            cache=cache_stats,
            stage_hit_rate=stage_stats.hit_rate(),
            stage_cache=stage_stats.as_dict(),
            stage_cross_record_hits=stage_stats.total_cross_record_hits,
            stage_warm_hits=stage_stats.total_warm_hits,
            lut_registry=registry_info(),
            obs={
                "metric_series": obs_metrics.get_registry().series_count(),
                "tracing": get_tracer().info(),
                "metrics": obs_metrics.get_registry().snapshot(),
            },
        )
