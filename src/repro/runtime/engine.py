"""The parallel, cached design-space exploration engine.

:class:`ExplorationRuntime` is the one design evaluator of the package:
every exploration and evaluation workload in the reproduction — Algorithm 1,
the baseline searches, the resilience sweeps, the CLI and the service —
runs through its ``evaluate`` / ``evaluate_many`` / ``evaluation_count``
surface.  It runs each record's accurate reference once, through the same
stage graph as the designs, and evaluates designs with
:func:`~repro.core.quality.run_design_evaluation`, adding:

* **Parallel fan-out** — batches of independent design points are mapped
  over a ``concurrent.futures`` thread pool, one design per task.  Every
  worker resolves its stages through the runtime's one single-flight stage
  graph, so a node shared by several designs is computed once.  Results are
  always returned in submission order, so parallel runs are bit-identical to
  serial ones.
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..arithmetic.compiled import registry_info
from ..core.configurations import DesignPoint
from ..core.exploration_time import ExplorationCostModel
from ..core.fingerprint import evaluation_cache_key, workload_fingerprint
from ..core.quality import (
    DesignEvaluation,
    relabel_evaluation,
    run_design_evaluation,
)
from ..core.stage_graph import StageGraphMemo, StageGraphStats
from ..core.store import Store
from ..dsp.detection import PeakDetectionConfig
from ..dsp.pan_tompkins import PanTompkinsPipeline, PanTompkinsResult
from ..obs import metrics as obs_metrics
from ..obs.tracing import get_tracer, span as obs_span
from ..signals.records import ECGRecord
from .cache import MemoryResultCache
from .telemetry import ProgressCallback, ProgressEvent, RuntimeTelemetry

__all__ = ["EXECUTOR_KINDS", "RuntimeStatistics", "ExplorationRuntime"]

#: Supported execution backends.
EXECUTOR_KINDS = ("serial", "thread")

_DESIGNS_RESOLVED = obs_metrics.counter(
    "repro_designs_resolved_total",
    "Design points resolved by the runtime, by source (computed/cache).",
    labelnames=("source",),
)
_BATCH_SECONDS = obs_metrics.histogram(
    "repro_evaluate_batch_seconds",
    "Wall-clock duration of ExplorationRuntime.evaluate_many batches.",
)


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
        ECG record(s) every design is evaluated on; at least one.
    detection_config / peak_tolerance_samples:
        Evaluation parameters (both are part of the cache keys).
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
        ``"serial"`` or ``"thread"``.
    max_workers:
        Pool size; defaults to 1 for serial, else ``os.cpu_count()``.
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
        progress: Optional[ProgressCallback] = None,
        signal_store: Optional[Store] = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
            )
        if isinstance(records, ECGRecord):
            records = [records]
        if not records:
            raise ValueError("ExplorationRuntime needs at least one record")
        if max_workers is None:
            max_workers = 1 if executor == "serial" else (os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.records: List[ECGRecord] = list(records)
        self.detection_config = detection_config
        self.peak_tolerance_samples = peak_tolerance_samples
        #: Content fingerprint of the record set + evaluation parameters.
        self.workload = workload_fingerprint(
            self.records, detection_config, peak_tolerance_samples
        )
        self.executor_kind = executor
        self.max_workers = max_workers
        self.cache: Store = cache if cache is not None else MemoryResultCache()
        self.progress = progress
        #: The stage-graph memo every pipeline run resolves through.
        self.stage_memo = StageGraphMemo(store=signal_store)
        # The accurate reference runs, by record name: graph nodes like any
        # design's, so designs reuse their unapproximated stages.
        pipeline = PanTompkinsPipeline(detection_config=detection_config)
        self.accurate_results: Dict[str, PanTompkinsResult] = {
            record.name: pipeline.process(record.samples, memo=self.stage_memo)
            for record in self.records
        }
        self.telemetry = RuntimeTelemetry(stage_stats=self.stage_stats)
        self._evaluation_count = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        # Guards the counters shared by concurrent evaluate_many callers (the
        # job-orchestration service runs several jobs against one runtime).
        self._count_lock = threading.Lock()

    # ------------------------------------------------------ evaluator surface
    @property
    def evaluation_count(self) -> int:
        """Number of fresh (non-cached) pipeline evaluations performed."""
        return self._evaluation_count

    def reset_counter(self) -> None:
        """Reset the evaluation counter (cache and telemetry are kept)."""
        self._evaluation_count = 0

    def cache_key(self, design: DesignPoint) -> str:
        """Portable cache key of ``design`` on this runtime's workload."""
        return evaluation_cache_key(design, self.workload)

    def accurate_result(self, record: ECGRecord) -> PanTompkinsResult:
        """The accurate pipeline result for one of the records."""
        return self.accurate_results[record.name]

    @property
    def stage_stats(self) -> StageGraphStats:
        """Per-stage hit/compute accounting of the stage graph."""
        return self.stage_memo.stats

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
        like ``designs`` regardless of completion order, so serial and
        thread execution produce identical results.

        Progress events stream while the batch runs: as soon as a design and
        every design before it are resolved, its event fires (so events
        arrive in input order, design by design, not all at the end).  A
        callback that raises stops the batch: designs not yet started are
        cancelled, and only the ones already running finish.
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
                # Forced recomputation: every index gets its own slot, so
                # duplicates are computed (and counted) once each.
                key = f"nocache:{index}"
            pending.setdefault(key, []).append(index)

        miss_items = list(pending.items())
        misses = [designs[indices[0]] for _, indices in miss_items]
        computed_count = 0
        try:
            flush()
            # Closed explicitly, not left to garbage collection: when a
            # callback raises, a held traceback would keep the pool's designs
            # queued.
            with closing(self._iter_computed(misses)) as computed:
                for (key, indices), evaluation in zip(miss_items, computed):
                    computed_count += 1
                    # Counted as it finishes, before its progress event, so
                    # /stats and callbacks see a running batch's designs.
                    with self._count_lock:
                        self._evaluation_count += 1
                        self.telemetry.evaluations += 1
                    if use_cache:
                        self.cache.put(key, evaluation)
                    for index in indices:
                        results[index] = relabel_evaluation(
                            evaluation, designs[index]
                        )
                        if index != indices[0]:
                            # Duplicate within the batch: no work of its own.
                            hit_indices.add(index)
                    flush()
        finally:
            # A batch stopped by a raising callback or a failing design still
            # counts as a batch; its finished designs are already counted.
            elapsed = time.perf_counter() - started
            with self._count_lock:
                self.telemetry.record_batch(len(hit_indices), elapsed)
            _DESIGNS_RESOLVED.labels("computed").inc(computed_count)
            _DESIGNS_RESOLVED.labels("cache").inc(len(hit_indices))
            _BATCH_SECONDS.observe(elapsed)
            batch_span.set_attribute("computed", computed_count)
            batch_span.set_attribute("cache_hits", len(hit_indices))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ execution
    def _iter_computed(
        self, designs: List[DesignPoint]
    ) -> Iterator[DesignEvaluation]:
        """Evaluations of unique designs, in order; parallel when worth it.

        The pool path maps one design per task and yields each result as
        soon as it and every earlier one are done.  Closing the iterator
        cancels every design that has not started.
        """
        if (
            self.executor_kind == "serial"
            or self.max_workers == 1
            or len(designs) <= 1
        ):
            return (self._evaluate_inline(design) for design in designs)
        return self._ensure_executor().map(self._evaluate_inline, designs)

    def _evaluate_inline(self, design: DesignPoint) -> DesignEvaluation:
        # The stage memo is thread-safe, so pool workers share the runtime's
        # stage graph: a node needed by several designs is computed once,
        # whichever worker reaches it first.
        with obs_span("runtime.evaluate", design=design.name):
            return run_design_evaluation(
                design,
                self.records,
                self.accurate_results,
                detection_config=self.detection_config,
                peak_tolerance_samples=self.peak_tolerance_samples,
                stage_memo=self.stage_memo,
            )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        # Guarded: concurrent evaluate_many callers (service jobs sharing one
        # runtime) must not race the lazy init and leak a second pool.
        with self._count_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-eval",
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
        stage_stats = self.stage_stats
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
