"""The cached design-space exploration engine.

:class:`ExplorationRuntime` is the one design evaluator of the package:
every exploration and evaluation workload in the reproduction — Algorithm 1,
the baseline searches, the resilience sweeps, the CLI and the service —
runs through its ``evaluate`` / ``evaluate_many`` / ``evaluation_count``
surface.  It runs each record's accurate reference once, through the same
stage graph as the designs, and evaluates designs with
:func:`~repro.core.quality.run_design_evaluation`, adding:

* **Serial batches** — the unique designs of a batch are evaluated one
  after another, in submission order, through the runtime's one stage
  graph, so a node shared by several designs is computed once.  The stage
  graph and the result-cache keys are single-flight and the counters are
  locked, so several callers (the service's concurrent jobs) may share one
  runtime and each design is still evaluated once.
* **Content-addressed caching** — every result is stored in a result cache
  (:mod:`repro.runtime.cache`) under the stable fingerprints of
  :mod:`repro.core.fingerprint`; plugging in a SQLite cache makes
  results shareable across runs and processes.  Duplicate designs inside one
  batch are deduplicated before any work is submitted, so evaluation counts
  match the serial path exactly.
* **Telemetry** — the runtime counts its evaluations, cache hits, batches
  and busy seconds itself; :meth:`~ExplorationRuntime.statistics` returns
  them, with the stage graph's reuse counts, as one JSON-safe dict, and
  :meth:`~ExplorationRuntime.report` renders it against the
  :class:`~repro.core.exploration_time.ExplorationCostModel` estimate.
  Per-design progress callbacks stream while a batch runs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from ..dsp.pan_tompkins import PanTompkinsPipeline, PanTompkinsResult
from ..obs import metrics as obs_metrics
from ..obs.tracing import get_tracer, span as obs_span
from ..signals.records import ECGRecord
from .cache import MemoryResultCache
from .telemetry import ProgressCallback, ProgressEvent

__all__ = ["ExplorationRuntime"]

_DESIGNS_RESOLVED = obs_metrics.counter(
    "repro_designs_resolved_total",
    "Design points resolved by the runtime, by source (computed/cache).",
    labelnames=("source",),
)
# Bound once: a batch then pays no child lookup for its own counts.
_COMPUTED = _DESIGNS_RESOLVED.labels("computed")
_FROM_CACHE = _DESIGNS_RESOLVED.labels("cache")
_BATCH_SECONDS = obs_metrics.histogram(
    "repro_evaluate_batch_seconds",
    "Wall-clock duration of ExplorationRuntime.evaluate_many batches.",
)


# ------------------------------------------------------------------- engine
class ExplorationRuntime:
    """Cached, serial executor of design-point evaluations.

    Parameters
    ----------
    records:
        ECG record(s) every design is evaluated on; at least one.  A record
        too short to score (constant accurate pre-processed output) raises
        ``ValueError`` here, before any design runs.
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
        ``"serial"``, the only executor: designs run one after another in
        the calling thread.
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per resolved design.
    """

    def __init__(
        self,
        records: Union[ECGRecord, Sequence[ECGRecord]],
        cache: Optional[Store] = None,
        executor: str = "serial",
        progress: Optional[ProgressCallback] = None,
        signal_store: Optional[Store] = None,
    ) -> None:
        if executor != "serial":
            raise ValueError(f"executor must be 'serial', got {executor!r}")
        if isinstance(records, ECGRecord):
            records = [records]
        if not records:
            raise ValueError("ExplorationRuntime needs at least one record")
        self.records: List[ECGRecord] = list(records)
        #: Content fingerprint of the record set (and the library version).
        self.workload = workload_fingerprint(self.records)
        self.cache: Store = cache if cache is not None else MemoryResultCache()
        self.progress = progress
        #: The stage-graph memo every pipeline run resolves through.
        self.stage_memo = StageGraphMemo(store=signal_store)
        # The accurate reference runs, by record name: graph nodes like any
        # design's, so designs reuse their unapproximated stages.
        pipeline = PanTompkinsPipeline()
        self.accurate_results: Dict[str, PanTompkinsResult] = {
            record.name: pipeline.process(record.samples, memo=self.stage_memo)
            for record in self.records
        }
        # PSNR takes its peak from the range of the accurate pre-processed
        # output, which is constant on the first few samples of a record
        # (1-4 samples of record 16265): no design could be scored.
        for name, result in self.accurate_results.items():
            if result.preprocessed.min() == result.preprocessed.max():
                raise ValueError(
                    f"record {name} is too short to score: its accurate "
                    "pre-processed output is constant"
                )
        #: Fresh (non-cached) pipeline evaluations; to count the evaluations
        #: of one phase, take the difference of two readings.
        self.evaluation_count = 0
        #: Designs served from the result cache, or duplicates in a batch.
        self.cache_hits = 0
        #: ``evaluate_many`` calls and their summed wall-clock seconds.
        self.batches = 0
        self.busy_s = 0.0
        # perf_counter, not time.time: wall_clock_s is a duration, and the
        # span tracer / ProgressEvent.elapsed_s use the same clock.
        self._started_at = time.perf_counter()
        # Guards the counters and the in-flight keys shared by concurrent
        # evaluate_many callers (the job-orchestration service runs several
        # jobs against one runtime).
        self._count_lock = threading.Lock()
        #: Cache key -> event set when the caller computing it is done.
        self._in_flight: Dict[str, threading.Event] = {}

    # ------------------------------------------------------ evaluator surface
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

        Duplicate designs (by content key) are collapsed, and each unique
        key, in input order, is read from the cache or computed once.  A key
        another caller is computing is waited for and counted as a cache
        hit.

        Progress events stream while the batch runs: as soon as a design and
        every design before it are resolved, its event fires (so events
        arrive in input order, design by design, not all at the end).  A
        callback that raises, or a design whose evaluation raises, stops the
        batch: no later design runs.
        """
        designs = list(designs)
        with obs_span("runtime.evaluate_many", designs=len(designs)) as batch_span:
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

        # key -> indices sharing that key (insertion-ordered so keys resolve
        # in first occurrence order).
        pending: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, design in enumerate(designs):
            # Forced recomputation gives every index its own slot, so
            # duplicates are computed (and counted) once each.
            key = self.cache_key(design) if use_cache else f"nocache:{index}"
            pending.setdefault(key, []).append(index)

        computed_count = 0
        try:
            for key, indices in pending.items():
                design = designs[indices[0]]
                if use_cache:
                    evaluation, fresh = self._resolve(key, design)
                else:
                    evaluation, fresh = self._evaluate_inline(design), True
                if fresh:
                    computed_count += 1
                    # Counted as it finishes, before its progress event, so
                    # /stats, /metrics and callbacks see a running batch.
                    with self._count_lock:
                        self.evaluation_count += 1
                    _COMPUTED.inc()
                    # Duplicates within the batch do no work of their own.
                    hit_indices.update(indices[1:])
                else:
                    hit_indices.update(indices)
                for index in indices:
                    results[index] = relabel_evaluation(evaluation, designs[index])
                flush()
        finally:
            # A batch stopped by a raising callback or a failing design still
            # counts as a batch; its finished designs are already counted.
            elapsed = time.perf_counter() - started
            with self._count_lock:
                self.cache_hits += len(hit_indices)
                self.batches += 1
                self.busy_s += elapsed
            _FROM_CACHE.inc(len(hit_indices))
            _BATCH_SECONDS.observe(elapsed)
            batch_span.set_attribute("computed", computed_count)
            batch_span.set_attribute("cache_hits", len(hit_indices))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ execution
    def _resolve(self, key: str, design: DesignPoint) -> Tuple[DesignEvaluation, bool]:
        """``key``'s evaluation, from the cache or computed (then ``True``).

        Single flight: a caller that reaches a key another caller is
        computing waits for it, then reads the cache.  If that caller failed,
        the entry is missing and the waiter computes the design itself.
        """
        holder = self._claim(key)
        while holder is not None:
            holder.wait()
            holder = self._claim(key)
        try:
            cached = self.cache.get(key)
            if cached is not None:
                return cached, False
            evaluation = self._evaluate_inline(design)
            self.cache.put(key, evaluation)
            return evaluation, True
        finally:
            self._release(key)

    def _claim(self, key: str) -> Optional[threading.Event]:
        """Take ``key``, or return the event of the caller that holds it."""
        with self._count_lock:
            holder = self._in_flight.get(key)
            if holder is None:
                self._in_flight[key] = threading.Event()
            return holder

    def _release(self, key: str) -> None:
        with self._count_lock:
            holder = self._in_flight.pop(key)
        holder.set()

    def _evaluate_inline(self, design: DesignPoint) -> DesignEvaluation:
        # The stage memo is thread-safe, so concurrent callers share the
        # runtime's stage graph: a node needed by several designs is computed
        # once, whichever caller reaches it first.
        with obs_span("runtime.evaluate", design=design.name):
            return run_design_evaluation(
                design,
                self.records,
                self.accurate_results,
                stage_memo=self.stage_memo,
            )

    # ------------------------------------------------------------ reporting
    def statistics(self) -> Dict[str, object]:
        """This runtime's counts and timings as one JSON-safe dict.

        The CLI's ``--json`` ``statistics`` and each ``/stats`` workload's
        ``telemetry``.  The stage figures are the stage graph's own counts,
        read live.
        """
        with self._count_lock:
            evaluations, hits = self.evaluation_count, self.cache_hits
            batches, busy_s = self.batches, self.busy_s
        resolved = evaluations + hits
        stages = self.stage_stats
        return {
            "evaluations": evaluations,
            "cache_hits": hits,
            "designs_resolved": resolved,
            "cache_hit_rate": hits / resolved if resolved else 0.0,
            "batches": batches,
            "busy_s": busy_s,
            "wall_clock_s": time.perf_counter() - self._started_at,
            "evaluations_per_second": evaluations / busy_s if busy_s > 0 else 0.0,
            "stage_hit_rate": stages.hit_rate(),
            "stage_cross_record_hits": stages.total_cross_record_hits,
            "stage_warm_hits": stages.total_warm_hits,
            "stage_stats": stages.as_dict(),
        }

    def report(self) -> str:
        """The CLI's statistics block, measured against the Fig. 11 model.

        :meth:`statistics`, plus what the process shares: the compiled-LUT
        registry, the metrics registry and the tracer.
        """
        stats = self.statistics()
        resolved, busy_s = stats["designs_resolved"], stats["busy_s"]
        modeled_s = ExplorationCostModel().duration_s(resolved)
        speedup = modeled_s / busy_s if busy_s > 0 else 1.0
        lines = [
            f"designs resolved : {resolved} ({stats['evaluations']} evaluated, "
            f"{stats['cache_hit_rate'] * 100:.1f}% cache hits)",
            f"throughput       : {stats['evaluations_per_second']:.2f} "
            "evaluations/s",
            f"busy wall-clock  : {busy_s:.2f} s",
            f"modeled serial   : {modeled_s:.0f} s (speedup x{speedup:.1f})",
        ]
        if stats["stage_stats"]:
            lines.append(
                f"stage-node reuse : {stats['stage_hit_rate'] * 100:.1f}% of "
                "stage runs served from the signal store "
                f"({stats['stage_cross_record_hits']} cross-record, "
                f"{stats['stage_warm_hits']} warm)"
            )
            for name, row in stats["stage_stats"].items():
                lines.append(
                    f"  {name:<24}: {row['computes']} computed, "
                    f"{row['hits']} reused "
                    f"({row['hit_rate'] * 100:.1f}% hit rate)"
                )
        tables = registry_info()
        tracing = get_tracer().info()
        lines += [
            f"compiled LUTs    : {tables['tables']} tables "
            f"({tables['builds']} builds, {tables['bytes'] / 1024:.0f} KiB)",
            f"observability    : "
            f"{obs_metrics.get_registry().series_count()} metric series, "
            f"{tracing['buffered']} spans buffered "
            f"(tracing {'on' if tracing['enabled'] else 'off'})",
        ]
        return "\n".join(lines)
