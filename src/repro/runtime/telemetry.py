"""Progress and performance telemetry of the exploration runtime.

The runtime reports two kinds of signals:

* **Progress events** — one :class:`ProgressEvent` per design resolved by an
  :meth:`~repro.runtime.engine.ExplorationRuntime.evaluate_many` call,
  delivered in deterministic (submission) order to any number of registered
  callbacks.  Events distinguish cache hits from fresh evaluations.
* **Aggregate telemetry** — :class:`RuntimeTelemetry` accumulates evaluation
  counts, cache hits and busy wall-clock, from which it derives
  evaluations-per-second and, given an
  :class:`~repro.core.exploration_time.ExplorationCostModel`, the measured
  speedup over the paper's modeled serial exploration cost (the Fig. 11
  yardstick).  It also reads the stage graph's live hit/compute counters
  (how many stage runs were served from the intermediate-signal store
  instead of being recomputed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.configurations import DesignPoint
from ..core.exploration_time import ExplorationCostModel
from ..core.quality import DesignEvaluation
from ..core.stage_graph import StageGraphStats

__all__ = ["ProgressEvent", "ProgressCallback", "RuntimeTelemetry"]


@dataclass(frozen=True)
class ProgressEvent:
    """One design resolved (computed or served from cache) within a batch.

    ``elapsed_s`` is the time since the batch started at the moment this
    design (and every design before it) was resolved — events stream while
    the batch is still running.  It is measured with ``time.perf_counter``,
    the same monotonic clock every span in :mod:`repro.obs.tracing` uses, so
    progress timings and trace timings are directly comparable and immune to
    wall-clock steps.
    """

    index: int
    total: int
    design: DesignPoint
    evaluation: DesignEvaluation
    cache_hit: bool
    elapsed_s: float

    @property
    def completed(self) -> int:
        """Number of designs resolved so far in this batch (1-based)."""
        return self.index + 1

    def describe(self) -> str:
        """One-line progress report (used by the CLI's verbose mode)."""
        source = "cache" if self.cache_hit else "eval"
        return (
            f"[{self.completed}/{self.total}] {source:>5} "
            f"{self.evaluation.summary()}"
        )


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class RuntimeTelemetry:
    """Aggregate counters and timings of one runtime instance."""

    evaluations: int = 0
    cache_hits: int = 0
    batches: int = 0
    busy_s: float = 0.0
    #: The stage graph's own counters, read live (never copied).
    stage_stats: StageGraphStats = field(default_factory=StageGraphStats)
    # perf_counter, not time.time: wall_clock_s is a duration, and the span
    # tracer / ProgressEvent.elapsed_s use the same monotonic clock source.
    _started_at: float = field(default_factory=time.perf_counter, repr=False)

    # ----------------------------------------------------------- recording
    def record_batch(self, hits: int, elapsed_s: float) -> None:
        """Account one ``evaluate_many`` call.

        Its fresh evaluations are not passed: the runtime adds each one to
        :attr:`evaluations` as it finishes.
        """
        self.cache_hits += hits
        self.batches += 1
        self.busy_s += elapsed_s

    # ------------------------------------------------------------- derived
    @property
    def designs_resolved(self) -> int:
        """Total designs answered (fresh evaluations plus cache hits)."""
        return self.evaluations + self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolved designs that were served from the cache."""
        resolved = self.designs_resolved
        return self.cache_hits / resolved if resolved else 0.0

    @property
    def wall_clock_s(self) -> float:
        """Seconds since this telemetry object was created (monotonic)."""
        return time.perf_counter() - self._started_at

    @property
    def evaluations_per_second(self) -> float:
        """Fresh evaluations per second of busy time (0.0 when idle)."""
        return self.evaluations / self.busy_s if self.busy_s > 0 else 0.0

    def modeled_duration_s(
        self, cost_model: Optional[ExplorationCostModel] = None
    ) -> float:
        """Serial wall-clock the cost model predicts for the same work."""
        cost_model = cost_model or ExplorationCostModel()
        return cost_model.duration_s(self.designs_resolved)

    def speedup_vs_model(
        self, cost_model: Optional[ExplorationCostModel] = None
    ) -> float:
        """Measured speedup over the modeled serial exploration cost."""
        if self.busy_s <= 0:
            return float("inf") if self.designs_resolved else 1.0
        return self.modeled_duration_s(cost_model) / self.busy_s

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict rendering for reports and the CLI."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "designs_resolved": self.designs_resolved,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "busy_s": self.busy_s,
            "wall_clock_s": self.wall_clock_s,
            "evaluations_per_second": self.evaluations_per_second,
            "stage_hit_rate": self.stage_stats.hit_rate(),
            "stage_cross_record_hits": self.stage_stats.total_cross_record_hits,
            "stage_warm_hits": self.stage_stats.total_warm_hits,
            "stage_stats": self.stage_stats.as_dict(),
        }


class ProgressLog:
    """A progress callback that simply records every event (tests, demos)."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)


__all__.append("ProgressLog")
