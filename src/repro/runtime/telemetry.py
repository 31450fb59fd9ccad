"""Progress events of the exploration runtime.

Each :meth:`~repro.runtime.engine.ExplorationRuntime.evaluate_many` call
delivers one :class:`ProgressEvent` per resolved design, in deterministic
(submission) order, to any number of registered callbacks.  Events
distinguish cache hits from fresh evaluations.

The aggregate figures (evaluations, cache hits, batches, busy and wall-clock
seconds, throughput and the stage graph's reuse counts) are the runtime's
own: :meth:`~repro.runtime.engine.ExplorationRuntime.statistics` returns
them as one JSON-safe dict, the CLI's ``--json`` ``statistics`` and each
``/stats`` workload's ``telemetry``, and
:meth:`~repro.runtime.engine.ExplorationRuntime.report` renders it for the
CLI against the paper's modeled serial exploration cost (the Fig. 11
yardstick, :class:`~repro.core.exploration_time.ExplorationCostModel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..core.configurations import DesignPoint
from ..core.quality import DesignEvaluation

__all__ = ["ProgressEvent", "ProgressCallback", "ProgressLog"]


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


class ProgressLog:
    """A progress callback that simply records every event (tests, demos)."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)

