"""Exploration-time analysis of the design-space searches (paper Fig. 11).

The paper compares the time needed to explore the design space three ways:

* **Exhaustive** — every combination of LSB count, adder cell and multiplier
  cell, independently per stage; the estimated duration is measured in years
  (the figure's logarithmic right-hand axis).
* **Heuristic** — the restricted space actually enumerable in practice: one
  shared adder/multiplier cell for the whole design and LSB counts limited to
  multiples of two (81 designs for the two pre-processing stages, roughly
  seven hours at five minutes per evaluation).
* **Algorithm 1** — the design generation methodology, which evaluated only
  11 designs (about one hour) and is, on average, ~23.6x faster than the
  heuristic.

The reproduction derives the same statistics from the design-space
cardinalities of :mod:`repro.core.design_space` plus a per-evaluation cost
model, and can also report *measured* evaluation counts coming from an
:class:`~repro.runtime.ExplorationRuntime`.

Since the exploration engine (:class:`repro.runtime.ExplorationRuntime`) runs
design evaluations for real — in parallel, against a cache — the modeled
estimates can additionally be compared against **measured** wall-clock via
:class:`MeasuredExploration` / :func:`measure_exploration`, turning Fig. 11 /
Table 2 from a purely analytical comparison into a benchmarked one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .design_space import DesignSpace, full_design_space

__all__ = [
    "ExplorationCostModel",
    "ExplorationEstimate",
    "MeasuredExploration",
    "estimate_exploration",
    "measure_exploration",
    "compare_strategies",
    "PAPER_SECONDS_PER_EVALUATION",
]

#: The paper's per-design evaluation cost: a 20,000-sample recording takes
#: roughly 300 seconds to filter and process in their MATLAB flow.
PAPER_SECONDS_PER_EVALUATION = 300.0


@dataclass(frozen=True)
class ExplorationCostModel:
    """Converts a number of design evaluations into wall-clock time."""

    seconds_per_evaluation: float = PAPER_SECONDS_PER_EVALUATION

    def duration_s(self, evaluations: int) -> float:
        """Wall-clock seconds needed for ``evaluations`` design evaluations."""
        if evaluations < 0:
            raise ValueError(f"evaluations must be >= 0, got {evaluations}")
        return evaluations * self.seconds_per_evaluation


@dataclass(frozen=True)
class ExplorationEstimate:
    """Evaluation count and estimated duration of one exploration strategy."""

    strategy: str
    evaluations: int
    duration_s: float

    @property
    def duration_hours(self) -> float:
        """Duration in hours."""
        return self.duration_s / 3600.0

    @property
    def duration_years(self) -> float:
        """Duration in years (used for the exhaustive strategy)."""
        return self.duration_s / (3600.0 * 24.0 * 365.0)

    def speedup_over(self, other: "ExplorationEstimate") -> float:
        """How many times faster this strategy is than ``other``."""
        if self.duration_s <= 0:
            return float("inf")
        return other.duration_s / self.duration_s


@dataclass(frozen=True)
class MeasuredExploration:
    """Measured exploration cost of one strategy next to its modeled cost.

    Produced from the telemetry of a :class:`repro.runtime.ExplorationRuntime`
    run (see :func:`measure_exploration`): ``evaluations`` counts fresh
    pipeline evaluations, ``cache_hits`` the designs answered from the result
    cache, and ``measured_s`` the busy wall-clock actually spent — the number
    the paper's per-evaluation model (``modeled_s``) is checked against.
    """

    strategy: str
    evaluations: int
    cache_hits: int
    measured_s: float
    modeled_s: float

    @property
    def designs_resolved(self) -> int:
        """Designs answered in total (evaluated + served from cache)."""
        return self.evaluations + self.cache_hits

    @property
    def speedup_vs_model(self) -> float:
        """How much faster the measured run was than the modeled serial one."""
        if self.measured_s <= 0:
            return float("inf")
        return self.modeled_s / self.measured_s

    def summary(self) -> str:
        """One-line report used by the CLI."""
        return (
            f"{self.strategy}: {self.evaluations} evaluations "
            f"(+{self.cache_hits} cache hits) in {self.measured_s:.2f} s "
            f"measured vs {self.modeled_s:.0f} s modeled "
            f"(x{self.speedup_vs_model:.1f})"
        )


def measure_exploration(
    strategy: str,
    evaluations: int,
    measured_s: float,
    cache_hits: int = 0,
    cost_model: Optional[ExplorationCostModel] = None,
) -> MeasuredExploration:
    """Build a :class:`MeasuredExploration` from runtime telemetry numbers.

    The modeled duration charges the cost model for every *resolved* design
    (evaluations plus cache hits): that is what a cache-less serial run, like
    the paper's MATLAB flow, would have had to execute.
    """
    if evaluations < 0 or cache_hits < 0:
        raise ValueError("evaluation and cache-hit counts must be >= 0")
    if measured_s < 0:
        raise ValueError(f"measured_s must be >= 0, got {measured_s}")
    cost_model = cost_model or ExplorationCostModel()
    return MeasuredExploration(
        strategy=strategy,
        evaluations=evaluations,
        cache_hits=cache_hits,
        measured_s=measured_s,
        modeled_s=cost_model.duration_s(evaluations + cache_hits),
    )


def estimate_exploration(
    strategy: str,
    evaluations: int,
    cost_model: Optional[ExplorationCostModel] = None,
) -> ExplorationEstimate:
    """Build an :class:`ExplorationEstimate` from an evaluation count."""
    cost_model = cost_model or ExplorationCostModel()
    return ExplorationEstimate(
        strategy=strategy,
        evaluations=evaluations,
        duration_s=cost_model.duration_s(evaluations),
    )


def compare_strategies(
    heuristic_space: DesignSpace,
    algorithm1_evaluations: int,
    exhaustive_space: Optional[DesignSpace] = None,
    cost_model: Optional[ExplorationCostModel] = None,
) -> Dict[str, ExplorationEstimate]:
    """Reproduce the Fig. 11 comparison for a given exploration problem.

    Parameters
    ----------
    heuristic_space:
        The restricted space the heuristic baseline enumerates.
    algorithm1_evaluations:
        Measured number of designs Algorithm 1 evaluated (from the
        :class:`~repro.runtime.ExplorationRuntime` counter or a
        :class:`~repro.core.design_generation.GenerationTrace`).
    exhaustive_space:
        The unrestricted space; defaults to the full five-stage space with
        per-stage cells and single-LSB granularity.
    """
    cost_model = cost_model or ExplorationCostModel()
    exhaustive_space = exhaustive_space or full_design_space()
    return {
        "exhaustive": estimate_exploration(
            "exhaustive", exhaustive_space.size(), cost_model
        ),
        "heuristic": estimate_exploration(
            "heuristic", heuristic_space.size(), cost_model
        ),
        "algorithm1": estimate_exploration(
            "algorithm1", algorithm1_evaluations, cost_model
        ),
    }
