"""Error-resilience analysis of the application stages (Fig. 2 and Fig. 8).

For every stage, the analysis sweeps the number of approximated output LSBs
(keeping all other stages accurate), and records:

* the area / delay / power / energy reduction of the stage hardware,
* the signal quality of the pre-processing output (PSNR and SSIM against the
  accurate run), and
* the end-to-end peak-detection accuracy.

From the resulting profile the error-resilience threshold (the largest LSB
count that still meets a quality constraint) and the maximum exploitable
energy reduction are derived — exactly the per-stage inputs that the design
generation methodology (Algorithm 1) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..dsp.stages import stage_by_name
from ..energy.stage_costs import stage_reduction
from .configurations import DEFAULT_ADDER, DEFAULT_MULTIPLIER, DesignPoint, StageApproximation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->runtime cycle
    from ..runtime.engine import ExplorationRuntime
    from ..runtime.telemetry import ProgressCallback

__all__ = ["ResiliencePoint", "StageResilienceProfile", "analyze_stage_resilience"]


@dataclass(frozen=True)
class ResiliencePoint:
    """One point of a stage's error-resilience sweep."""

    lsbs: int
    energy_reduction: float
    area_reduction: float
    power_reduction: float
    latency_reduction: float
    psnr_db: float
    ssim_value: float
    peak_accuracy: float


@dataclass
class StageResilienceProfile:
    """Full sweep of one stage plus derived summary statistics."""

    stage: str
    adder: str
    multiplier: str
    points: List[ResiliencePoint] = field(default_factory=list)

    @property
    def lsb_values(self) -> List[int]:
        """The LSB counts covered by the sweep (ascending)."""
        return [point.lsbs for point in self.points]

    def point_for(self, lsbs: int) -> ResiliencePoint:
        """The sweep point at a specific LSB count."""
        for point in self.points:
            if point.lsbs == lsbs:
                return point
        raise KeyError(f"no resilience point for {lsbs} LSBs in stage {self.stage}")

    def error_resilience_threshold(self, min_peak_accuracy: float = 1.0) -> int:
        """Largest LSB count whose peak-detection accuracy is still acceptable.

        The paper calls this the "threshold for error resilience" (14 LSBs for
        the LPF in Fig. 2).  Returns 0 when even a single approximated LSB
        violates the requirement.
        """
        threshold = 0
        for point in self.points:
            if point.peak_accuracy >= min_peak_accuracy:
                threshold = point.lsbs
            else:
                break
        return threshold

    def max_energy_reduction(self, min_peak_accuracy: float = 1.0) -> float:
        """Largest energy reduction achievable without violating accuracy."""
        best = 1.0
        for point in self.points:
            if point.peak_accuracy >= min_peak_accuracy:
                best = max(best, point.energy_reduction)
        return best

    def lsb_list_descending(self, min_peak_accuracy: float = 0.0) -> List[int]:
        """Candidate LSB counts, most aggressive first (Algorithm 1 input)."""
        eligible = [
            point.lsbs
            for point in self.points
            if point.lsbs > 0 and point.peak_accuracy >= min_peak_accuracy
        ]
        return sorted(eligible, reverse=True)

    def as_table(self) -> List[Dict[str, float]]:
        """Row-per-LSB view used by the Fig. 2 / Fig. 8 benchmarks."""
        return [
            {
                "lsbs": point.lsbs,
                "energy_reduction": point.energy_reduction,
                "area_reduction": point.area_reduction,
                "power_reduction": point.power_reduction,
                "latency_reduction": point.latency_reduction,
                "psnr_db": point.psnr_db,
                "ssim": point.ssim_value,
                "peak_accuracy": point.peak_accuracy,
            }
            for point in self.points
        ]


def analyze_stage_resilience(
    stage: str,
    evaluator: ExplorationRuntime,
    lsb_values: Optional[Sequence[int]] = None,
    adder: str = DEFAULT_ADDER,
    multiplier: str = DEFAULT_MULTIPLIER,
    progress: Optional[ProgressCallback] = None,
) -> StageResilienceProfile:
    """Sweep one stage's approximated LSBs while all other stages stay accurate.

    Parameters
    ----------
    stage:
        Stage name or alias (``"lpf"``, ``"hpf"``, ...).
    evaluator:
        Runtime holding the records and the accurate reference runs.
    lsb_values:
        LSB counts to sweep; defaults to 0, 2, 4, ... up to the stage's
        ``max_approx_lsbs`` (the grids shown in Figs. 2 and 8).
    adder / multiplier:
        Elementary cells deployed in the approximated region (the paper uses
        the least-energy cells, ApproxAdd5 and AppMultV1).
    progress:
        Per-design progress callback of the sweep's batch; one that raises
        stops the sweep (how a service job is cancelled).
    """
    definition = stage_by_name(stage)
    if lsb_values is None:
        lsb_values = list(range(0, definition.max_approx_lsbs + 1, 2))

    profile = StageResilienceProfile(
        stage=definition.name, adder=adder, multiplier=multiplier
    )
    # Sweep points are independent, so they are submitted as one batch,
    # which returns results in sweep order.
    designs = []
    for lsbs in lsb_values:
        if lsbs < 0:
            raise ValueError(f"negative LSB count {lsbs} in sweep for {stage}")
        designs.append(
            DesignPoint(
                stages=(StageApproximation(definition.name, lsbs, adder, multiplier),)
                if lsbs > 0
                else (),
                name=f"{definition.name}@{lsbs}",
            )
        )
    evaluations = evaluator.evaluate_many(designs, progress=progress)
    for lsbs, evaluation in zip(lsb_values, evaluations):
        reductions = stage_reduction(definition.name, lsbs, adder, multiplier)
        profile.points.append(
            ResiliencePoint(
                lsbs=lsbs,
                energy_reduction=reductions["energy"],
                area_reduction=reductions["area"],
                power_reduction=reductions["power"],
                latency_reduction=reductions["delay"],
                psnr_db=evaluation.psnr_db,
                ssim_value=evaluation.ssim_value,
                peak_accuracy=evaluation.peak_accuracy,
            )
        )
    return profile
