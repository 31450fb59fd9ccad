"""End-to-end XBioSiP methodology driver.

:class:`XBioSiP` ties the whole flow of the paper's Fig. 4 together:

1. characterise the elementary approximate adder/multiplier library
   (Table 1 costs, energy-sorted lists),
2. analyse the error resilience of every application stage (Figs. 2 and 8),
3. run the design generation methodology on the *data pre-processing* section
   (LPF + HPF) against the signal-quality constraint (PSNR/SSIM), and
4. run it again on the *signal processing* section (differentiator, squarer,
   MWI) — with the pre-processing design frozen — against the final
   application constraint (peak-detection accuracy),

returning a single approximate bio-signal processor configuration together
with its quality figures, energy reduction and exploration statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..energy.synthesis import adders_by_energy, multipliers_by_energy
from ..signals.records import ECGRecord
from .configurations import DesignPoint
from .design_generation import DesignGenerationResult, generate_design
from .fingerprint import record_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->runtime cycle
    from ..runtime.engine import ExplorationRuntime
from .quality import (
    DesignEvaluation,
    FULL_ACCURACY_CONSTRAINT,
    PREPROCESSING_PSNR_CONSTRAINT,
    QualityConstraint,
)
from .resilience import StageResilienceProfile, analyze_stage_resilience

__all__ = ["XBioSiPResult", "XBioSiP"]

#: Stage grouping used by the two-stage quality evaluation.
PREPROCESSING_STAGES = ("low_pass", "high_pass")
SIGNAL_PROCESSING_STAGES = ("derivative", "squarer", "moving_window_integral")


@dataclass
class XBioSiPResult:
    """Everything the methodology produced for one run."""

    final_design: DesignPoint
    final_evaluation: DesignEvaluation
    preprocessing_result: DesignGenerationResult
    signal_processing_result: DesignGenerationResult
    resilience_profiles: Dict[str, StageResilienceProfile]
    evaluations_performed: int
    adder_list: List[str] = field(default_factory=list)
    multiplier_list: List[str] = field(default_factory=list)

    @property
    def energy_reduction(self) -> float:
        """Energy-reduction factor of the final approximate processor."""
        return self.final_design.energy_reduction()

    def report(self) -> str:
        """Multi-line human-readable summary (used by the quickstart example)."""
        lines = [
            "XBioSiP design generation result",
            "--------------------------------",
            f"selected design : {self.final_design.summary()}",
            f"energy reduction: {self.energy_reduction:.1f}x vs the accurate design",
            f"PSNR            : {self.final_evaluation.psnr_db:.1f} dB",
            f"SSIM            : {self.final_evaluation.ssim_value:.3f}",
            (
                "peak detection  : "
                f"{self.final_evaluation.detected_peaks}/{self.final_evaluation.true_peaks} "
                f"({self.final_evaluation.peak_accuracy * 100:.1f}%)"
            ),
            f"designs evaluated: {self.evaluations_performed}",
        ]
        return "\n".join(lines)


class XBioSiP:
    """The XBioSiP approximation methodology for bio-signal processors.

    Parameters
    ----------
    records:
        ECG records used for all quality evaluations.
    preprocessing_constraint:
        Quality constraint applied after the data pre-processing section
        (default: PSNR >= 15 dB, the paper's Table 2 setting).
    final_constraint:
        Quality constraint applied to the application output (default: 100 %
        peak-detection accuracy).
    adder_list / multiplier_list:
        Elementary cells to consider, most aggressive (least energy) first.
        Defaults to the paper's simplification: ApproxAdd5 and AppMultV1 only.
    runtime:
        The :class:`~repro.runtime.ExplorationRuntime` all design evaluations
        execute through.  Defaults to a runtime over ``records``; pass one
        with a persistent cache to reuse results across runs.  Thanks to
        batch deduplication and content-addressed caching the selected
        design and the evaluation counts are identical whichever cache the
        runtime holds.
    """

    def __init__(
        self,
        records: Sequence[ECGRecord],
        preprocessing_constraint: QualityConstraint = PREPROCESSING_PSNR_CONSTRAINT,
        final_constraint: QualityConstraint = FULL_ACCURACY_CONSTRAINT,
        adder_list: Optional[Sequence[str]] = None,
        multiplier_list: Optional[Sequence[str]] = None,
        runtime: Optional[ExplorationRuntime] = None,
    ) -> None:
        self.records = list(records)
        self.preprocessing_constraint = preprocessing_constraint
        self.final_constraint = final_constraint
        self.adder_list = list(adder_list) if adder_list else ["ApproxAdd5"]
        self.multiplier_list = list(multiplier_list) if multiplier_list else ["AppMultV1"]
        # Imported here, not at module level: repro.runtime builds on
        # repro.core, so the default-runtime convenience must not create an
        # import-time cycle between the two packages.
        from ..runtime.engine import ExplorationRuntime

        if runtime is None:
            runtime = ExplorationRuntime(self.records)
        elif sorted(record_fingerprint(r) for r in self.records) != sorted(
            record_fingerprint(r) for r in runtime.records
        ):
            raise ValueError(
                "the runtime was built over a different record set than the "
                "one passed to XBioSiP; evaluations would run on the wrong "
                "records"
            )
        self.runtime = runtime

    # ------------------------------------------------------------ steps
    def library_energy_order(self) -> Dict[str, List[str]]:
        """Step 1: the energy-sorted elementary cell lists (Fig. 4 top)."""
        return {
            "adders": adders_by_energy(),
            "multipliers": multipliers_by_energy(),
        }

    def analyze_resilience(
        self, stages: Sequence[str]
    ) -> Dict[str, StageResilienceProfile]:
        """Step 2: error-resilience profiles of the requested stages."""
        profiles = {}
        for stage in stages:
            profiles[stage] = analyze_stage_resilience(
                stage,
                self.runtime,
                adder=self.adder_list[0],
                multiplier=self.multiplier_list[0],
            )
        return profiles

    # -------------------------------------------------------------- run
    def run(self) -> XBioSiPResult:
        """Execute the full methodology and return the selected design."""
        before = self.runtime.evaluation_count

        all_stages = (*PREPROCESSING_STAGES, *SIGNAL_PROCESSING_STAGES)
        profiles = self.analyze_resilience(all_stages)

        # Approximations in data pre-processing (quality check #1).
        preprocessing = generate_design(
            {name: profiles[name] for name in PREPROCESSING_STAGES},
            self.runtime,
            self.preprocessing_constraint,
            stages=PREPROCESSING_STAGES,
            mult_list=self.multiplier_list,
            add_list=self.adder_list,
        )

        # Approximations in signal processing (quality check #2), with the
        # pre-processing design frozen as the base.
        signal_processing = generate_design(
            {name: profiles[name] for name in SIGNAL_PROCESSING_STAGES},
            self.runtime,
            self.final_constraint,
            stages=SIGNAL_PROCESSING_STAGES,
            mult_list=self.multiplier_list,
            add_list=self.adder_list,
            base_design=preprocessing.design,
        )

        final_design = DesignPoint(
            stages=signal_processing.design.stages,
            name="xbiosip",
            description="Approximate bio-signal processor generated by XBioSiP",
        )
        final_evaluation = self.runtime.evaluate(final_design)

        return XBioSiPResult(
            final_design=final_design,
            final_evaluation=final_evaluation,
            preprocessing_result=preprocessing,
            signal_processing_result=signal_processing,
            resilience_profiles=profiles,
            evaluations_performed=self.runtime.evaluation_count - before,
            adder_list=list(self.adder_list),
            multiplier_list=list(self.multiplier_list),
        )
