"""Two-stage quality evaluation of approximate designs.

XBioSiP evaluates output quality at two points:

1. **Pre-processing quality** — the high-pass-filtered signal produced by the
   approximate datapath is compared against the accurate one with PSNR and/or
   SSIM (the paper uses PSNR >= 15 dB in its Table 2 exploration).  This is the
   signal a physician would inspect, so its fidelity is constrained
   separately.
2. **Application quality** — the final output of the algorithm, i.e. the
   detected QRS peaks, scored as peak-detection accuracy against the ground
   truth annotations.

:func:`run_design_evaluation` runs a :class:`DesignPoint` through the
pipeline on one or more records against their accurate reference runs and
produces a :class:`DesignEvaluation` carrying both quality stages plus the
hardware energy reduction — a single object that the design-generation
methodology, the benchmarks and the examples all consume.  It is the pure
computation: :class:`repro.runtime.ExplorationRuntime` is the one evaluator
that calls it, adding the accurate reference runs, a result cache and the
evaluation counter.

Given a stage memo (:mod:`repro.core.stage_graph`), every pipeline run
resolves its stages through that shared graph: each stage run is a
content-addressed node, so designs that agree on a settings prefix (e.g. the
paper's B1..B14 configurations, which never touch the LPF/HPF arithmetic in
more than four distinct ways) reuse each other's upstream signals instead of
recomputing them.  The pre-processing scores are a node too, keyed by the
two HPF outputs' content hashes: the Fig. 12 designs produce five distinct
HPF outputs, so a sweep computes PSNR and SSIM five times, and a warm rerun
not at all.  Memoized execution is bit-identical to cold execution; the memo
merely skips work it has provably done before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dsp.pan_tompkins import PanTompkinsPipeline, PanTompkinsResult
from ..dsp.stages import total_group_delay_samples
from ..metrics.peaks import PEAK_TOLERANCE_SAMPLES, match_peaks
from ..metrics.psnr import psnr
from ..metrics.ssim import ssim
from ..signals.records import ECGRecord
from .configurations import DesignPoint
from .stage_graph import StageGraphMemo

__all__ = [
    "QualityConstraint",
    "DesignEvaluation",
    "run_design_evaluation",
    "relabel_evaluation",
    "PREPROCESSING_PSNR_CONSTRAINT",
    "FULL_ACCURACY_CONSTRAINT",
]


@dataclass(frozen=True)
class QualityConstraint:
    """A user-defined quality constraint on one metric.

    Parameters
    ----------
    metric:
        ``"psnr"``, ``"ssim"`` or ``"peak_accuracy"``.
    threshold:
        Minimum acceptable value of the metric.
    """

    metric: str
    threshold: float

    _VALID = ("psnr", "ssim", "peak_accuracy")

    def __post_init__(self) -> None:
        if self.metric not in self._VALID:
            raise ValueError(
                f"metric must be one of {self._VALID}, got {self.metric!r}"
            )

    def satisfied_by(self, evaluation: "DesignEvaluation") -> bool:
        """True when the evaluation meets this constraint."""
        return evaluation.metric(self.metric) >= self.threshold

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.metric} >= {self.threshold}"


#: The paper's pre-processing constraint (Table 2): PSNR of at least 15 dB.
PREPROCESSING_PSNR_CONSTRAINT = QualityConstraint("psnr", 15.0)

#: The paper's headline application constraint: no peaks lost.
FULL_ACCURACY_CONSTRAINT = QualityConstraint("peak_accuracy", 1.0)


@dataclass
class DesignEvaluation:
    """Quality and energy figures of one design point (averaged over records)."""

    design: DesignPoint
    psnr_db: float
    ssim_value: float
    peak_accuracy: float
    detected_peaks: int
    true_peaks: int
    energy_reduction: float
    per_record_accuracy: Dict[str, float]

    def metric(self, name: str) -> float:
        """Value of a named quality metric (see :class:`QualityConstraint`)."""
        if name == "psnr":
            return self.psnr_db
        if name == "ssim":
            return self.ssim_value
        if name == "peak_accuracy":
            return self.peak_accuracy
        raise KeyError(f"unknown metric {name!r}")

    @property
    def detects_all_peaks(self) -> bool:
        """True when no ground-truth peak is missed on any record."""
        return self.peak_accuracy >= 1.0

    def summary(self) -> str:
        """One-line report used by examples and benchmark output."""
        return (
            f"{self.design.summary()} | PSNR {self.psnr_db:.1f} dB, "
            f"SSIM {self.ssim_value:.3f}, peaks {self.detected_peaks}/{self.true_peaks} "
            f"({self.peak_accuracy * 100:.1f}%), energy x{self.energy_reduction:.1f}"
        )


def relabel_evaluation(
    evaluation: DesignEvaluation, design: DesignPoint
) -> DesignEvaluation:
    """Return ``evaluation`` carrying ``design`` as its design point.

    Cache keys deliberately ignore the cosmetic ``name``/``description``
    labels, so a cache hit may return an evaluation computed for the same
    settings under a different label.  Reports must show the label the caller
    asked about, not the one that happened to fill the cache first.
    """
    if evaluation.design == design:
        return evaluation
    return replace(evaluation, design=design)


def run_design_evaluation(
    design: DesignPoint,
    records: Sequence[ECGRecord],
    accurate: Dict[str, PanTompkinsResult],
    stage_memo: Optional[StageGraphMemo] = None,
) -> DesignEvaluation:
    """Evaluate one design on a record set against precomputed accurate runs.

    This is the pure computation behind
    :meth:`repro.runtime.ExplorationRuntime.evaluate` — no caching, no
    counting, no shared mutable state — which makes it safe to call
    concurrently, as the service's jobs do on one shared runtime.  Passing
    a ``stage_memo`` resolves the pipeline's stage nodes, its decision stage
    and, when ``accurate`` ran through a memo too, the PSNR/SSIM scores
    through the memo's store (the memo is itself thread-safe); results are
    bit-identical either way.

    Detections are matched to the annotations within
    :data:`~repro.metrics.peaks.PEAK_TOLERANCE_SAMPLES`, after removing the
    pipeline's group delay.
    """
    expected_delay_samples = total_group_delay_samples()
    pipeline = PanTompkinsPipeline(backends=design.backends())

    psnr_values: List[float] = []
    ssim_values: List[float] = []
    accuracies: Dict[str, float] = {}
    detected_total = 0
    true_total = 0

    for record in records:
        approx = pipeline.process(record.samples, memo=stage_memo)
        reference = accurate[record.name]

        def score() -> Tuple[float, float]:
            return (
                psnr(reference.preprocessed, approx.preprocessed),
                ssim(reference.preprocessed, approx.preprocessed),
            )

        if stage_memo is None or not reference.node_hashes:
            psnr_value, ssim_value = score()
        else:
            psnr_value, ssim_value = stage_memo.resolve_quality(
                reference.node_hashes, approx.node_hashes, score
            )
        psnr_values.append(psnr_value)
        ssim_values.append(ssim_value)
        matching = match_peaks(
            record.r_peak_indices,
            approx.peak_indices,
            tolerance_samples=PEAK_TOLERANCE_SAMPLES,
            expected_delay_samples=expected_delay_samples,
        )
        accuracies[record.name] = matching.detection_accuracy
        detected_total += approx.peak_count
        true_total += record.beat_count

    return DesignEvaluation(
        design=design,
        psnr_db=float(np.mean([min(p, 120.0) for p in psnr_values])),
        ssim_value=float(np.mean(ssim_values)),
        peak_accuracy=float(np.mean(list(accuracies.values()))),
        detected_peaks=detected_total,
        true_peaks=true_total,
        energy_reduction=design.energy_reduction(),
        per_record_accuracy=accuracies,
    )

