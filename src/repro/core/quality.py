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

:class:`DesignEvaluator` runs a :class:`DesignPoint` through the pipeline on
one or more records, caches the accurate reference runs, and produces a
:class:`DesignEvaluation` carrying both quality stages plus the hardware
energy reduction — a single object that the design-generation methodology,
the benchmarks and the examples all consume.

All pipeline runs — accurate references included — execute through a shared
stage graph (:mod:`repro.core.stage_graph`): each stage run is a
content-addressed node, so designs that agree on a settings prefix (e.g. the
paper's B1..B14 configurations, which never touch the LPF/HPF arithmetic in
more than four distinct ways) reuse each other's upstream signals instead of
recomputing them.  Memoized execution is bit-identical to cold execution;
the evaluator merely skips work it has provably done before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, MutableMapping, Optional, Sequence, Union

import numpy as np

from ..dsp.detection import PeakDetectionConfig
from ..dsp.pan_tompkins import PanTompkinsPipeline, PanTompkinsResult
from ..dsp.stages import total_group_delay_samples
from ..metrics.peaks import match_peaks
from ..metrics.psnr import psnr
from ..metrics.ssim import ssim
from ..signals.records import ECGRecord
from .configurations import DesignPoint
from .fingerprint import evaluation_cache_key, workload_fingerprint
from .stage_graph import StageGraphMemo, StageGraphStats

__all__ = [
    "QualityConstraint",
    "DesignEvaluation",
    "DesignEvaluator",
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
    detection_config: Optional[PeakDetectionConfig] = None,
    peak_tolerance_samples: int = 40,
    expected_delay_samples: Optional[float] = None,
    stage_memo: Optional[StageGraphMemo] = None,
) -> DesignEvaluation:
    """Evaluate one design on a record set against precomputed accurate runs.

    This is the pure computation behind :meth:`DesignEvaluator.evaluate` — no
    caching, no counting, no shared mutable state — which makes it safe to
    call concurrently from the worker pools of
    :class:`repro.runtime.ExplorationRuntime`.  Passing a ``stage_memo``
    resolves the pipeline's stage nodes through the memo's store (the memo is
    itself thread-safe); results are bit-identical either way.
    """
    if expected_delay_samples is None:
        expected_delay_samples = total_group_delay_samples()
    pipeline = PanTompkinsPipeline(
        backends=design.backends(), detection_config=detection_config
    )

    psnr_values: List[float] = []
    ssim_values: List[float] = []
    accuracies: Dict[str, float] = {}
    detected_total = 0
    true_total = 0

    for record in records:
        approx = pipeline.process(record.samples, memo=stage_memo)
        reference = accurate[record.name]
        psnr_values.append(psnr(reference.preprocessed, approx.preprocessed))
        ssim_values.append(ssim(reference.preprocessed, approx.preprocessed))
        matching = match_peaks(
            record.r_peak_indices,
            approx.peak_indices,
            tolerance_samples=peak_tolerance_samples,
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


class DesignEvaluator:
    """Evaluates design points on a fixed set of records.

    The accurate pipeline is run once per record and cached; every design
    evaluation then costs one approximate pipeline run per record.  The
    evaluator also counts how many designs it has been asked to evaluate,
    which is the statistic behind the paper's exploration-time comparison
    (Fig. 11).

    Results are cached under the stable content keys of
    :mod:`repro.core.fingerprint`, which cover the design settings *and* the
    record set / evaluation parameters.  A cache mapping can therefore be
    shared between evaluator instances (pass one via ``cache=``): entries
    produced on a different record set or with different parameters can never
    be confused, because their keys differ.

    Below the whole-evaluation cache sits the *stage graph*: every pipeline
    run resolves its five stage nodes through a shared
    :class:`~repro.core.stage_graph.StageGraphMemo`, so distinct designs
    sharing a settings prefix reuse upstream stage outputs.  The accurate
    reference runs are graph nodes too, computed through the graph at
    construction.
    """

    def __init__(
        self,
        records: Union[ECGRecord, Sequence[ECGRecord]],
        detection_config: Optional[PeakDetectionConfig] = None,
        peak_tolerance_samples: int = 40,
        cache: Optional[MutableMapping[str, DesignEvaluation]] = None,
        signal_store: Optional[object] = None,
    ) -> None:
        if isinstance(records, ECGRecord):
            records = [records]
        if not records:
            raise ValueError("DesignEvaluator needs at least one record")
        self.records: List[ECGRecord] = list(records)
        self.detection_config = detection_config
        self.peak_tolerance_samples = peak_tolerance_samples
        self._delay = total_group_delay_samples()
        self._accurate: Dict[str, PanTompkinsResult] = {}
        self._evaluation_count = 0
        self._cache: MutableMapping[str, DesignEvaluation] = (
            cache if cache is not None else {}
        )
        self._stage_memo = StageGraphMemo(store=signal_store)
        pipeline = PanTompkinsPipeline(detection_config=detection_config)
        for record in self.records:
            self._accurate[record.name] = pipeline.process(
                record.samples, memo=self._stage_memo
            )
        self._workload = workload_fingerprint(
            self.records, detection_config, peak_tolerance_samples
        )

    # ------------------------------------------------------------ plumbing
    @property
    def evaluation_count(self) -> int:
        """Number of (non-cached) design evaluations performed so far."""
        return self._evaluation_count

    def reset_counter(self) -> None:
        """Reset the evaluation counter (the cache is kept)."""
        self._evaluation_count = 0

    @property
    def workload(self) -> str:
        """Content fingerprint of the record set + evaluation parameters."""
        return self._workload

    def cache_key(self, design: DesignPoint) -> str:
        """Portable cache key of ``design`` evaluated on this workload."""
        return evaluation_cache_key(design, self._workload)

    def accurate_result(self, record: ECGRecord) -> PanTompkinsResult:
        """The cached accurate pipeline result for one of the records."""
        return self._accurate[record.name]

    @property
    def accurate_results(self) -> Dict[str, PanTompkinsResult]:
        """All accurate reference runs, by record name."""
        return dict(self._accurate)

    @property
    def stage_memo(self) -> StageGraphMemo:
        """The stage-graph memo every pipeline run resolves through."""
        return self._stage_memo

    @property
    def stage_stats(self) -> StageGraphStats:
        """Per-stage hit/compute accounting of the stage graph."""
        return self._stage_memo.stats

    # ---------------------------------------------------------- evaluation
    def evaluate(self, design: DesignPoint, use_cache: bool = True) -> DesignEvaluation:
        """Run ``design`` on every record and aggregate the quality metrics."""
        key = self.cache_key(design)
        if use_cache:
            cached = self._cache.get(key)
            if cached is not None:
                return relabel_evaluation(cached, design)

        self._evaluation_count += 1
        evaluation = run_design_evaluation(
            design,
            self.records,
            self._accurate,
            detection_config=self.detection_config,
            peak_tolerance_samples=self.peak_tolerance_samples,
            expected_delay_samples=self._delay,
            stage_memo=self._stage_memo,
        )
        if use_cache:
            self._cache[key] = evaluation
        return evaluation

    def evaluate_many(self, designs: Iterable[DesignPoint]) -> List[DesignEvaluation]:
        """Evaluate several designs (kept simple: sequential)."""
        return [self.evaluate(design) for design in designs]
