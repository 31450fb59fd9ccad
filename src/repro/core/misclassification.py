"""Heartbeat misclassification analysis (paper Fig. 13).

The paper inspects why design B10 misses a small fraction of heartbeats: an
approximation-induced spurious bump appears on the MWI signal just before the
actual QRS complex, and because it does not align with a peak of the
high-pass-filtered signal (within the detector's alignment threshold), the
candidate — and with it the genuine beat — is discarded.

:func:`analyze_misclassifications` compares an approximate pipeline run
against the accurate one and the ground-truth annotations, and classifies
every divergence into missed beats, extra detections and alignment-rejected
candidates, reproducing the figure's narrative quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..dsp.pan_tompkins import PanTompkinsPipeline, PanTompkinsResult
from ..dsp.stages import total_group_delay_samples
from ..metrics.peaks import PEAK_TOLERANCE_SAMPLES
from ..signals.records import ECGRecord
from .configurations import DesignPoint

__all__ = ["MisclassificationReport", "analyze_misclassifications"]


@dataclass
class MisclassificationReport:
    """Beat-level comparison between an approximate and the accurate design."""

    record_name: str
    design_name: str
    true_beats: int
    accurate_detections: int
    approximate_detections: int
    missed_beats: List[int] = field(default_factory=list)
    extra_detections: List[int] = field(default_factory=list)
    alignment_rejections: List[int] = field(default_factory=list)

    @property
    def missed_count(self) -> int:
        """Number of ground-truth beats the approximate design failed to detect."""
        return len(self.missed_beats)

    @property
    def extra_count(self) -> int:
        """Number of spurious detections introduced by the approximation."""
        return len(self.extra_detections)

    @property
    def accuracy(self) -> float:
        """Peak-detection accuracy of the approximate design."""
        if self.true_beats == 0:
            return 1.0
        return (self.true_beats - self.missed_count) / self.true_beats

    @property
    def misclassification_rate(self) -> float:
        """Fraction of beats missed (the "<1 % heartbeats missed" figure)."""
        return 1.0 - self.accuracy

    def summary(self) -> str:
        """Human-readable report line."""
        return (
            f"{self.design_name} on record {self.record_name}: "
            f"{self.approximate_detections}/{self.true_beats} beats detected, "
            f"{self.missed_count} missed, {self.extra_count} extra, "
            f"{len(self.alignment_rejections)} rejected by HPF/MWI alignment"
        )


def analyze_misclassifications(
    record: ECGRecord, design: DesignPoint
) -> MisclassificationReport:
    """Compare an approximate design's detections against truth and A2.

    A detection matches an annotated beat within
    :data:`~repro.metrics.peaks.PEAK_TOLERANCE_SAMPLES` after the pipeline's
    group delay, as in the quality evaluation.

    Parameters
    ----------
    record:
        The ECG record (with ground-truth annotations) to analyse.
    design:
        The approximate hardware configuration (e.g. ``paper_configuration("B10")``).
    """
    delay = total_group_delay_samples()

    accurate_result: PanTompkinsResult = PanTompkinsPipeline().process(record.samples)
    approx_result: PanTompkinsResult = PanTompkinsPipeline(
        backends=design.backends()
    ).process(record.samples)

    truth = np.asarray(record.r_peak_indices, dtype=np.float64)
    approx_peaks = approx_result.peak_indices.astype(np.float64) - delay

    missed: List[int] = []
    for true_peak in truth:
        if approx_peaks.size == 0 or (
            np.min(np.abs(approx_peaks - true_peak)) > PEAK_TOLERANCE_SAMPLES
        ):
            missed.append(int(true_peak))

    extra: List[int] = []
    for detected in approx_peaks:
        if truth.size == 0 or (
            np.min(np.abs(truth - detected)) > PEAK_TOLERANCE_SAMPLES
        ):
            extra.append(int(detected + delay))

    return MisclassificationReport(
        record_name=record.name,
        design_name=design.name or design.summary(),
        true_beats=int(truth.size),
        accurate_detections=accurate_result.peak_count,
        approximate_detections=approx_result.peak_count,
        missed_beats=missed,
        extra_detections=extra,
        alignment_rejections=list(approx_result.detection.misaligned_indices),
    )
