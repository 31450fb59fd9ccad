"""Peak-detection quality metrics.

The final quality metric of the XBioSiP case study is *peak detection
accuracy*: the fraction of true QRS peaks that the (possibly approximate)
pipeline still detects.  This module provides both the simple count-based
metric the paper quotes ("11 peaks detected") and a proper matched evaluation
(sensitivity, positive predictivity, F1) against ground-truth annotations
with a tolerance window, which is how beat detectors are normally scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PEAK_TOLERANCE_SAMPLES",
    "PeakMatchResult",
    "match_peaks",
    "peak_detection_accuracy",
    "count_accuracy",
]

#: How far (after delay compensation) a detection may lie from the annotated
#: beat it matches: 40 samples, 200 ms at 200 Hz.  The evaluation and the
#: live quality of a stream session both score beats with it.
PEAK_TOLERANCE_SAMPLES = 40


@dataclass(frozen=True)
class PeakMatchResult:
    """Outcome of matching detected peaks against ground-truth annotations."""

    true_positives: int
    false_positives: int
    false_negatives: int
    mean_offset_samples: float

    @property
    def sensitivity(self) -> float:
        """TP / (TP + FN): fraction of true beats that were detected."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def positive_predictivity(self) -> float:
        """TP / (TP + FP): fraction of detections that are true beats."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1_score(self) -> float:
        """Harmonic mean of sensitivity and positive predictivity."""
        se = self.sensitivity
        ppv = self.positive_predictivity
        return 2.0 * se * ppv / (se + ppv) if (se + ppv) > 0 else 0.0

    @property
    def detection_accuracy(self) -> float:
        """The paper's headline metric: fraction of true peaks detected."""
        return self.sensitivity


def match_peaks(
    true_peaks: Sequence[int],
    detected_peaks: Sequence[int],
    tolerance_samples: int = PEAK_TOLERANCE_SAMPLES,
    expected_delay_samples: float = 0.0,
) -> PeakMatchResult:
    """Greedily match detected peaks to ground-truth peaks.

    Parameters
    ----------
    true_peaks:
        Ground-truth R-peak sample indices (on the raw-signal time axis).
    detected_peaks:
        Detected peak indices (on the pipeline-output time axis).
    tolerance_samples:
        Maximum allowed distance between a detection and the annotation it is
        matched to (after delay compensation).
    expected_delay_samples:
        Known group delay of the processing pipeline; subtracted from the
        detections before matching.
    """
    true = np.sort(np.asarray(list(true_peaks), dtype=np.float64))
    detected = np.sort(np.asarray(list(detected_peaks), dtype=np.float64))
    detected = detected - expected_delay_samples

    matched_true = np.zeros(true.size, dtype=bool)
    matched_det = np.zeros(detected.size, dtype=bool)
    offsets = []

    for det_index, det in enumerate(detected):
        if true.size == 0:
            break
        distances = np.abs(true - det)
        distances[matched_true] = np.inf
        best = int(np.argmin(distances)) if distances.size else -1
        if best >= 0 and distances[best] <= tolerance_samples:
            matched_true[best] = True
            matched_det[det_index] = True
            offsets.append(float(det - true[best]))

    true_positives = int(np.sum(matched_det))
    false_positives = int(detected.size - true_positives)
    false_negatives = int(true.size - np.sum(matched_true))
    mean_offset = float(np.mean(offsets)) if offsets else 0.0
    return PeakMatchResult(
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
        mean_offset_samples=mean_offset,
    )


def peak_detection_accuracy(
    true_peaks: Sequence[int],
    detected_peaks: Sequence[int],
    tolerance_samples: int = PEAK_TOLERANCE_SAMPLES,
    expected_delay_samples: float = 0.0,
) -> float:
    """Fraction of true peaks detected (the paper's quality metric)."""
    return match_peaks(
        true_peaks, detected_peaks, tolerance_samples, expected_delay_samples
    ).detection_accuracy


def count_accuracy(true_count: int, detected_count: int) -> float:
    """Count-based accuracy: 1 minus the relative beat-count error.

    This is the coarser metric implied by the paper's "11 peaks detected in
    both cases" comparison; it ignores peak positions entirely.
    """
    if true_count <= 0:
        return 1.0 if detected_count == 0 else 0.0
    return max(0.0, 1.0 - abs(detected_count - true_count) / float(true_count))
