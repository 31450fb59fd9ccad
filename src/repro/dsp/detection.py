"""Adaptive-threshold QRS peak detection (decision stage of Pan-Tompkins).

The decision logic follows the original 1985 algorithm: candidate peaks found
on the moving-window-integrated (MWI) signal are classified as signal or noise
by a pair of adaptive thresholds (running estimates ``SPKI`` / ``NPKI``), with
a refractory period, a search-back pass using the lower threshold when a beat
appears to have been missed, and a fiducial-alignment check against the
band-passed (HPF-stage output) signal.

The alignment check is the mechanism behind the paper's Fig. 13: an
approximation-induced spurious peak on the MWI signal that does not line up
with a peak on the filtered signal (within ``alignment_tolerance`` samples)
is discarded, which can also drop the genuine beat — the "heartbeat missed"
case the paper analyses for design B10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = [
    "LEARNING_WINDOW_SAMPLES",
    "CandidateTracker",
    "PeakDetectionConfig",
    "PeakDetectionResult",
    "ThresholdState",
    "detect_peaks",
]

#: Length of the initial learning window (two seconds at 200 Hz) used to seed
#: the adaptive thresholds.
LEARNING_WINDOW_SAMPLES = 400


@dataclass(frozen=True)
class PeakDetectionConfig:
    """Tunable parameters of the decision stage.

    All durations are expressed in samples at the pipeline's sampling rate
    (200 Hz by default, so the 40-sample refractory period is 200 ms).
    """

    refractory_samples: int = 40
    search_window_samples: int = 30
    alignment_tolerance_samples: int = 45
    min_alignment_amplitude_ratio: float = 0.3
    signal_weight: float = 0.125
    noise_weight: float = 0.125
    threshold_fraction: float = 0.25
    searchback_rr_factor: float = 1.66
    min_peak_value: float = 1.0


@dataclass
class PeakDetectionResult:
    """Outcome of the decision stage.

    Attributes
    ----------
    peak_indices:
        Sample indices (on the MWI time axis) of accepted QRS peaks.
    rejected_indices:
        Candidate peaks classified as noise by the thresholds.
    misaligned_indices:
        Candidates that crossed the threshold but failed the HPF/MWI
        alignment check and were therefore discarded (Fig. 13 mechanism).
    threshold_trace:
        Value of the adaptive signal threshold each time a candidate was
        evaluated (useful for plots and debugging).
    """

    peak_indices: List[int] = field(default_factory=list)
    rejected_indices: List[int] = field(default_factory=list)
    misaligned_indices: List[int] = field(default_factory=list)
    threshold_trace: List[float] = field(default_factory=list)

    @property
    def peak_count(self) -> int:
        """Number of accepted QRS peaks."""
        return len(self.peak_indices)

    def peak_array(self) -> np.ndarray:
        """Accepted peak indices as a NumPy array."""
        return np.asarray(self.peak_indices, dtype=np.int64)

    def pack(self) -> np.ndarray:
        """All four lists as one int64 array, bit for bit.

        The lengths of the three index lists come first, then the lists,
        then the threshold trace's float64 bit patterns; :meth:`unpack`
        inverts it.  This is how the stage graph stores a decision-stage
        node.
        """
        lists = (self.peak_indices, self.rejected_indices, self.misaligned_indices)
        return np.concatenate(
            [np.array([len(v) for v in lists], dtype=np.int64)]
            + [np.asarray(v, dtype=np.int64) for v in lists]
            + [np.asarray(self.threshold_trace, dtype=np.float64).view(np.int64)]
        )

    @classmethod
    def unpack(cls, packed: np.ndarray) -> "PeakDetectionResult":
        """The result :meth:`pack` packed into ``packed``."""
        peaks, rejected, misaligned, trace = np.split(packed[3:], np.cumsum(packed[:3]))
        return cls(
            peak_indices=peaks.tolist(),
            rejected_indices=rejected.tolist(),
            misaligned_indices=misaligned.tolist(),
            threshold_trace=trace.view(np.float64).tolist(),
        )


class CandidateTracker:
    """The candidate peaks of a growing MWI signal.

    Candidates are local maxima (``>=`` on the rising edge, ``>`` on the
    falling edge) of at least ``min_value``, greedily merged under the
    minimum-distance rule, keeping the larger peak.  :func:`detect_peaks`
    scans a whole signal with one :meth:`extend`; the streaming detector
    (:mod:`repro.streaming.detector`) extends it chunk by chunk and gets the
    same list for any split.  Only the *last* kept candidate is provisional
    — a later, larger peak within ``min_distance`` can still replace it — so
    ``kept[:-1]`` is a stable prefix of the final candidate list.
    """

    def __init__(self, min_distance: int, min_value: float) -> None:
        self.min_distance = min_distance
        self.min_value = min_value
        self.kept: List[int] = []
        self._scanned = 1  # next centre index to examine

    def extend(self, mwi: np.ndarray) -> None:
        """Scan newly arrived samples for candidates (``mwi`` = full prefix)."""
        n = mwi.size
        if n - 1 <= self._scanned:
            return
        # Centre indices self._scanned .. n-2, vectorised over the new region.
        segment = mwi[self._scanned - 1 : n]
        centre = segment[1:-1]
        rising = centre >= segment[:-2]
        falling = centre > segment[2:]
        raw = np.where(rising & falling & (centre >= self.min_value))[0]
        for offset in raw:
            index = int(offset) + self._scanned
            if self.kept and index - self.kept[-1] < self.min_distance:
                if mwi[index] > mwi[self.kept[-1]]:
                    self.kept[-1] = index
                continue
            self.kept.append(index)
        self._scanned = n - 1


def _aligned_with_filtered(
    mwi_index: int,
    filtered: Optional[np.ndarray],
    window: int,
    tolerance: int,
    min_amplitude_ratio: float,
    global_peak: Optional[float] = None,
) -> bool:
    """Check that a prominent filtered-signal peak exists near the MWI peak.

    The candidate is aligned when the band-passed signal, inside a window
    around the MWI peak (shifted back by the integrator's group delay),
    reaches at least ``min_amplitude_ratio`` of the band-passed signal's
    global peak.  A spurious MWI bump caused by approximation noise between
    beats fails this check because the filtered signal is quiet there.

    ``global_peak`` lets callers precompute ``max(abs(filtered))`` once per
    pass (the streaming detector tracks it as a running maximum).
    """
    if filtered is None:
        return True
    filtered = np.asarray(filtered, dtype=np.float64)
    if filtered.size == 0:
        return False
    if global_peak is None:
        global_peak = float(np.max(np.abs(filtered)))
    if global_peak <= 0.0:
        return False
    lo = max(0, mwi_index - window - tolerance)
    hi = min(filtered.size, mwi_index + tolerance + 1)
    if hi <= lo:
        return False
    local_peak = float(np.max(np.abs(filtered[lo:hi])))
    return local_peak >= min_amplitude_ratio * global_peak


class ThresholdState:
    """Carryable state of the adaptive-threshold decision logic.

    One instance holds everything the per-candidate loop of the original
    algorithm mutates: the running signal/noise estimates (``SPKI`` /
    ``NPKI``), the accepted-beat list, the RR-interval history and the
    rejected/misaligned bookkeeping.  :func:`detect_peaks` drives it over a
    whole recording; the streaming detector
    (:mod:`repro.streaming.detector`) drives the *same* code candidate by
    candidate as samples arrive, which is what makes chunked detection
    bit-identical to the offline pass.
    """

    def __init__(self, config: Optional[PeakDetectionConfig] = None) -> None:
        self.config = config or PeakDetectionConfig()
        self.spki = 0.0
        self.npki = 0.0
        self.accepted: List[int] = []
        self.rr_intervals: List[int] = []
        self.rejected_indices: List[int] = []
        self.misaligned_indices: List[int] = []
        self.threshold_trace: List[float] = []
        self.initialised = False

    def initialise(self, learning: np.ndarray) -> None:
        """Seed the thresholds from the learning window (first two seconds)."""
        learning = np.asarray(learning, dtype=np.float64)
        self.spki = float(np.max(learning)) * 0.25 if learning.size else 0.0
        self.npki = float(np.mean(learning)) * 0.5 if learning.size else 0.0
        self.initialised = True

    def threshold(self) -> float:
        """The current adaptive signal threshold."""
        return self.npki + self.config.threshold_fraction * (self.spki - self.npki)

    def _accept(self, index: int, value: float) -> None:
        weight = self.config.signal_weight
        self.spki = weight * value + (1.0 - weight) * self.spki
        if self.accepted:
            self.rr_intervals.append(index - self.accepted[-1])
            if len(self.rr_intervals) > 8:
                self.rr_intervals.pop(0)
        self.accepted.append(index)

    def _reject(self, index: int, value: float) -> None:
        weight = self.config.noise_weight
        self.npki = weight * value + (1.0 - weight) * self.npki
        self.rejected_indices.append(index)

    def process_candidate(
        self,
        index: int,
        mwi: np.ndarray,
        filtered: Optional[np.ndarray] = None,
        filtered_global_peak: Optional[float] = None,
    ) -> None:
        """Classify one candidate peak (candidates must arrive in order).

        ``mwi`` and ``filtered`` only need to cover the signal up to
        ``index + alignment_tolerance_samples`` — everything the decision
        reads lies at or before that point, which is the property the
        streaming detector relies on.
        """
        config = self.config
        index = int(index)
        value = float(mwi[index])
        self.threshold_trace.append(self.threshold())

        if self.accepted and index - self.accepted[-1] < config.refractory_samples:
            return

        if value >= self.threshold_trace[-1]:
            if _aligned_with_filtered(
                index,
                filtered,
                config.search_window_samples,
                config.alignment_tolerance_samples,
                config.min_alignment_amplitude_ratio,
                global_peak=filtered_global_peak,
            ):
                self._accept(index, value)
            else:
                self.misaligned_indices.append(index)
                self._reject(index, value)
        else:
            self._reject(index, value)

        # Search-back: if the gap since the last accepted beat exceeds the
        # expected RR interval, re-examine rejected candidates with the lower
        # threshold.
        if self.accepted and self.rr_intervals:
            average_rr = float(np.mean(self.rr_intervals))
            if index - self.accepted[-1] > config.searchback_rr_factor * average_rr:
                window_lo = self.accepted[-1] + config.refractory_samples
                missed = [
                    r
                    for r in self.rejected_indices
                    if window_lo <= r < index and mwi[r] >= 0.5 * self.threshold()
                ]
                if missed:
                    best = max(missed, key=lambda r: mwi[r])
                    self.rejected_indices.remove(best)
                    self._accept(int(best), float(mwi[best]))
                    self.accepted.sort()

    def finish(self) -> PeakDetectionResult:
        """Render the state into a :class:`PeakDetectionResult`."""
        return PeakDetectionResult(
            peak_indices=sorted(self.accepted),
            rejected_indices=list(self.rejected_indices),
            misaligned_indices=list(self.misaligned_indices),
            threshold_trace=list(self.threshold_trace),
        )


def detect_peaks(
    mwi_signal: np.ndarray,
    filtered_signal: Optional[np.ndarray] = None,
    config: Optional[PeakDetectionConfig] = None,
) -> PeakDetectionResult:
    """Run the adaptive-threshold decision stage.

    Parameters
    ----------
    mwi_signal:
        Output of the moving-window integrator.
    filtered_signal:
        Output of the band-pass (LPF+HPF) section, used for the fiducial
        alignment check; pass ``None`` to disable the check.
    config:
        Decision-stage parameters (defaults follow the original algorithm).
    """
    config = config or PeakDetectionConfig()
    mwi = np.asarray(mwi_signal, dtype=np.float64)
    candidates = CandidateTracker(config.refractory_samples, config.min_peak_value)
    candidates.extend(mwi)
    if not candidates.kept:
        return PeakDetectionResult()

    filtered: Optional[np.ndarray] = None
    global_peak: Optional[float] = None
    if filtered_signal is not None:
        filtered = np.asarray(filtered_signal, dtype=np.float64)
        if filtered.size:
            global_peak = float(np.max(np.abs(filtered)))

    # Initial threshold estimates from the first two seconds of signal.
    state = ThresholdState(config)
    state.initialise(mwi[: min(mwi.size, LEARNING_WINDOW_SAMPLES)])
    for index in candidates.kept:
        state.process_candidate(index, mwi, filtered, filtered_global_peak=global_peak)
    return state.finish()
