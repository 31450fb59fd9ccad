"""Incremental adaptive-threshold QRS detection over a growing signal.

The offline decision stage (:func:`repro.dsp.detection.detect_peaks`) has
three dependencies that reach beyond a sample's own past:

1. the **learning window** — thresholds seed from the first two seconds
   (:data:`~repro.dsp.detection.LEARNING_WINDOW_SAMPLES` samples) of MWI
   signal, so no candidate can be classified before that window is full;
2. the **candidate horizon** — a local maximum is only final once the greedy
   minimum-distance merge can no longer replace it with a later, larger peak,
   and the fiducial alignment check reads the filtered signal up to
   ``index + alignment_tolerance_samples``;
3. the **global filtered peak** — the alignment check compares against the
   maximum of the *whole* record's filtered signal, which a stream only
   knows as a running maximum.

:class:`IncrementalPeakDetector` handles (1) and (2) by deferring candidates
until they are decidable, and (3) by re-running the (cheap, candidate-level)
decision chain from the start whenever the running maximum grows past the
value the current state was built with.  Re-scans touch only the candidate
list — never the DSP stages — and become rare once the record's largest beat
has been seen.  Because the replayed decisions use the *same*
:class:`~repro.dsp.detection.ThresholdState` code as the offline pass, the
finalised result is bit-identical to ``detect_peaks`` on the concatenated
signal, while beats stream out with bounded latency (a beat is reported as
soon as its candidate horizon closes).

A consequence of (3) is that a beat reported mid-stream can later be
*revoked* when a larger beat tightens the alignment check; updates therefore
carry both ``beats_added`` and ``beats_removed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..dsp.detection import (
    LEARNING_WINDOW_SAMPLES,
    CandidateTracker,
    PeakDetectionConfig,
    PeakDetectionResult,
    ThresholdState,
)
from .buffers import GrowableArray

__all__ = ["DetectorUpdate", "IncrementalPeakDetector"]


@dataclass
class DetectorUpdate:
    """Beat-list delta produced by one detector update.

    ``beats_removed`` is almost always empty; it is populated only when a
    growing filtered-signal maximum forced a re-scan that revoked a
    previously reported beat (see the module docstring).
    """

    beats_added: List[int] = field(default_factory=list)
    beats_removed: List[int] = field(default_factory=list)
    beat_count: int = 0
    threshold: float = 0.0
    rescanned: bool = False


class IncrementalPeakDetector:
    """Streaming counterpart of :func:`repro.dsp.detection.detect_peaks`."""

    def __init__(
        self,
        config: Optional[PeakDetectionConfig] = None,
        use_filtered: bool = True,
    ) -> None:
        self.config = config or PeakDetectionConfig()
        self.use_filtered = use_filtered
        self._mwi = GrowableArray(np.float64)
        self._filtered = GrowableArray(np.float64) if use_filtered else None
        self._tracker = CandidateTracker(
            self.config.refractory_samples, self.config.min_peak_value
        )
        self._state = ThresholdState(self.config)
        self._cursor = 0  # candidates already replayed through the state
        self._global_peak = 0.0
        self._state_peak = 0.0  # global peak the current state was built with
        self._reported: List[int] = []
        self.rescans = 0
        self.finalised = False

    # --------------------------------------------------------------- intake
    @property
    def samples(self) -> int:
        """MWI samples consumed so far."""
        return self._mwi.size

    def update(
        self,
        mwi_chunk: np.ndarray,
        filtered_chunk: Optional[np.ndarray] = None,
    ) -> DetectorUpdate:
        """Consume one chunk of MWI (and filtered) samples; returns the delta."""
        if self.finalised:
            raise RuntimeError("detector was already finalised")
        self._mwi.append(np.asarray(mwi_chunk, dtype=np.float64))
        if self._filtered is not None:
            if filtered_chunk is None:
                raise ValueError("detector expects a filtered chunk per update")
            chunk = np.asarray(filtered_chunk, dtype=np.float64)
            self._filtered.append(chunk)
            if chunk.size:
                self._global_peak = max(
                    self._global_peak, float(np.max(np.abs(chunk)))
                )
        self._tracker.extend(self._mwi.view())
        return self._advance(final=False)

    def finalize(self) -> PeakDetectionResult:
        """Flush deferred candidates; the result equals the offline pass."""
        if not self.finalised:
            self._advance(final=True)
            self.finalised = True
        return self._state.finish()

    # ------------------------------------------------------------- decisions
    def _decidable(self, n: int, final: bool) -> List[int]:
        """The candidate prefix whose decisions can no longer change."""
        kept = self._tracker.kept
        if final:
            return kept
        if n < LEARNING_WINDOW_SAMPLES:
            # Offline seeds the thresholds from min(record, window) samples;
            # until the window is full the seed is still unknown.
            return []
        stable = kept[:-1]  # the last candidate is still provisional
        if self._filtered is None:
            return stable
        horizon = self.config.alignment_tolerance_samples
        limit = n - horizon - 1  # alignment window must be complete
        count = 0
        for index in stable:
            if index > limit:
                break
            count += 1
        return stable[:count]

    def _advance(self, final: bool) -> DetectorUpdate:
        mwi = self._mwi.view()
        n = mwi.size
        update = DetectorUpdate(rescanned=False)
        if n == 0:
            return update
        filtered = self._filtered.view() if self._filtered is not None else None
        global_peak: Optional[float] = None
        if filtered is not None and filtered.size:
            global_peak = self._global_peak

        if self._cursor and self._global_peak > self._state_peak:
            # The alignment reference grew: every past decision is suspect.
            # Rebuild the threshold chain from scratch (candidate-level work
            # only; the DSP stages are never recomputed).
            self._state = ThresholdState(self.config)
            self._cursor = 0
            self.rescans += 1
            update.rescanned = True

        candidates = self._decidable(n, final)
        if len(candidates) > self._cursor:
            if not self._state.initialised:
                self._state.initialise(mwi[: min(n, LEARNING_WINDOW_SAMPLES)])
            self._state_peak = self._global_peak
            for index in candidates[self._cursor :]:
                self._state.process_candidate(
                    index, mwi, filtered, filtered_global_peak=global_peak
                )
            self._cursor = len(candidates)

        accepted = sorted(self._state.accepted)
        previous = set(self._reported)
        current = set(accepted)
        update.beats_added = [b for b in accepted if b not in previous]
        update.beats_removed = [b for b in self._reported if b not in current]
        update.beat_count = len(accepted)
        update.threshold = (
            self._state.threshold() if self._state.initialised else 0.0
        )
        self._reported = accepted
        return update
