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
*revoked* when a larger beat tightens the alignment check; an update
therefore returns both the beats it added and the beats it removed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from ..dsp.detection import (
    LEARNING_WINDOW_SAMPLES,
    CandidateTracker,
    PeakDetectionConfig,
    PeakDetectionResult,
    ThresholdState,
)
from .buffers import GrowableArray

__all__ = ["IncrementalPeakDetector"]


class IncrementalPeakDetector:
    """Streaming counterpart of :func:`repro.dsp.detection.detect_peaks`."""

    def __init__(self, config: Optional[PeakDetectionConfig] = None) -> None:
        self.config = config or PeakDetectionConfig()
        self._mwi = GrowableArray(np.float64)
        self._filtered = GrowableArray(np.float64)
        self._tracker = CandidateTracker(
            self.config.refractory_samples, self.config.min_peak_value
        )
        self._state = ThresholdState(self.config)
        self._cursor = 0  # candidates already replayed through the state
        self._global_peak = 0.0
        self._state_peak = 0.0  # global peak the current state was built with
        self.rescans = 0
        self.finalised = False

    @property
    def beats(self) -> List[int]:
        """The beats reported so far, ascending: the stream's one beat list."""
        return self._state.accepted

    # --------------------------------------------------------------- intake
    def update(
        self, mwi_chunk: np.ndarray, filtered_chunk: np.ndarray
    ) -> Tuple[List[int], List[int]]:
        """Consume one chunk of MWI and filtered samples.

        Returns the ``(added, removed)`` beats of this update; ``removed``
        is empty unless a rescan revoked a reported beat.
        """
        if self.finalised:
            raise RuntimeError("detector was already finalised")
        self._mwi.append(np.asarray(mwi_chunk, dtype=np.float64))
        chunk = np.asarray(filtered_chunk, dtype=np.float64)
        self._filtered.append(chunk)
        if chunk.size:
            self._global_peak = max(self._global_peak, float(np.max(np.abs(chunk))))
        self._tracker.extend(self._mwi.view())
        return self._advance(final=False)

    def finalize(self) -> PeakDetectionResult:
        """Flush deferred candidates; the result equals the offline pass."""
        if not self.finalised:
            self._advance(final=True)
            self.finalised = True
        return self._state.finish()

    # ------------------------------------------------------------- decisions
    def _decidable(self, n: int, final: bool) -> int:
        """How many leading candidates have decisions that can no longer change."""
        kept = self._tracker.kept
        if final:
            return len(kept)
        if n < LEARNING_WINDOW_SAMPLES:
            # Offline seeds the thresholds from min(record, window) samples;
            # until the window is full the seed is still unknown.
            return 0
        # The last candidate is still provisional, and an earlier one waits
        # until its alignment window is complete.
        limit = n - self.config.alignment_tolerance_samples - 1
        return bisect_right(kept, limit, 0, max(len(kept) - 1, 0))

    def _advance(self, final: bool) -> Tuple[List[int], List[int]]:
        mwi = self._mwi.view()
        n = mwi.size
        if n == 0:
            return [], []
        filtered = self._filtered.view()
        global_peak = self._global_peak if filtered.size else None
        before = self._state.accepted
        reported = len(before)

        if self._cursor and self._global_peak > self._state_peak:
            # The alignment reference grew: every past decision is suspect.
            # Rebuild the threshold chain from scratch (candidate-level work
            # only; the DSP stages are never recomputed).
            self._state = ThresholdState(self.config)
            self._cursor = 0
            self.rescans += 1

        count = self._decidable(n, final)
        if count > self._cursor:
            if not self._state.initialised:
                self._state.initialise(mwi[: min(n, LEARNING_WINDOW_SAMPLES)])
            self._state_peak = self._global_peak
            for index in self._tracker.kept[self._cursor : count]:
                self._state.process_candidate(
                    index, mwi, filtered, filtered_global_peak=global_peak
                )
            self._cursor = count

        after = self._state.accepted
        if after is before:
            # The state only appends beats, in ascending order.
            return after[reported:], []
        previous, current = set(before), set(after)
        return (
            [b for b in after if b not in previous],
            [b for b in before if b not in current],
        )
