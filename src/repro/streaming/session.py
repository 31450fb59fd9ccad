"""Stream sessions: online pipeline + live quality and energy accounting.

A :class:`StreamSession` wraps a :class:`~repro.streaming.pipeline.
StreamingPipeline` for one design point and one (optionally annotated)
record, reporting after every chunk what a wearable deployment would want to
know *while the signal is still arriving*: beats detected so far, detection
quality against the ground truth seen so far, cumulative energy spent by the
approximate datapath (and the factor saved versus the accurate design), and
the wall-clock processing latency of the chunk.

Energy follows the paper's area/energy model: a design point costs
``DesignPoint.energy_fj()`` femtojoules per processed sample (per pipeline
activation), so cumulative energy is simply samples × per-sample energy —
the live counterpart of the offline energy-reduction tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.configurations import DesignPoint
from ..dsp.pan_tompkins import PanTompkinsResult
from ..dsp.stages import total_group_delay_samples
from ..metrics.peaks import PEAK_TOLERANCE_SAMPLES, match_peaks
from ..obs import metrics as obs_metrics
from ..obs.tracing import span as obs_span
from .pipeline import StreamingPipeline

__all__ = ["ChunkReport", "StreamSession"]

_CHUNK_SECONDS = obs_metrics.histogram(
    "repro_stream_chunk_seconds",
    "Wall-clock processing latency per streamed chunk.",
)
_RESCANS = obs_metrics.counter(
    "repro_stream_rescans_total",
    "Streamed chunks that retracted previously reported beats.",
)
#: Real-time headroom of the most recent chunk: signal seconds contained in
#: the chunk divided by seconds spent processing it (>1 keeps up).
_HEADROOM = obs_metrics.gauge(
    "repro_stream_realtime_headroom",
    "Signal-time / processing-time ratio of the most recent chunk.",
)


@dataclass
class ChunkReport:
    """Live telemetry emitted after one chunk of samples."""

    chunk_index: int
    chunk_samples: int
    total_samples: int
    elapsed_signal_s: float
    beats_added: List[int] = field(default_factory=list)
    beats_removed: List[int] = field(default_factory=list)
    beat_count: int = 0
    heart_rate_bpm: float = 0.0
    quality: Optional[Dict[str, float]] = None
    energy: Dict[str, float] = field(default_factory=dict)
    processing_ms: float = 0.0

    def to_document(self) -> Dict[str, object]:
        """JSON-safe rendering (service events, CLI ``--json``)."""
        return {
            "chunk_index": self.chunk_index,
            "chunk_samples": self.chunk_samples,
            "total_samples": self.total_samples,
            "elapsed_signal_s": self.elapsed_signal_s,
            "beats_added": list(self.beats_added),
            "beats_removed": list(self.beats_removed),
            "beat_count": self.beat_count,
            "heart_rate_bpm": self.heart_rate_bpm,
            "quality": dict(self.quality) if self.quality is not None else None,
            "energy": dict(self.energy),
            "processing_ms": self.processing_ms,
        }


class StreamSession:
    """One live run of a design point over a streamed record."""

    def __init__(
        self,
        design: Optional[DesignPoint] = None,
        sample_rate_hz: int = 200,
        true_peaks: Optional[Sequence[int]] = None,
    ) -> None:
        self.design = design or DesignPoint.accurate()
        self.sample_rate_hz = sample_rate_hz
        self.pipeline = StreamingPipeline(
            backends=self.design.backends(), sample_rate_hz=sample_rate_hz
        )
        self.true_peaks = (
            np.asarray(true_peaks, dtype=np.int64)
            if true_peaks is not None
            else None
        )
        self.group_delay_samples = total_group_delay_samples()
        self._energy_per_sample_fj = self.design.energy_fj()
        self._accurate_per_sample_fj = DesignPoint.accurate().energy_fj()
        self.chunk_count = 0
        #: The newest report, and the sum and maximum of every report's
        #: ``processing_ms``: a session keeps no per-chunk history.
        self.last_report: Optional[ChunkReport] = None
        self.processing_ms_total = 0.0
        self.processing_ms_max = 0.0
        # The inputs of the last scoring (scored ground-truth count, beats)
        # and its quality dict: a push that changes neither re-scores nothing.
        self._scored_inputs: Optional[Tuple[int, List[int]]] = None
        self._scored_quality: Dict[str, float] = {}

    @property
    def beats(self) -> List[int]:
        """The beats reported so far, ascending (the detector's own list)."""
        return self.pipeline.beats

    # ---------------------------------------------------------------- feed
    def push(self, chunk: np.ndarray) -> ChunkReport:
        """Process one chunk and produce its telemetry report."""
        started = time.perf_counter()
        previous_samples = self.pipeline.total_samples
        with obs_span("stream.chunk", chunk=self.chunk_count) as chunk_span:
            added, removed = self.pipeline.push(chunk)
            total_samples = self.pipeline.total_samples
            chunk_samples = total_samples - previous_samples
            chunk_span.set_attribute("samples", chunk_samples)
        processing_s = time.perf_counter() - started
        processing_ms = processing_s * 1e3
        _CHUNK_SECONDS.observe(processing_s)
        if removed:
            _RESCANS.inc()
        if processing_s > 0:
            signal_s = chunk_samples / float(self.sample_rate_hz)
            _HEADROOM.set(signal_s / processing_s)
        report = ChunkReport(
            chunk_index=self.chunk_count,
            chunk_samples=chunk_samples,
            total_samples=total_samples,
            elapsed_signal_s=total_samples / float(self.sample_rate_hz),
            beats_added=added,
            beats_removed=removed,
            beat_count=len(self.beats),
            heart_rate_bpm=self._heart_rate_bpm(),
            quality=self._quality_so_far(total_samples),
            energy=self._energy_so_far(total_samples),
            processing_ms=processing_ms,
        )
        self.chunk_count += 1
        self.last_report = report
        self.processing_ms_total += processing_ms
        self.processing_ms_max = max(self.processing_ms_max, processing_ms)
        return report

    def finalize(self) -> PanTompkinsResult:
        """Close the stream; bit-identical to the offline pipeline result."""
        return self.pipeline.finalize()

    # ----------------------------------------------------------- telemetry
    def _heart_rate_bpm(self) -> float:
        if len(self.beats) < 2:
            return 0.0
        rr = np.diff(np.asarray(self.beats, dtype=np.float64))
        mean_rr = float(np.mean(rr)) / float(self.sample_rate_hz)
        return 60.0 / mean_rr if mean_rr > 0 else 0.0

    def _quality_so_far(self, total_samples: int) -> Optional[Dict[str, float]]:
        """Detection quality against the ground-truth beats already streamed.

        Only ground-truth peaks whose delayed detection window has fully
        arrived are scored — a beat right at the stream head is not yet a
        miss, its detection is simply still in flight.  When neither the
        scored ground truth nor the beat list changed since the last
        scoring, its dict is copied instead of matched again.
        """
        if self.true_peaks is None:
            return None
        horizon = total_samples - self.group_delay_samples - PEAK_TOLERANCE_SAMPLES
        scored = self.true_peaks[self.true_peaks <= horizon]
        if scored.size == 0:
            return None
        inputs = (scored.size, self.beats)
        if inputs == self._scored_inputs:
            return dict(self._scored_quality)
        match = match_peaks(
            scored,
            self.beats,
            tolerance_samples=PEAK_TOLERANCE_SAMPLES,
            expected_delay_samples=self.group_delay_samples,
        )
        self._scored_inputs = (scored.size, list(self.beats))
        self._scored_quality = {
            "scored_true_peaks": float(scored.size),
            "sensitivity": match.sensitivity,
            "positive_predictivity": match.positive_predictivity,
            "f1_score": match.f1_score,
        }
        return dict(self._scored_quality)

    def _energy_so_far(self, total_samples: int) -> Dict[str, float]:
        cumulative_fj = total_samples * self._energy_per_sample_fj
        accurate_fj = total_samples * self._accurate_per_sample_fj
        return {
            "per_sample_fj": self._energy_per_sample_fj,
            "cumulative_fj": cumulative_fj,
            "accurate_cumulative_fj": accurate_fj,
            "reduction_factor": (
                accurate_fj / cumulative_fj if cumulative_fj > 0 else float("inf")
            ),
        }
