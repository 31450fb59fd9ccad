"""Online Pan-Tompkins: the full pipeline fed one chunk at a time.

:class:`StreamingPipeline` composes one :class:`~repro.streaming.stages.
StageStreamer` per stage of an offline :class:`~repro.dsp.pan_tompkins.
PanTompkinsPipeline` plan with the incremental decision stage
(:class:`~repro.streaming.detector.IncrementalPeakDetector`).  Feeding a
record in arbitrary chunks — including single samples and splits inside
filter group delays — produces, after :meth:`StreamingPipeline.finalize`, a
:class:`~repro.dsp.pan_tompkins.PanTompkinsResult` bit-identical to
``PanTompkinsPipeline.process()`` on the concatenated signal, for the
accurate and every approximate backend.  The edge path processes each
sample once, so a stream runs every stage itself and keeps no stage output
for later runs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..dsp.pan_tompkins import BackendSpec, PanTompkinsPipeline, PanTompkinsResult
from ..dsp.stages import DEFAULT_SAMPLE_RATE_HZ
from ..signals.adc import adc_codes
from .buffers import GrowableArray
from .detector import IncrementalPeakDetector
from .stages import StageStreamer

__all__ = ["StreamingPipeline"]

#: Stage whose output feeds the fiducial alignment check of the decision
#: stage (the offline pipeline passes ``result.preprocessed``).
_FILTERED_STAGE = "high_pass"
_MWI_STAGE = "moving_window_integral"


class StreamingPipeline:
    """Chunk-at-a-time counterpart of :class:`PanTompkinsPipeline`."""

    def __init__(
        self,
        backends: BackendSpec = None,
        sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
    ) -> None:
        offline = PanTompkinsPipeline(backends=backends)
        self.sample_rate_hz = sample_rate_hz
        self._streamers = [
            StageStreamer(stage, backend) for stage, backend in offline.stage_plan()
        ]
        self._outputs: Dict[str, GrowableArray] = {
            streamer.stage.name: GrowableArray(np.int64)
            for streamer in self._streamers
        }
        self._detector = IncrementalPeakDetector()
        self.total_samples = 0
        self.finalised = False

    @property
    def beats(self) -> List[int]:
        """The beats reported so far, ascending (the detector's own list)."""
        return self._detector.beats

    # ---------------------------------------------------------------- feed
    def push(self, chunk: np.ndarray) -> Tuple[List[int], List[int]]:
        """Feed one chunk of raw samples through every stage + detection.

        Returns the ``(added, removed)`` beats of this chunk.
        """
        if self.finalised:
            raise RuntimeError("pipeline was already finalised")
        chunk = adc_codes(chunk)
        if chunk.ndim != 1:
            raise ValueError("expected a one-dimensional chunk")
        emitted: Dict[str, np.ndarray] = {}
        current = chunk
        for streamer in self._streamers:
            name = streamer.stage.name
            current = emitted[name] = streamer.push(current)
            self._outputs[name].append(current)
        self.total_samples += int(chunk.size)
        return self._detector.update(emitted[_MWI_STAGE], emitted[_FILTERED_STAGE])

    # ------------------------------------------------------------ finalise
    def finalize(self) -> PanTompkinsResult:
        """Close the stream; the result equals the offline ``process()``."""
        if self.total_samples == 0:
            raise ValueError("cannot finalise an empty stream")
        if self.finalised:
            raise RuntimeError("pipeline was already finalised")
        detection = self._detector.finalize()
        self.finalised = True
        return PanTompkinsResult(
            stage_outputs={
                name: buffer.array() for name, buffer in self._outputs.items()
            },
            detection=detection,
            sample_rate_hz=self.sample_rate_hz,
        )
