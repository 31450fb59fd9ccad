"""Online Pan-Tompkins: the full pipeline fed one chunk at a time.

:class:`StreamingPipeline` composes one :class:`~repro.streaming.stages.
StageStreamer` per stage of an offline :class:`~repro.dsp.pan_tompkins.
PanTompkinsPipeline` plan with the incremental decision stage
(:class:`~repro.streaming.detector.IncrementalPeakDetector`).  Feeding a
record in arbitrary chunks — including single samples and splits inside
filter group delays — produces, after :meth:`StreamingPipeline.finalize`, a
:class:`~repro.dsp.pan_tompkins.PanTompkinsResult` bit-identical to
``PanTompkinsPipeline.process()`` on the concatenated signal, for the
accurate and every approximate backend.

Streams speak the same input-addressed stage-node keys as the offline
executor: give the pipeline a :class:`~repro.core.stage_graph.StageGraphMemo`
and call :meth:`StreamingPipeline.warm_start` with the samples about to be
replayed, and every leading stage whose node an offline sweep already
resolved is served from the store — its per-chunk output is a slice of the
stored signal instead of a streamed computation (bit-identical either way).
At :meth:`~StreamingPipeline.finalize` the stages the stream did compute are
published back to the memo, so a later offline run (or another stream) warm
starts from *this* stream's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dsp.pan_tompkins import BackendSpec, PanTompkinsPipeline, PanTompkinsResult
from ..dsp.detection import PeakDetectionConfig, PeakDetectionResult
from ..signals.adc import adc_codes
from .buffers import GrowableArray
from .detector import DetectorUpdate, IncrementalPeakDetector
from .stages import StageStreamer

__all__ = ["StreamingUpdate", "StreamingPipeline"]

#: Stage whose output feeds the fiducial alignment check of the decision
#: stage (the offline pipeline passes ``result.preprocessed``).
_FILTERED_STAGE = "high_pass"
_MWI_STAGE = "moving_window_integral"


@dataclass
class StreamingUpdate:
    """Everything one pushed chunk produced.

    ``stage_chunks`` maps stage name to the output samples emitted for this
    chunk (each exactly the corresponding slice of the offline stage output).
    """

    chunk_samples: int = 0
    total_samples: int = 0
    stage_chunks: Dict[str, np.ndarray] = field(default_factory=dict)
    detector: DetectorUpdate = field(default_factory=DetectorUpdate)

    @property
    def beats_added(self) -> List[int]:
        """Beats newly confirmed by this chunk."""
        return self.detector.beats_added

    @property
    def beats_removed(self) -> List[int]:
        """Previously reported beats revoked by this chunk (rare; rescans)."""
        return self.detector.beats_removed

    @property
    def beat_count(self) -> int:
        """Total beats currently reported."""
        return self.detector.beat_count


class StreamingPipeline:
    """Chunk-at-a-time counterpart of :class:`PanTompkinsPipeline`."""

    def __init__(
        self,
        backends: BackendSpec = None,
        detection_config: Optional[PeakDetectionConfig] = None,
        sample_rate_hz: Optional[int] = None,
        memo: Optional[object] = None,
    ) -> None:
        offline = PanTompkinsPipeline(
            backends=backends, detection_config=detection_config
        )
        if sample_rate_hz is not None:
            offline.sample_rate_hz = sample_rate_hz
        self._init_from(offline, memo=memo)

    @classmethod
    def from_pipeline(
        cls, pipeline: PanTompkinsPipeline, memo: Optional[object] = None
    ) -> "StreamingPipeline":
        """Wrap an existing offline pipeline (same plan, same config)."""
        instance = cls.__new__(cls)
        instance._init_from(pipeline, memo=memo)
        return instance

    def _init_from(
        self, offline: PanTompkinsPipeline, memo: Optional[object] = None
    ) -> None:
        self.offline = offline
        self.sample_rate_hz = offline.sample_rate_hz
        self.detection_config = offline.detection_config
        self._streamers = [
            StageStreamer(stage, backend) for stage, backend in offline.stage_plan()
        ]
        self._outputs: Dict[str, GrowableArray] = {
            streamer.stage.name: GrowableArray(np.int64)
            for streamer in self._streamers
        }
        self._detector = IncrementalPeakDetector(self.detection_config)
        self.total_samples = 0
        self.finalised = False
        # Stage-graph integration (optional): the memo shares the offline
        # executor's input-addressed node keys.
        self._memo = memo
        self._warm: Dict[str, np.ndarray] = {}
        self._expected: Optional[np.ndarray] = None

    # ----------------------------------------------------------- warm start
    @property
    def warm_stage_count(self) -> int:
        """Number of leading stages served from the stage-graph store."""
        return len(self._warm)

    def warm_start(self, samples: np.ndarray) -> int:
        """Resolve the leading stage nodes for ``samples`` from the memo.

        ``samples`` is the full recording the caller is about to replay; the
        concatenation of every subsequently pushed chunk must equal it (each
        ``push`` verifies its slice and raises on divergence).  Walking the
        input-addressed node chain, every leading stage already present in
        the memo's store — computed by an offline sweep, another stream, or a
        previous run via a persistent store — is marked *warm*: its per-chunk
        output is sliced from the stored full signal instead of streamed.
        The first absent node stops the walk; that stage and everything
        downstream stream normally (consuming the warm slices), which is
        bit-identical because streamers are exact under any chunking.

        Returns the number of warm stages (0 when nothing matched).
        """
        if self._memo is None:
            raise RuntimeError("warm_start needs a pipeline built with a memo")
        if self.total_samples or self.finalised:
            raise RuntimeError("warm_start must precede the first push")
        samples = adc_codes(samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("expected a non-empty one-dimensional sample array")
        self._expected = samples

        def fetch(stage, backend, key, signal, root):
            output = self._memo.fetch(stage.name, key, root_hash=root)
            if output is None or output.shape != samples.shape:
                return None
            return output

        self._warm = self._memo.walk(samples, self.offline.stage_plan(), fetch)
        return len(self._warm)

    # ---------------------------------------------------------------- feed
    def push(self, chunk: np.ndarray) -> StreamingUpdate:
        """Feed one chunk of raw samples through every stage + detection."""
        if self.finalised:
            raise RuntimeError("pipeline was already finalised")
        chunk = adc_codes(chunk)
        if chunk.ndim != 1:
            raise ValueError("expected a one-dimensional chunk")
        update = StreamingUpdate(chunk_samples=int(chunk.size))
        start = self.total_samples
        if self._warm:
            expected = self._expected[start : start + chunk.size]
            if expected.size != chunk.size or not np.array_equal(chunk, expected):
                raise ValueError(
                    "pushed chunk diverges from the warm_start samples"
                )
        current = chunk
        for streamer in self._streamers:
            name = streamer.stage.name
            warm = self._warm.get(name)
            if warm is not None:
                # Node already resolved: emit the slice of the stored full
                # output instead of streaming the stage.
                current = warm[start : start + chunk.size]
            else:
                current = streamer.push(current)
            self._outputs[name].append(current)
            update.stage_chunks[name] = current
        self.total_samples += int(chunk.size)
        update.total_samples = self.total_samples
        update.detector = self._detector.update(
            update.stage_chunks[_MWI_STAGE], update.stage_chunks[_FILTERED_STAGE]
        )
        return update

    # ------------------------------------------------------------ finalise
    @property
    def beats(self) -> List[int]:
        """Beats reported so far (may still change until finalised)."""
        return list(self._detector._reported)

    def filtered_so_far(self) -> np.ndarray:
        """The band-passed (high-pass stage) signal accumulated so far."""
        return self._outputs[_FILTERED_STAGE].view()

    def integrated_so_far(self) -> np.ndarray:
        """The MWI signal accumulated so far."""
        return self._outputs[_MWI_STAGE].view()

    def finalize(self) -> PanTompkinsResult:
        """Close the stream; the result equals the offline ``process()``."""
        if self.total_samples == 0:
            raise ValueError("cannot finalise an empty stream")
        if self.finalised:
            raise RuntimeError("pipeline was already finalised")
        detection: PeakDetectionResult = self._detector.finalize()
        self.finalised = True
        result = PanTompkinsResult(
            stage_outputs={
                name: buffer.array() for name, buffer in self._outputs.items()
            },
            detection=detection,
            sample_rate_hz=self.sample_rate_hz,
        )
        self._publish(result)
        return result

    def _publish(self, result: PanTompkinsResult) -> None:
        """Adopt the stages this stream computed into the stage graph.

        Only runs when :meth:`warm_start` was called and the stream covered
        the full expected recording (a truncated stream holds prefixes, not
        node outputs).  Adoption is accounting-free — later lookups of these
        nodes classify as warm hits, like nodes found in a persistent store.
        """
        if (
            self._memo is None
            or self._expected is None
            or self.total_samples != self._expected.size
        ):
            return

        def adopt(stage, backend, key, signal, root):
            output = result.stage_outputs[stage.name]
            if stage.name not in self._warm:
                self._memo.adopt(key, output)
            return output

        self._memo.walk(self._expected, self.offline.stage_plan(), adopt)
