"""Online (chunk-at-a-time) Pan-Tompkins processing.

This package turns the offline stage pipeline into an incremental engine:
per-stage carry-over state makes chunked execution bit-identical to the
offline :class:`~repro.dsp.pan_tompkins.PanTompkinsPipeline`, an incremental
decision stage streams beats out with bounded latency, and sessions report
live quality and cumulative energy — the paper's wearable deployment
scenario as a real serving path.
"""

from .buffers import GrowableArray
from .detector import IncrementalPeakDetector
from .pipeline import StreamingPipeline
from .replay import ReplaySource
from .session import ChunkReport, StreamSession
from .stages import StageStreamer, stage_carry_samples

__all__ = [
    "ChunkReport",
    "GrowableArray",
    "IncrementalPeakDetector",
    "ReplaySource",
    "StageStreamer",
    "StreamSession",
    "StreamingPipeline",
    "stage_carry_samples",
]
