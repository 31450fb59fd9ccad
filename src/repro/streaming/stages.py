"""Chunk-at-a-time Pan-Tompkins stage execution with carry-over state.

Every offline stage (the stage executor :func:`repro.dsp.fir.run_stage`)
computes each output sample from a bounded window of input samples — the
FIR tap line, the squarer's single sample or the MWI window — with *zero*
history before the first sample (the offline tap line reads every delay
from one zero-padded copy of the input).  That makes chunked execution
exact: a :class:`StageStreamer` keeps the last ``window - 1`` input
samples as carry-over state (zero-initialised, mirroring the offline zero
padding), prepends them to each incoming chunk, runs the ordinary stage
executor on the extended chunk and emits only the samples past the
carried history.

Because every arithmetic-backend operator is elementwise (the approximate
adders/multipliers map each sample independently), the emitted samples are
bit-identical to the corresponding slice of an offline run over the
concatenated signal — for the accurate *and* every approximate backend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arithmetic.library import ArithmeticBackend, accurate_backend
from ..dsp.fir import run_stage
from ..dsp.stages import StageDefinition

__all__ = ["StageStreamer", "stage_carry_samples"]


def stage_carry_samples(stage: StageDefinition) -> int:
    """Number of input samples a stage's output depends on, minus one."""
    if stage.kind == "fir":
        return max(0, len(stage.coefficients) - 1)
    if stage.kind == "mwi":
        return max(0, stage.window - 1)
    return 0  # squarer: point-wise


class StageStreamer:
    """One Pan-Tompkins stage processing a signal chunk by chunk.

    The carried history starts as zeros, exactly matching the zero padding
    the offline executor applies before the first sample, so the very first
    chunk is already bit-identical to the offline prefix.
    """

    def __init__(
        self, stage: StageDefinition, backend: Optional[ArithmeticBackend] = None
    ) -> None:
        self.stage = stage
        self.backend = backend or accurate_backend()
        self.carry_samples = stage_carry_samples(stage)
        self._history = np.zeros(self.carry_samples, dtype=np.int64)
        self.samples_in = 0
        self.samples_out = 0

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Process one chunk; returns this stage's output for those samples."""
        chunk = np.asarray(chunk, dtype=np.int64)
        if chunk.ndim != 1:
            raise ValueError("expected a one-dimensional chunk")
        if chunk.size == 0:
            return np.zeros(0, dtype=np.int64)
        carry = self.carry_samples
        if carry:
            extended = np.concatenate([self._history, chunk])
            self._history = extended[-carry:].copy()
        else:
            extended = chunk
        out = run_stage(extended, self.stage, self.backend)
        emitted = out[carry:]
        self.samples_in += chunk.size
        self.samples_out += emitted.size
        return emitted

    def reset(self) -> None:
        """Forget the carried history (start of a new record)."""
        self._history = np.zeros(self.carry_samples, dtype=np.int64)
        self.samples_in = 0
        self.samples_out = 0
