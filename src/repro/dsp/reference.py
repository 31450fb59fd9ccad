"""Floating-point reference implementation of the Pan-Tompkins stages.

The integer pipeline in :mod:`repro.dsp.pan_tompkins` is the hardware model.
This module re-implements the same five stages with double-precision SciPy
filtering so that:

* the fixed-point datapath can be validated against an independent
  implementation (quantisation error should be small and bounded), and
* notebooks / examples can show the "ideal" signal next to the approximate
  hardware output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .stages import StageDefinition, pan_tompkins_stages

__all__ = ["ReferenceResult", "reference_stage_output", "reference_pipeline"]


@dataclass
class ReferenceResult:
    """Floating-point outputs of every stage of the reference pipeline."""

    stage_outputs: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def preprocessed(self) -> np.ndarray:
        """High-pass stage output (end of the pre-processing section)."""
        return self.stage_outputs["high_pass"]

    @property
    def integrated(self) -> np.ndarray:
        """Moving-window-integrated output."""
        return self.stage_outputs["moving_window_integral"]


def reference_stage_output(samples: np.ndarray, stage: StageDefinition) -> np.ndarray:
    """Run one stage of the floating-point reference pipeline."""
    # Imported here: scipy.signal (and the scipy.stats it loads) would
    # otherwise more than double the cost of ``import repro``.
    from scipy.signal import lfilter

    samples = np.asarray(samples, dtype=np.float64)
    if stage.kind == "fir":
        return lfilter(np.asarray(stage.coefficients), [1.0], samples)
    if stage.kind == "squarer":
        # The hardware squarer rescales by 2**output_shift to stay in range;
        # mirror that so amplitudes remain comparable.
        return samples * samples / float(1 << stage.output_shift)
    if stage.kind == "mwi":
        kernel = np.ones(stage.window) / float(1 << stage.output_shift)
        return lfilter(kernel, [1.0], samples)
    raise ValueError(f"unsupported stage kind {stage.kind!r}")


def reference_pipeline(samples: np.ndarray) -> ReferenceResult:
    """Run the full floating-point reference pipeline."""
    result = ReferenceResult()
    current = np.asarray(samples, dtype=np.float64)
    for stage in pan_tompkins_stages():
        current = reference_stage_output(current, stage)
        result.stage_outputs[stage.name] = current
    return result
