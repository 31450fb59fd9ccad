"""Stage execution engine running on a configurable arithmetic backend.

Every Pan-Tompkins stage is executed sample-parallel (vectorised across the
whole recording) but operator-faithful: each tap product goes through the
(possibly approximate) 16x16 multiplier model and each accumulation through
the (possibly approximate) 32-bit adder model of the configured
:class:`~repro.arithmetic.library.ArithmeticBackend`.

The functions here are intentionally small and composable so that the error
resilience analysis can run a single stage in isolation while the full
pipeline in :mod:`repro.dsp.pan_tompkins` chains them together.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arithmetic.library import ArithmeticBackend, accurate_backend
from .fixed_point import rescale, saturate
from .stages import StageDefinition

__all__ = ["fir_filter", "squarer", "moving_window_integral", "run_stage"]


def _as_int64(signal: np.ndarray) -> np.ndarray:
    return np.asarray(signal, dtype=np.int64)


def _delayed(signal: np.ndarray, delay: int) -> np.ndarray:
    """Return the signal delayed by ``delay`` samples (zero-padded history)."""
    if delay == 0:
        return signal
    if delay >= len(signal):
        return np.zeros(len(signal), dtype=np.int64)
    return np.concatenate([np.zeros(delay, dtype=np.int64), signal[:-delay]])


def fir_filter(
    signal: np.ndarray,
    coefficients: np.ndarray,
    backend: ArithmeticBackend,
    output_shift: int,
    output_width: int = 16,
) -> np.ndarray:
    """Run a direct-form FIR filter on the integer datapath.

    Parameters
    ----------
    signal:
        16-bit integer input samples.
    coefficients:
        Quantised integer coefficients (newest tap first).
    backend:
        Arithmetic backend providing the multiply / accumulate operators.
    output_shift:
        Right shift applied to the accumulator to drop the coefficient
        fractional bits.
    output_width:
        Saturation width of the stage output (16 bits in the paper's design).
    """
    signal = _as_int64(signal)
    coefficients = _as_int64(coefficients)
    if coefficients.size == 0:
        raise ValueError("FIR filter needs at least one coefficient")

    accumulator: Optional[np.ndarray] = None
    for tap_index, coefficient in enumerate(coefficients):
        delayed = _delayed(signal, tap_index)
        # Each tap multiplies by one fixed coefficient: the constant-operand
        # path broadcasts the scalar (accurate) or gathers from a compiled
        # per-coefficient LUT (approximate) instead of materialising a
        # full_like(coefficient) array per tap.
        product = backend.multiply_constant(delayed, int(coefficient))
        if accumulator is None:
            accumulator = product
        else:
            accumulator = backend.add(accumulator, product)
    assert accumulator is not None
    return saturate(rescale(accumulator, output_shift), output_width)


def squarer(
    signal: np.ndarray,
    backend: ArithmeticBackend,
    output_shift: int,
    output_width: int = 16,
) -> np.ndarray:
    """Point-wise squaring through the 16x16 multiplier model.

    Squaring is unary, so the backend serves it from a compiled one-operand
    LUT on the approximate path (bit-identical to ``multiply(signal,
    signal)``).
    """
    signal = _as_int64(signal)
    squared = backend.square(signal)
    return saturate(rescale(squared, output_shift), output_width)


def moving_window_integral(
    signal: np.ndarray,
    window: int,
    backend: ArithmeticBackend,
    output_shift: int,
    output_width: int = 16,
) -> np.ndarray:
    """Moving-window integration realised with adders only.

    The hardware sums the last ``window`` samples with a chain of ``window-1``
    32-bit adders and divides by a power of two (``output_shift``).
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    signal = _as_int64(signal)
    accumulator = signal.copy()
    for delay in range(1, window):
        accumulator = backend.add(accumulator, _delayed(signal, delay))
    return saturate(rescale(accumulator, output_shift), output_width)


def run_stage(
    signal: np.ndarray,
    stage: StageDefinition,
    backend: Optional[ArithmeticBackend] = None,
) -> np.ndarray:
    """Run one Pan-Tompkins stage on ``signal`` with the given backend.

    A missing backend defaults to the accurate datapath, which makes this the
    single entry point for both the golden-reference and the approximate runs.

    The backend's ``approx_lsbs`` counts approximated *output* LSBs (the
    paper's convention); it is translated here into datapath LSBs by adding
    the stage's output shift, so that an error of one output LSB corresponds
    to one LSB of the 16-bit stage output regardless of the stage's internal
    scaling.
    """
    backend = backend or accurate_backend()
    if not backend.is_accurate:
        backend = backend.with_approx_lsbs(
            stage.datapath_lsbs(backend.approx_lsbs, backend.adder_width)
        )
    if stage.kind == "fir":
        return fir_filter(
            signal,
            stage.quantized_coefficients(backend.multiplier_width),
            backend,
            stage.output_shift,
        )
    if stage.kind == "squarer":
        return squarer(signal, backend, stage.output_shift)
    if stage.kind == "mwi":
        return moving_window_integral(signal, stage.window, backend, stage.output_shift)
    raise ValueError(f"unsupported stage kind {stage.kind!r}")
