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


def _tap_line(signal: np.ndarray, taps: int) -> np.ndarray:
    """``(taps x n)`` view of one zero-padded copy of ``signal``.

    Row ``d`` is the signal delayed by ``d`` samples, with zero history
    before the first sample: it starts ``d`` samples before the signal, so
    each row starts one sample earlier than the row above it (a negative
    row stride).
    """
    padded = np.concatenate([np.zeros(taps - 1, dtype=np.int64), signal])
    step = padded.itemsize
    return np.ndarray(
        (taps, signal.size), np.int64, padded, (taps - 1) * step, (-step, step)
    )


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

    # One call takes every tap product: row d of the tap line times the
    # d-th coefficient, broadcast (accurate) or gathered from that
    # coefficient's compiled LUT (approximate), with the range check and the
    # unsigned conversion done once for the whole stage.
    products = backend.multiply_constant(
        _tap_line(signal, coefficients.size), coefficients[:, None]
    )
    accumulator = products[0]
    for product in products[1:]:
        accumulator = backend.add(accumulator, product)
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
    delayed = _tap_line(_as_int64(signal), window)
    accumulator = delayed[0]
    for line in delayed[1:]:
        accumulator = backend.add(accumulator, line)
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
        backend = backend.with_approx_lsbs(stage.datapath_lsbs(backend.approx_lsbs))
    if stage.kind == "fir":
        return fir_filter(
            signal,
            stage.quantized_coefficients(),
            backend,
            stage.output_shift,
        )
    if stage.kind == "squarer":
        return squarer(signal, backend, stage.output_shift)
    if stage.kind == "mwi":
        return moving_window_integral(signal, stage.window, backend, stage.output_shift)
    raise ValueError(f"unsupported stage kind {stage.kind!r}")
