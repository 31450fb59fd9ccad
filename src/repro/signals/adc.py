"""16-bit ADC front-end model.

The paper's sensing front-end samples the analog ECG at 200 Hz with a 16-bit
ADC.  This module converts the millivolt-domain synthetic signals into the
signed 16-bit integer samples the hardware datapath consumes, including the
saturation behaviour of a real converter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ADCConfig", "adc_codes", "digitize", "to_millivolts"]


@dataclass(frozen=True)
class ADCConfig:
    """Front-end conversion parameters.

    Parameters
    ----------
    resolution_bits:
        Converter resolution (16 in the paper).
    full_scale_mv:
        Analog input range mapped onto the full digital range.  The default
        of +/-2.5 mV places normal R peaks (1-2 mV) in the upper part of the
        16-bit range, matching the high-gain front-ends of ECG monitors; a
        well-used dynamic range is also what makes the paper's 10-14
        approximated output LSBs survivable.
    offset_counts:
        Static offset added after conversion (0 for a bipolar converter).
    """

    resolution_bits: int = 16
    full_scale_mv: float = 2.5
    offset_counts: int = 0

    @property
    def counts_per_mv(self) -> float:
        """Digital counts produced per millivolt of input."""
        return (1 << (self.resolution_bits - 1)) / self.full_scale_mv

    @property
    def max_count(self) -> int:
        """Largest representable positive code."""
        return (1 << (self.resolution_bits - 1)) - 1

    @property
    def min_count(self) -> int:
        """Smallest representable (most negative) code."""
        return -(1 << (self.resolution_bits - 1))


def digitize(signal_mv: np.ndarray, config: ADCConfig = ADCConfig()) -> np.ndarray:
    """Convert a millivolt-domain signal to signed ADC codes.

    The conversion is rounding quantisation followed by saturation at the
    converter rails, matching real ADC behaviour.
    """
    scaled = np.round(np.asarray(signal_mv, dtype=np.float64) * config.counts_per_mv)
    scaled = scaled + config.offset_counts
    return np.clip(scaled, config.min_count, config.max_count).astype(np.int64)


_ADC = ADCConfig()


def adc_codes(samples: object) -> np.ndarray:
    """``samples`` as an int64 array, refusing anything that is not ADC codes.

    The pipelines take raw recordings through this check, so a sample is
    never truncated or run out of range: a non-integer array (booleans
    included) or a sample outside the paper's 16-bit range
    (``ADCConfig().min_count..max_count``) raises a one-line ``ValueError``
    naming the first offending index.
    """
    array = np.asarray(samples)
    low, high = _ADC.min_count, _ADC.max_count
    if array.dtype.kind in "iu":
        if not array.size or (low <= array.min() and array.max() <= high):
            return array.astype(np.int64, copy=False)
        index = int(np.flatnonzero((array < low) | (array > high))[0])
    elif not array.size:
        return array.astype(np.int64)
    else:
        index = 0
    raise ValueError(
        f"samples[{index}] must be an ADC code: an integer in [{low}, {high}], "
        f"got {array.flat[index].item()!r} ({array.dtype})"
    )


def to_millivolts(codes: np.ndarray, config: ADCConfig = ADCConfig()) -> np.ndarray:
    """Convert ADC codes back to millivolts (inverse of :func:`digitize`)."""
    return (np.asarray(codes, dtype=np.float64) - config.offset_counts) / config.counts_per_mv
