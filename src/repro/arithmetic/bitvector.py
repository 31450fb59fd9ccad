"""Fixed-width two's-complement bit-vector helpers.

The approximate arithmetic units in this package operate on hardware-style
fixed-width words.  Python integers are unbounded, so every block first maps
its operands onto an ``N``-bit two's-complement pattern, performs the
bit-accurate (possibly approximate) computation, and converts the resulting
pattern back to a signed Python integer.

These helpers are deliberately tiny and explicit; they are used by both the
scalar reference engine and the compiled LUT engine.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

__all__ = [
    "mask",
    "to_unsigned",
    "to_signed",
    "bits_of",
    "from_bits",
    "signed_min",
    "signed_max",
    "clamp_signed",
    "to_unsigned_array",
    "to_signed_array",
]


def mask(width: int) -> int:
    """Return the all-ones mask for a ``width``-bit word.

    >>> mask(4)
    15
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return (1 << width) - 1


def to_unsigned(value: int, width: int) -> int:
    """Map a signed integer onto its ``width``-bit two's-complement pattern.

    Values outside the representable range wrap around, exactly like a
    hardware register would.

    >>> to_unsigned(-1, 4)
    15
    >>> to_unsigned(5, 4)
    5
    """
    return value & mask(width)


def to_signed(pattern: int, width: int) -> int:
    """Interpret a ``width``-bit pattern as a signed two's-complement integer.

    >>> to_signed(15, 4)
    -1
    >>> to_signed(7, 4)
    7
    """
    pattern &= mask(width)
    sign_bit = 1 << (width - 1)
    if pattern & sign_bit:
        return pattern - (1 << width)
    return pattern


def bits_of(value: int, width: int) -> List[int]:
    """Return the bits of ``value`` as a list, LSB first.

    >>> bits_of(6, 4)
    [0, 1, 1, 0]
    """
    pattern = to_unsigned(value, width)
    return [(pattern >> i) & 1 for i in range(width)]


def from_bits(bits: Iterable[int]) -> int:
    """Assemble an unsigned integer from bits given LSB first.

    >>> from_bits([0, 1, 1, 0])
    6
    """
    value = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit at position {index} is {bit!r}, expected 0 or 1")
        value |= bit << index
    return value


def signed_min(width: int) -> int:
    """Smallest representable signed value in ``width`` bits."""
    return -(1 << (width - 1))


def signed_max(width: int) -> int:
    """Largest representable signed value in ``width`` bits."""
    return (1 << (width - 1)) - 1


def clamp_signed(value: int, width: int) -> int:
    """Saturate ``value`` into the signed ``width``-bit range."""
    return max(signed_min(width), min(signed_max(width), value))


def to_unsigned_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`to_unsigned` for NumPy integer arrays."""
    return np.asarray(values, dtype=np.int64) & np.int64(mask(width))


def to_signed_array(patterns: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`to_signed` for NumPy integer arrays."""
    patterns = np.asarray(patterns, dtype=np.int64) & np.int64(mask(width))
    sign_bit = np.int64(1 << (width - 1))
    full = np.int64(1 << width)
    return np.where(patterns & sign_bit, patterns - full, patterns)
