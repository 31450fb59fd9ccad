"""Bit-accurate approximate arithmetic library (adders and multipliers).

This subpackage implements the hardware substrate of XBioSiP:

* elementary 1-bit full adders (accurate + ``ApproxAdd1..5``),
* elementary 2x2 multipliers (accurate + ``AppMultV1/V2``),
* ripple-carry adders with ``k`` approximated LSB slices,
* recursive 4x4 / 8x8 / 16x16 multipliers built from the elementary cells,
* a fast vectorised NumPy engine, cross-validated against the scalar models,
* a compiled LUT engine (slice-composed adds, 8x8 product LUTs,
  constant-operand tables) that the word-level backends route through,
* :class:`~repro.arithmetic.library.ArithmeticBackend`, the word-level
  interface the DSP stages run on.
"""

from .bitvector import (
    bits_of,
    clamp_signed,
    from_bits,
    mask,
    signed_max,
    signed_min,
    to_signed,
    to_signed_array,
    to_unsigned,
    to_unsigned_array,
)
from .full_adders import (
    ACCURATE_ADDER,
    ADDER_CELLS,
    APPROX_ADD1,
    APPROX_ADD2,
    APPROX_ADD3,
    APPROX_ADD4,
    APPROX_ADD5,
    FullAdderCell,
    accurate_sum_cout,
    adder_cell,
)
from .library import (
    DEFAULT_ADDER_WIDTH,
    DEFAULT_MULTIPLIER_WIDTH,
    ArithmeticBackend,
    accurate_backend,
    adder_names,
    multiplier_names,
)
from .multipliers_2x2 import (
    ACCURATE_MULT,
    APP_MULT_V1,
    APP_MULT_V2,
    MULTIPLIER_CELLS,
    Multiplier2x2Cell,
    multiplier_cell,
)
from .compiled import (
    compiled_add,
    compiled_multiply,
    compiled_multiply_constant,
    compiled_multiply_unsigned,
    compiled_square,
    compiled_subtract,
    registry_info,
)
from .rca import RippleCarryAdder
from .recursive_multiplier import RecursiveMultiplier
from .vectorized import (
    vector_add,
    vector_multiply,
    vector_multiply_unsigned,
    vector_subtract,
)

__all__ = [
    # bitvector
    "bits_of",
    "clamp_signed",
    "from_bits",
    "mask",
    "signed_max",
    "signed_min",
    "to_signed",
    "to_signed_array",
    "to_unsigned",
    "to_unsigned_array",
    # full adders
    "ACCURATE_ADDER",
    "ADDER_CELLS",
    "APPROX_ADD1",
    "APPROX_ADD2",
    "APPROX_ADD3",
    "APPROX_ADD4",
    "APPROX_ADD5",
    "FullAdderCell",
    "accurate_sum_cout",
    "adder_cell",
    # multipliers
    "ACCURATE_MULT",
    "APP_MULT_V1",
    "APP_MULT_V2",
    "MULTIPLIER_CELLS",
    "Multiplier2x2Cell",
    "multiplier_cell",
    # composed blocks
    "RippleCarryAdder",
    "RecursiveMultiplier",
    # vectorised engine
    "vector_add",
    "vector_subtract",
    "vector_multiply",
    "vector_multiply_unsigned",
    # compiled LUT engine
    "compiled_add",
    "compiled_subtract",
    "compiled_multiply",
    "compiled_multiply_unsigned",
    "compiled_multiply_constant",
    "compiled_square",
    "registry_info",
    # backends
    "ArithmeticBackend",
    "accurate_backend",
    "adder_names",
    "multiplier_names",
    "DEFAULT_ADDER_WIDTH",
    "DEFAULT_MULTIPLIER_WIDTH",
]
