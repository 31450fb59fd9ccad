"""The per-bit engine: the test oracle of the compiled LUT engine.

The scalar models in :mod:`repro.arithmetic.rca` and
:mod:`repro.arithmetic.recursive_multiplier` are the executable
specification.  This module evaluates the same per-bit recursion as NumPy
array operations, so a test can check a whole table or a whole pipeline run
of :mod:`repro.arithmetic.compiled` against it:

* :func:`vector_add` — N-bit ripple-carry addition with ``k`` approximated LSB
  slices, applied elementwise to whole NumPy arrays.
* :func:`vector_multiply_unsigned` / :func:`vector_multiply` — the recursive
  approximate multiplier applied elementwise to arrays.

Only the approximated low-order region is simulated slice-by-slice (via truth
table lookups); everything above the approximation boundary is computed with
exact integer arithmetic, which is bit-identical to simulating accurate cells.
``tests/arithmetic/test_vectorized.py`` and ``test_properties.py``
cross-validate it against the scalar models.  Beyond the cell truth tables
and the bit-vector helpers it shares no code with the compiled engine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.arithmetic.bitvector import mask, to_signed_array, to_unsigned_array
from repro.arithmetic.full_adders import ACCURATE_ADDER, FullAdderCell
from repro.arithmetic.multipliers_2x2 import ACCURATE_MULT, Multiplier2x2Cell

__all__ = [
    "vector_add",
    "vector_subtract",
    "vector_multiply_unsigned",
    "vector_multiply",
]


def _cell_tables(cell: FullAdderCell) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sum_table, cout_table)`` as NumPy arrays indexed by A*4+B*2+Cin.

    Delegates to the cell's memoized tables: the profile showed these arrays
    being rebuilt thousands of times per pipeline evaluation before caching.
    """
    return cell.numpy_tables()


def _mult_table(cell: Multiplier2x2Cell) -> np.ndarray:
    """Return the memoized 16-entry product table indexed by ``a * 4 + b``."""
    return cell.numpy_table()


def vector_add(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
    carry_in: int = 0,
) -> np.ndarray:
    """Elementwise N-bit approximate addition of two integer arrays.

    Parameters mirror :class:`repro.arithmetic.rca.RippleCarryAdder`: the low
    ``approx_lsbs`` slices use ``cell``, everything above is exact.  Inputs may
    be signed; the result is the signed interpretation of the wrapped
    ``width``-bit sum, exactly as the scalar model produces.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    ua = to_unsigned_array(np.asarray(a), width)
    ub = to_unsigned_array(np.asarray(b), width)
    k = max(0, min(approx_lsbs, width))

    if k == 0 or cell.is_exact:
        total = (ua + ub + np.int64(carry_in & 1)) & np.int64(mask(width))
        return to_signed_array(total, width)

    sum_table, cout_table = _cell_tables(cell)
    carry = np.full(ua.shape, carry_in & 1, dtype=np.int64)
    low = np.zeros(ua.shape, dtype=np.int64)
    for position in range(k):
        bit_a = (ua >> position) & 1
        bit_b = (ub >> position) & 1
        index = bit_a * 4 + bit_b * 2 + carry
        low |= sum_table[index] << position
        carry = cout_table[index]

    if k == width:
        return to_signed_array(low, width)

    high = ((ua >> k) + (ub >> k) + carry) & np.int64(mask(width - k))
    return to_signed_array((high << k) | low, width)


def vector_subtract(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
) -> np.ndarray:
    """Elementwise ``a - b`` computed as ``a + ~b + 1`` through the same chain."""
    ub = to_unsigned_array(np.asarray(b), width)
    inverted = (~ub) & np.int64(mask(width))
    return vector_add(a, inverted, width, approx_lsbs, cell, carry_in=1)


def _multiply_block(
    a: np.ndarray,
    b: np.ndarray,
    block_width: int,
    offset: int,
    approx_lsbs: int,
    mult_table: np.ndarray,
    adder_cell: FullAdderCell,
) -> np.ndarray:
    """Recursive vectorised multiplication of ``block_width``-bit sub-blocks."""
    if offset >= approx_lsbs:
        # Every cell in this sub-tree is accurate: exact multiplication is
        # bit-identical and much faster.
        return a * b

    if block_width == 2:
        return mult_table[a * 4 + b]

    half = block_width // 2
    low_mask = np.int64(mask(half))
    a_low, a_high = a & low_mask, a >> half
    b_low, b_high = b & low_mask, b >> half

    ll = _multiply_block(a_low, b_low, half, offset, approx_lsbs, mult_table, adder_cell)
    lh = _multiply_block(
        a_low, b_high, half, offset + half, approx_lsbs, mult_table, adder_cell
    )
    hl = _multiply_block(
        a_high, b_low, half, offset + half, approx_lsbs, mult_table, adder_cell
    )
    hh = _multiply_block(
        a_high, b_high, half, offset + block_width, approx_lsbs, mult_table, adder_cell
    )

    acc_width = 2 * block_width
    local_approx = max(0, approx_lsbs - offset)
    accumulated = vector_add(ll, lh << half, acc_width, local_approx, adder_cell)
    accumulated = to_unsigned_array(accumulated, acc_width)
    accumulated = vector_add(accumulated, hl << half, acc_width, local_approx, adder_cell)
    accumulated = to_unsigned_array(accumulated, acc_width)
    accumulated = vector_add(
        accumulated, hh << block_width, acc_width, local_approx, adder_cell
    )
    return to_unsigned_array(accumulated, acc_width)


def vector_multiply_unsigned(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise unsigned recursive multiplication of two integer arrays."""
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    ua = to_unsigned_array(np.asarray(a), width)
    ub = to_unsigned_array(np.asarray(b), width)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        return ua * ub
    return _multiply_block(ua, ub, width, 0, k, _mult_table(mult_cell), adder_cell)


def vector_multiply(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise signed multiplication via a sign-magnitude wrapper."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    sign = np.where((a < 0) != (b < 0), np.int64(-1), np.int64(1))
    magnitude = vector_multiply_unsigned(
        np.abs(a), np.abs(b), width, approx_lsbs, mult_cell, adder_cell
    )
    return sign * magnitude
