"""Ripple-carry adders with approximated least-significant slices.

The paper's Fig. 6 shows how larger approximate adders are built: an ``N``-bit
ripple-carry chain whose ``k`` least-significant full-adder slices are replaced
by an approximate cell while the remaining ``N - k`` slices stay accurate.
Restricting the approximation to the LSBs bounds the maximum error magnitude
to less than ``2**k``.

This module contains the *scalar reference* implementation: a direct,
slice-by-slice simulation that is easy to audit.  The compiled LUT engine in
:mod:`repro.arithmetic.compiled` is cross-validated against it in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .bitvector import mask, to_signed, to_unsigned
from .full_adders import ACCURATE_ADDER, FullAdderCell

__all__ = ["RippleCarryAdder"]


@dataclass(frozen=True)
class RippleCarryAdder:
    """An ``N``-bit ripple-carry adder with ``k`` approximated LSB slices.

    Parameters
    ----------
    width:
        Word width in bits (e.g. 32 for the accumulators used by the paper).
    approx_lsbs:
        Number of least-significant slices implemented with ``approx_cell``.
        Clamped to ``[0, width]``.
    approx_cell:
        Elementary cell used for the approximated slices.
    accurate_cell:
        Cell used for the remaining slices; defaults to the exact full adder
        and normally never needs to be changed.

    The adder operates on two's-complement patterns, so signed operands work
    naturally as long as results stay within (or are allowed to wrap at) the
    word width, exactly like the hardware block it models.
    """

    width: int
    approx_lsbs: int
    approx_cell: FullAdderCell
    accurate_cell: FullAdderCell = ACCURATE_ADDER

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.approx_lsbs < 0:
            raise ValueError(f"approx_lsbs must be >= 0, got {self.approx_lsbs}")

    # ------------------------------------------------------------------ API
    @property
    def effective_approx_lsbs(self) -> int:
        """Number of slices that actually use the approximate cell."""
        return min(self.approx_lsbs, self.width)

    def cell_for_slice(self, position: int) -> FullAdderCell:
        """Return the elementary cell used at bit ``position``."""
        if not 0 <= position < self.width:
            raise ValueError(
                f"slice position {position} outside adder width {self.width}"
            )
        if position < self.effective_approx_lsbs:
            return self.approx_cell
        return self.accurate_cell

    def add(self, a: int, b: int, carry_in: int = 0) -> int:
        """Add two signed integers, returning the signed wrapped result."""
        result, _ = self.add_with_carry(a, b, carry_in)
        return result

    def add_with_carry(self, a: int, b: int, carry_in: int = 0) -> Tuple[int, int]:
        """Add and also return the final carry-out bit.

        Returns
        -------
        (result, carry_out):
            ``result`` is the signed interpretation of the ``width``-bit sum
            pattern; ``carry_out`` is the carry out of the most-significant
            slice.
        """
        ua = to_unsigned(a, self.width)
        ub = to_unsigned(b, self.width)
        carry = carry_in & 1
        sum_bits: List[int] = []
        for position in range(self.width):
            bit_a = (ua >> position) & 1
            bit_b = (ub >> position) & 1
            cell = self.cell_for_slice(position)
            sum_bit, carry = cell.evaluate(bit_a, bit_b, carry)
            sum_bits.append(sum_bit)
        pattern = 0
        for position, bit in enumerate(sum_bits):
            pattern |= bit << position
        return to_signed(pattern, self.width), carry

    def add_unsigned(self, a: int, b: int, carry_in: int = 0) -> int:
        """Add two unsigned integers, returning the unsigned wrapped result."""
        ua = a & mask(self.width)
        ub = b & mask(self.width)
        signed_result, _ = self.add_with_carry(ua, ub, carry_in)
        return to_unsigned(signed_result, self.width)

    def subtract(self, a: int, b: int) -> int:
        """Compute ``a - b`` as ``a + (~b) + 1`` through the same chain."""
        inverted_b = (~to_unsigned(b, self.width)) & mask(self.width)
        result, _ = self.add_with_carry(to_unsigned(a, self.width), inverted_b, 1)
        return result

    def max_error_bound(self) -> int:
        """Upper bound on the absolute error introduced by the approximation.

        Only the ``k`` approximated LSB slices can produce wrong sum bits, and
        a wrong carry out of slice ``k - 1`` perturbs the upper part by at most
        one unit of weight ``2**k``; the bound is therefore ``2**(k+1) - 1``
        (and zero when no slice is approximated or the cell is exact).
        """
        k = self.effective_approx_lsbs
        if k == 0 or self.approx_cell.is_exact:
            return 0
        return (1 << (k + 1)) - 1
