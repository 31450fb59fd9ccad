"""Compiled LUT engine for the approximate arithmetic units.

The vectorised engine in :mod:`repro.arithmetic.vectorized` already processes
whole sample arrays, but it still walks the approximated region *bit by bit*
in Python: a 32-bit add with ``k`` approximated LSBs issues up to ``k`` table
lookups, and a 16x16 multiply recurses through ~77 array operations.  The
approximate cells have tiny input domains, so all of that control flow can be
*compiled away* into lookup tables once per configuration:

* **Slice-composed adds** — for each ``(adder_cell, slice_approx_bits)`` pair
  an 8-bit-slice table maps ``(a_byte, b_byte, carry_in)`` to
  ``(sum_byte, carry_out)``.  A 32-bit :func:`compiled_add` becomes at most 4
  chained NumPy gathers (one per byte slice) instead of up to 32 per-bit
  Python iterations; the region above the approximation boundary is exact
  integer arithmetic, bit-identical to simulating accurate cells.
* **Compiled multipliers** — the full approximate 8x8 unsigned-product LUT
  (2^16 entries) is generated in one vectorised sweep of the existing
  recursion (:func:`repro.arithmetic.vectorized._multiply_block`), so the
  table is cross-validated against the engine the test-suite already proves
  bit-identical to the scalar models.  A 16x16 multiply then performs a
  single recursion level on top: 4 table gathers for the partial products
  plus 3 slice-composed 32-bit adds — about 10 array operations.
* **Constant-operand LUTs** — FIR taps multiply by fixed coefficients and
  the squarer is unary, so both collapse to a single 2^width-entry signed
  LUT per ``(configuration, constant)``: one gather per tap.

Compiled tables live in a process-wide registry keyed by content hashes of
the cell truth tables (the same canonical-JSON/SHA-256 idiom as
:mod:`repro.core.fingerprint`), with single-flight builds under a lock so
concurrent service jobs share tables and each table is built exactly once,
on first use.

Everything here is bit-identical to the scalar reference models by
construction *and* by test: ``tests/arithmetic/test_compiled.py``
cross-validates exhaustively at 8 bits and property-tests the full widths.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.tracing import span as obs_span
from .bitvector import (
    mask,
    signed_max,
    signed_min,
    to_signed_array,
    to_unsigned_array,
)
from .full_adders import ACCURATE_ADDER, FullAdderCell
from .multipliers_2x2 import ACCURATE_MULT, Multiplier2x2Cell
from .vectorized import _multiply_block

__all__ = [
    "compiled_add",
    "compiled_subtract",
    "compiled_multiply_unsigned",
    "compiled_multiply",
    "compiled_multiply_constant",
    "compiled_square",
    "registry_info",
]

#: Width of one compiled adder slice: 8 bits keeps the per-slice table at
#: 2^17 entries (256 KiB as uint16) while covering a 32-bit accumulator in
#: four gathers.
_SLICE_BITS = 8
_SLICE_MASK = (1 << _SLICE_BITS) - 1

#: Operand width of the widest direct product LUT: 8x8 -> 2^16 entries.
_BASE_WIDTH = 8

_LUT_COMPILE_SECONDS = obs_metrics.histogram(
    "repro_lut_compile_seconds",
    "Build time of one compiled approximate-arithmetic lookup table.",
)
_LUT_BUILDS = obs_metrics.counter(
    "repro_lut_builds_total",
    "Compiled-LUT builds performed by this process.",
)
_LUT_TABLES = obs_metrics.gauge(
    "repro_lut_tables",
    "Compiled lookup tables currently resident in the registry.",
)
_LUT_TABLE_BYTES = obs_metrics.gauge(
    "repro_lut_table_bytes",
    "Total bytes of the resident compiled lookup tables.",
)


# ---------------------------------------------------------------- registry
class _SingleFlightRegistry:
    """Process-wide store of compiled tables with single-flight builds.

    ``get`` returns the table for ``key``, building it at most once per
    process: concurrent requests for a missing key elect one builder (under
    the lock) and every other thread waits on an event until the table is
    published.  A failed build clears the slot so a later caller can retry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[Tuple, np.ndarray] = {}
        self._building: Dict[Tuple, threading.Event] = {}
        self._builds = 0

    def get(self, key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        while True:
            with self._lock:
                table = self._tables.get(key)
                if table is not None:
                    return table
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    break  # this thread builds
            event.wait()
        try:
            with obs_span("lut.compile", kind=str(key[0]) if key else ""):
                build_started = time.perf_counter()
                table = build()
                _LUT_COMPILE_SECONDS.observe(
                    time.perf_counter() - build_started
                )
        except BaseException:
            with self._lock:
                del self._building[key]
            event.set()
            raise
        with self._lock:
            self._tables[key] = table
            self._builds += 1
            del self._building[key]
            _LUT_BUILDS.inc()
            _LUT_TABLES.set(len(self._tables))
            _LUT_TABLE_BYTES.set(
                int(sum(t.nbytes for t in self._tables.values()))
            )
        event.set()
        return table

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "tables": len(self._tables),
                "builds": self._builds,
                "bytes": int(sum(t.nbytes for t in self._tables.values())),
            }

    def clear(self) -> None:
        """Drop every compiled table (test hook)."""
        with self._lock:
            self._tables.clear()
            self._builds = 0
            _LUT_TABLES.set(0)
            _LUT_TABLE_BYTES.set(0)


_REGISTRY = _SingleFlightRegistry()


def registry_info() -> Dict[str, int]:
    """Table count / build count / footprint of the process-wide registry."""
    return _REGISTRY.info()


# ----------------------------------------------------------- table builders
def _build_add_slice_table(cell: FullAdderCell, approx_bits: int) -> np.ndarray:
    """Compile one 8-bit adder slice with ``approx_bits`` approximated LSBs.

    The table is indexed by ``(a_byte << 9) | (b_byte << 1) | carry_in`` and
    packs ``sum_byte | (carry_out << 8)`` into uint16.  Bit positions below
    ``approx_bits`` ripple through ``cell``; the rest ripple through the
    accurate cell — exactly the cell sequence of the scalar ripple-carry
    chain, evaluated here for all 2^17 inputs in one vectorised sweep.
    """
    index = np.arange(1 << (2 * _SLICE_BITS + 1), dtype=np.int64)
    a = index >> (_SLICE_BITS + 1)
    b = (index >> 1) & _SLICE_MASK
    carry = index & 1
    approx_sums, approx_couts = cell.numpy_tables()
    exact_sums, exact_couts = ACCURATE_ADDER.numpy_tables()
    total = np.zeros(index.shape, dtype=np.int64)
    for position in range(_SLICE_BITS):
        lookup = ((a >> position) & 1) * 4 + ((b >> position) & 1) * 2 + carry
        if position < approx_bits:
            total |= approx_sums[lookup] << position
            carry = approx_couts[lookup]
        else:
            total |= exact_sums[lookup] << position
            carry = exact_couts[lookup]
    return (total | (carry << _SLICE_BITS)).astype(np.uint16)


def _add_slice_table(cell: FullAdderCell, approx_bits: int) -> np.ndarray:
    key = ("add_slice", cell.content_key(), approx_bits)
    return _REGISTRY.get(key, lambda: _build_add_slice_table(cell, approx_bits))


def _build_product_table(
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    width: int,
    approx_lsbs: int,
) -> np.ndarray:
    """Compile the full ``width x width`` unsigned-product LUT.

    All ``2^(2*width)`` operand pairs are pushed through the existing
    vectorised recursion in one sweep, which both generates the table and
    cross-validates it: the recursion is the engine the test-suite proves
    bit-identical to the scalar :class:`RecursiveMultiplier`.
    """
    operands = np.arange(1 << (2 * width), dtype=np.int64)
    a = operands >> width
    b = operands & np.int64(mask(width))
    return _multiply_block(
        a, b, width, 0, approx_lsbs, mult_cell.numpy_table(), adder_cell
    )


def _product_table(
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    width: int,
    approx_lsbs: int,
) -> np.ndarray:
    key = (
        "product",
        mult_cell.content_key(),
        adder_cell.content_key(),
        width,
        approx_lsbs,
    )
    return _REGISTRY.get(
        key, lambda: _build_product_table(mult_cell, adder_cell, width, approx_lsbs)
    )


def _build_unary_table(
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    constant: Optional[int],
) -> np.ndarray:
    """Compile a signed LUT over every ``width``-bit input pattern.

    ``constant is None`` compiles the squarer (``f(a) = a*a``); otherwise the
    fixed-coefficient multiplier (``f(a) = a*constant``).  Entry ``p`` holds
    the signed approximate product for the operand whose two's-complement
    pattern is ``p``.
    """
    patterns = np.arange(1 << width, dtype=np.int64)
    operands = to_signed_array(patterns, width)
    other = operands if constant is None else constant
    return compiled_multiply(operands, other, width, approx_lsbs, mult_cell, adder_cell)


def _unary_table(
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    constant: Optional[int],
) -> np.ndarray:
    key = (
        "square" if constant is None else "constant",
        width,
        approx_lsbs,
        mult_cell.content_key(),
        adder_cell.content_key(),
        constant,
    )
    return _REGISTRY.get(
        key,
        lambda: _build_unary_table(width, approx_lsbs, mult_cell, adder_cell, constant),
    )


# ------------------------------------------------------------------- adds
def compiled_add(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
    carry_in: int = 0,
) -> np.ndarray:
    """Elementwise N-bit approximate addition via compiled slice tables.

    Drop-in replacement for :func:`repro.arithmetic.vectorized.vector_add`:
    same parameters, bit-identical results.  The approximated region is
    covered by chained 8-bit-slice gathers (carry-out of one slice feeds the
    next slice's index); everything above the boundary is exact integer
    arithmetic.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    ua = to_unsigned_array(np.asarray(a), width)
    ub = to_unsigned_array(np.asarray(b), width)
    k = max(0, min(approx_lsbs, width))

    if k == 0 or cell.is_exact:
        total = (ua + ub + np.int64(carry_in & 1)) & np.int64(mask(width))
        return to_signed_array(total, width)

    low = np.zeros(ua.shape, dtype=np.int64)
    carry: object = np.int64(carry_in & 1)
    byte = np.int64(_SLICE_MASK)
    position = 0
    while position < k:
        table = _add_slice_table(cell, min(_SLICE_BITS, k - position))
        index = (
            (((ua >> position) & byte) << (_SLICE_BITS + 1))
            | (((ub >> position) & byte) << 1)
            | carry
        )
        packed = table[index].astype(np.int64)
        low |= (packed & byte) << position
        carry = packed >> _SLICE_BITS
        position += _SLICE_BITS

    if position >= width:
        return to_signed_array(low, width)
    high = ((ua >> position) + (ub >> position) + carry) & np.int64(
        mask(width - position)
    )
    return to_signed_array((high << position) | low, width)


def compiled_subtract(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
) -> np.ndarray:
    """Elementwise ``a - b`` computed as ``a + ~b + 1`` through the same chain."""
    ub = to_unsigned_array(np.asarray(b), width)
    inverted = (~ub) & np.int64(mask(width))
    return compiled_add(a, inverted, width, approx_lsbs, cell, carry_in=1)


# -------------------------------------------------------------- multiplies
def _block_product(
    a: np.ndarray,
    b: np.ndarray,
    local_approx: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
) -> np.ndarray:
    """Product of two ``_BASE_WIDTH``-bit blocks via the compiled 8x8 LUT."""
    if local_approx <= 0:
        # Every cell in this sub-tree is accurate: exact multiplication is
        # bit-identical and skips the gather entirely.
        return a * b
    table = _product_table(
        mult_cell, adder_cell, _BASE_WIDTH, min(local_approx, 2 * _BASE_WIDTH)
    )
    return table[(a << _BASE_WIDTH) | b]


def compiled_multiply_unsigned(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise unsigned approximate multiplication via compiled LUTs.

    Drop-in replacement for :func:`vector_multiply_unsigned`.  Widths up to 8
    are a single direct LUT gather; width 16 (the paper's datapath) performs
    one recursion level over the 8x8 LUTs with slice-composed accumulation
    adds.  Wider operands fall back to the vectorised recursion (they are
    outside the paper's design space).
    """
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")
    ua = to_unsigned_array(np.asarray(a), width)
    ub = to_unsigned_array(np.asarray(b), width)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        return ua * ub

    if width <= _BASE_WIDTH:
        table = _product_table(mult_cell, adder_cell, width, k)
        return table[(ua << width) | ub]

    if width == 2 * _BASE_WIDTH:
        half = _BASE_WIDTH
        low = np.int64(mask(half))
        a_low, a_high = ua & low, ua >> half
        b_low, b_high = ub & low, ub >> half

        # Sub-block behaviour only depends on (approx_lsbs - offset), so the
        # cross terms at offset ``half`` and the high term at offset
        # ``width`` reuse the same 8x8 LUT family with shifted budgets.
        ll = _block_product(a_low, b_low, k, mult_cell, adder_cell)
        lh = _block_product(a_low, b_high, k - half, mult_cell, adder_cell)
        hl = _block_product(a_high, b_low, k - half, mult_cell, adder_cell)
        hh = _block_product(a_high, b_high, k - width, mult_cell, adder_cell)

        acc_width = 2 * width
        accumulated = compiled_add(ll, lh << half, acc_width, k, adder_cell)
        accumulated = to_unsigned_array(accumulated, acc_width)
        accumulated = compiled_add(accumulated, hl << half, acc_width, k, adder_cell)
        accumulated = to_unsigned_array(accumulated, acc_width)
        accumulated = compiled_add(accumulated, hh << width, acc_width, k, adder_cell)
        return to_unsigned_array(accumulated, acc_width)

    return _multiply_block(ua, ub, width, 0, k, mult_cell.numpy_table(), adder_cell)


def compiled_multiply(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise signed multiplication via a sign-magnitude wrapper.

    Drop-in replacement for :func:`vector_multiply`; ``b`` may be a scalar
    (it broadcasts), which the constant-operand paths rely on.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    sign = np.where((a < 0) != (b < 0), np.int64(-1), np.int64(1))
    magnitude = compiled_multiply_unsigned(
        np.abs(a), np.abs(b), width, approx_lsbs, mult_cell, adder_cell
    )
    return sign * magnitude


# -------------------------------------------------- constant-operand paths
def _fits_signed(a: np.ndarray, width: int) -> bool:
    if a.size == 0:
        return True
    return bool(
        a.min() >= signed_min(width) and a.max() <= signed_max(width)
    )


def compiled_multiply_constant(
    a: np.ndarray,
    constant: int,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Multiply every element of ``a`` by a fixed signed ``constant``.

    Bit-identical to ``compiled_multiply(a, full(constant))`` but a single
    gather into a per-``(configuration, constant)`` LUT when the inputs fit
    the signed ``width``-bit range (which the saturated DSP stages
    guarantee); out-of-range inputs fall back to the generic path.
    """
    a = np.asarray(a, dtype=np.int64)
    constant = int(constant)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        # Exact path, spelled exactly like the sign-magnitude wrapper so the
        # result is bit-identical for any operand range.
        sign = np.where((a < 0) != (constant < 0), np.int64(-1), np.int64(1))
        magnitude = (np.abs(a) & np.int64(mask(width))) * np.int64(
            abs(constant) & mask(width)
        )
        return sign * magnitude
    if not (
        signed_min(width) <= constant <= signed_max(width)
        and _fits_signed(a, width)
    ):
        return compiled_multiply(a, constant, width, approx_lsbs, mult_cell, adder_cell)
    table = _unary_table(width, k, mult_cell, adder_cell, constant)
    return table[to_unsigned_array(a, width)]


def compiled_square(
    a: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise ``a * a`` through the approximate multiplier model.

    The squarer is unary, so the whole multiplier collapses to one signed
    2^width-entry LUT per configuration: a single gather per stage run.
    """
    a = np.asarray(a, dtype=np.int64)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        magnitude = np.abs(a) & np.int64(mask(width))
        return magnitude * magnitude
    if not _fits_signed(a, width):
        return compiled_multiply(a, a, width, approx_lsbs, mult_cell, adder_cell)
    table = _unary_table(width, k, mult_cell, adder_cell, None)
    return table[to_unsigned_array(a, width)]
