"""Compiled LUT engine for the approximate arithmetic units.

The scalar models in :mod:`repro.arithmetic.rca` and
:mod:`repro.arithmetic.recursive_multiplier` simulate the approximate
hardware one cell at a time: easy to audit, far too slow to push tens of
thousands of ECG samples through multi-tap filters.  The approximate cells
have tiny input domains, so that control flow can be *compiled away* into
lookup tables once per configuration:

* **Slice-composed adds** — for each ``(adder_cell, slice_approx_bits)`` pair
  an 8-bit-slice table maps ``(a_byte, b_byte, carry_in)`` to
  ``(sum_byte, carry_out)``.  :func:`compiled_add` (widths 1..32) reads both
  operands as the little-endian byte planes of 32-bit words and forms every
  slice's table index in one pass; each approximated byte slice then costs
  a carry OR, one gather, a carry shift and one byte store, at most 4 of
  them.  The region above the approximation boundary is one exact word add,
  bit-identical to simulating accurate cells.  That is about 25 NumPy
  operations per 4-slice add, views aside; on the short arrays of a stream
  push their cost is per-call overhead, not data.
* **Compiled multipliers** — one composition level (:func:`_compose_level`)
  splits both operands into halves and accumulates their four half-width
  sub-products with three slice-composed adds, as Fig. 7 composes its
  blocks.  The full approximate 8x8 unsigned-product LUT (2^16 entries)
  takes that level over 4x4 product tables, which take it over the 2x2
  cell's own table; a 16x16 multiply takes it once more over the 8x8 LUTs:
  4 table gathers plus 3 slice-composed 32-bit adds.
* **Constant-operand LUTs** — FIR taps multiply by fixed coefficients and
  the squarer is unary, so both collapse to a single 2^width-entry signed
  LUT per ``(configuration, constant)``: one gather per tap, and one
  :func:`compiled_multiply_constant` call per FIR stage over its
  ``(taps x n)`` tap matrix and coefficient column.

Every table is built one composition level over a smaller one, as the
hardware composes its cells (Figs. 6-7): a slice table chains two 4-bit
nibble tables, a product table accumulates half-width product tables, and a
constant or square table runs the 16x16 multiply once per operand
magnitude (2^(width-1) + 1 of them) and signs each pattern's entry.  Each
entry goes through the same cells in the same order as the scalar models,
so the tables equal theirs.  The nibble and half-width tables are local to
one build and never enter the registry; the slice tables of the
accumulation adds do, because every add goes through :func:`compiled_add`.

Compiled tables live in a process-wide registry keyed by content hashes of
the cell truth tables (the same canonical-JSON/SHA-256 idiom as
:mod:`repro.core.fingerprint`), with single-flight builds under a lock so
concurrent service jobs share tables and each table is built exactly once,
on first use.

Everything here is bit-identical to the scalar reference models by
construction *and* by test: ``tests/arithmetic/test_compiled.py``
cross-validates exhaustively at 8 bits, compares slice, product, constant
and square tables with a per-bit test oracle over their whole input domain,
and property-tests the full widths.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

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

#: Widest add: the paper's 32-bit accumulator, one uint32 word of four
#: byte-slice planes.
_WORD_BITS = 32

#: Operand width of the widest direct product LUT: 8x8 -> 2^16 entries.
_BASE_WIDTH = 8

#: Multiplier operand widths: the 2x2 cell and the blocks Fig. 7 composes
#: from it, up to the paper's 16-bit datapath.
_MULTIPLIER_WIDTHS = (2, 4, 8, 16)

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
class _OpenBuilds(threading.local):
    """This thread's open builds, innermost last: the seconds that the
    builds nested in each one took so far."""

    def __init__(self) -> None:
        self.nested_seconds: List[float] = []


class _SingleFlightRegistry:
    """Process-wide store of compiled tables with single-flight builds.

    ``get`` returns the table for ``key``, building it at most once per
    process: concurrent requests for a missing key elect one builder (under
    the lock) and every other thread waits on an event until the table is
    published.  A failed build clears the slot so a later caller can retry.

    A build may get other tables, and build them, inside it (a product table
    its slice tables).  Each build observes its own time, not that of the
    builds nested in it, so ``repro_lut_compile_seconds`` sums to the time
    spent building.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[Tuple, np.ndarray] = {}
        self._building: Dict[Tuple, threading.Event] = {}
        self._builds = 0
        self._open_builds = _OpenBuilds()

    def _timed_build(self, build: Callable[[], np.ndarray]) -> np.ndarray:
        nested_seconds = self._open_builds.nested_seconds
        nested_seconds.append(0.0)
        started = time.perf_counter()
        try:
            table = build()
        finally:
            elapsed = time.perf_counter() - started
            nested = nested_seconds.pop()
            if nested_seconds:
                nested_seconds[-1] += elapsed
        _LUT_COMPILE_SECONDS.observe(elapsed - nested)
        return table

    def get(self, key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        # A published table is never replaced, so a hit needs no lock.
        table = self._tables.get(key)
        if table is not None:
            return table
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
                table = self._timed_build(build)
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
def _build_nibble_table(cell: FullAdderCell, approx_bits: int) -> np.ndarray:
    """Ripple every 4-bit input through the cell chain: 2^9 entries.

    Indexed by ``(a << 5) | (b << 1) | carry_in``; packs
    ``sum | (carry_out << 4)``.  Bit positions below ``approx_bits`` ripple
    through ``cell`` and the rest through the accurate cell, the cell
    sequence of the scalar ripple-carry chain.
    """
    bits = _SLICE_BITS // 2
    index = np.arange(1 << (2 * bits + 1), dtype=np.int64)
    a = index >> (bits + 1)
    b = (index >> 1) & np.int64(mask(bits))
    carry = index & 1
    total = np.zeros(index.shape, dtype=np.int64)
    for position in range(bits):
        sums, couts = (
            cell if position < approx_bits else ACCURATE_ADDER
        ).numpy_tables()
        lookup = ((a >> position) & 1) * 4 + ((b >> position) & 1) * 2 + carry
        total |= sums[lookup] << position
        carry = couts[lookup]
    return total | (carry << bits)


def _build_add_slice_table(cell: FullAdderCell, approx_bits: int) -> np.ndarray:
    """Compile one 8-bit adder slice with ``approx_bits`` approximated LSBs.

    The table is indexed by ``(a_byte << 9) | (b_byte << 1) | carry_in`` and
    packs ``sum_byte | (carry_out << 8)`` into uint16.  It chains two 4-bit
    nibble tables as the carry ripples between cells: the low nibble holds
    the first ``min(approx_bits, 4)`` approximated bits, the high nibble the
    rest, and the low nibble's carry-out indexes the high nibble.
    """
    nibble = _SLICE_BITS // 2
    nibble_mask = np.int64(mask(nibble))
    low_table = _build_nibble_table(cell, min(approx_bits, nibble))
    high_table = _build_nibble_table(cell, max(0, approx_bits - nibble))
    index = np.arange(1 << (2 * _SLICE_BITS + 1), dtype=np.int64)
    a = index >> (_SLICE_BITS + 1)
    b = (index >> 1) & _SLICE_MASK
    low = low_table[
        ((a & nibble_mask) << (nibble + 1)) | ((b & nibble_mask) << 1) | (index & 1)
    ]
    high = high_table[
        ((a >> nibble) << (nibble + 1)) | ((b >> nibble) << 1) | (low >> nibble)
    ]
    return ((high << nibble) | (low & nibble_mask)).astype(np.uint16)


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

    The 2x2 cell's own truth table is the leaf.  A wider table takes one
    composition level (:func:`_compose_level`) over all 2^(2*width) operand
    pairs, gathering each sub-product from a half-width table built for its
    budget.  Those tables are local to this build.
    """
    if width == 2:
        return mult_cell.numpy_table().copy()
    half = width // 2

    def sub_product(a: np.ndarray, b: np.ndarray, budget: int) -> np.ndarray:
        if budget <= 0:
            return a * b
        table = _build_product_table(mult_cell, adder_cell, half, budget)
        return table[(a << half) | b]

    operands = np.arange(1 << (2 * width), dtype=np.int64)
    a, b = operands >> width, operands & np.int64(mask(width))
    return _compose_level(sub_product, a, b, width, approx_lsbs, adder_cell)


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
    pattern is ``p``.  :func:`compiled_multiply` multiplies magnitudes only,
    and the 2^width patterns have just 2^(width-1) + 1 of them, so the
    unsigned product runs once per magnitude and each pattern gathers its
    own, then takes the sign-magnitude wrapper's sign.
    """
    magnitudes = np.arange((1 << (width - 1)) + 1, dtype=np.int64)
    other = magnitudes if constant is None else np.int64(abs(constant))
    products = compiled_multiply_unsigned(
        magnitudes, other, width, approx_lsbs, mult_cell, adder_cell
    )
    operands = to_signed_array(np.arange(1 << width, dtype=np.int64), width)
    table = products[np.abs(operands)]
    if constant is None:
        return table
    return np.where((operands < 0) != (constant < 0), -table, table)


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
def _signed_words(words: np.ndarray, width: int) -> np.ndarray:
    """Sign-extend the low ``width`` bits of uint32 words into int64."""
    if width == _WORD_BITS:
        return words.view(np.int32).astype(np.int64)
    shift = _WORD_BITS - width
    return ((words << np.uint32(shift)).view(np.int32) >> shift).astype(np.int64)


def compiled_add(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
    carry_in: int = 0,
) -> np.ndarray:
    """Elementwise N-bit approximate addition via compiled slice tables.

    Bit-identical to :class:`~repro.arithmetic.RippleCarryAdder` for widths
    1..32.  Both operands wrap to 32-bit words read as little-endian byte
    planes, and every slice's ``(a_byte << 9) | (b_byte << 1)`` index is
    formed in one pass; each slice then ORs in the carry, gathers, and
    stores its sum byte over the operand's byte it consumed.  Above the
    approximation boundary one exact word add finishes the sum.  Bits above
    ``width`` never reach the bits below it, so the result sign-extends from
    bit ``width - 1``.
    """
    if not 1 <= width <= _WORD_BITS:
        raise ValueError(f"width must be 1..{_WORD_BITS}, got {width}")
    ua = np.asarray(a).astype("<u4", order="C")
    ub = np.asarray(b).astype("<u4", order="C")
    k = max(0, min(approx_lsbs, width))
    if k == 0 or cell.is_exact:
        return _signed_words(ua + ub + np.uint32(carry_in & 1), width)
    if ua.shape != ub.shape:
        ua, ub = (np.array(x) for x in np.broadcast_arrays(ua, ub))

    slices = -(-k // _SLICE_BITS)
    a_planes = ua.reshape(-1, 1).view(np.uint8)[:, :slices]
    b_planes = ub.reshape(-1, 1).view(np.uint8)[:, :slices]
    index = np.left_shift(a_planes, _SLICE_BITS + 1, dtype=np.uint32)
    index |= np.left_shift(b_planes, 1, dtype=np.uint32)
    carry: object = np.uint32(carry_in & 1)
    for slice_index in range(slices):
        position = slice_index * _SLICE_BITS
        table = _add_slice_table(cell, min(_SLICE_BITS, k - position))
        packed = table[index[:, slice_index] | carry]
        carry = packed >> _SLICE_BITS
        a_planes[:, slice_index] = packed

    position = slices * _SLICE_BITS
    if position < width:
        ub &= np.uint32(~mask(position) & mask(_WORD_BITS))
        ua += ub
        ua += np.left_shift(carry, position, dtype=np.uint32).reshape(ua.shape)
    return _signed_words(ua, width)


def compiled_subtract(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
) -> np.ndarray:
    """Elementwise ``a - b`` computed as ``a + ~b + 1`` through the same chain."""
    inverted = ~np.asarray(b, dtype=np.int64)
    return compiled_add(a, inverted, width, approx_lsbs, cell, carry_in=1)


# -------------------------------------------------------------- multiplies
def _compose_level(
    sub_product: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    adder_cell: FullAdderCell,
) -> np.ndarray:
    """One recursion level of the ``width x width`` multiplier (Fig. 7).

    Splits both unsigned operands into halves and takes the four
    sub-products at product offsets 0, half, half and width.  A block's
    behaviour depends only on ``approx_lsbs - offset``, its budget, so
    ``sub_product(a, b, budget)`` multiplies two half-width operands with
    that many approximated LSBs (exactly when ``budget <= 0``).  Three
    ``2 * width``-bit adds accumulate the terms in the hardware's order.
    """
    half = width // 2
    low_mask = np.int64(mask(half))
    a_low, a_high = a & low_mask, a >> half
    b_low, b_high = b & low_mask, b >> half
    accumulated, *shifted = (
        sub_product(a_low, b_low, approx_lsbs),
        sub_product(a_low, b_high, approx_lsbs - half) << half,
        sub_product(a_high, b_low, approx_lsbs - half) << half,
        sub_product(a_high, b_high, approx_lsbs - width) << width,
    )
    for term in shifted:
        accumulated = to_unsigned_array(
            compiled_add(accumulated, term, 2 * width, approx_lsbs, adder_cell),
            2 * width,
        )
    return accumulated


def compiled_multiply_unsigned(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise unsigned approximate multiplication via compiled LUTs.

    Bit-identical to :class:`~repro.arithmetic.RecursiveMultiplier`.  Widths
    2, 4 and 8 are a single direct LUT gather; width 16 (the paper's
    datapath) composes one level over 8-bit multiplies, so 4 gathers into
    the 8x8 LUTs and 3 slice-composed adds.
    """
    if width not in _MULTIPLIER_WIDTHS:
        raise ValueError(f"width must be 2, 4, 8 or 16, got {width}")
    ua = to_unsigned_array(np.asarray(a), width)
    ub = to_unsigned_array(np.asarray(b), width)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        return ua * ub
    if width <= _BASE_WIDTH:
        table = _product_table(mult_cell, adder_cell, width, k)
        return table[(ua << width) | ub]

    def sub_product(a_half: np.ndarray, b_half: np.ndarray, budget: int) -> np.ndarray:
        return compiled_multiply_unsigned(
            a_half, b_half, width // 2, budget, mult_cell, adder_cell
        )

    return _compose_level(sub_product, ua, ub, width, k, adder_cell)


def compiled_multiply(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise signed multiplication via a sign-magnitude wrapper.

    ``b`` may be a scalar (it broadcasts), which the constant-operand paths
    rely on.
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
    constant: Union[int, np.ndarray],
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Multiply ``a`` by fixed signed constants.

    ``constant`` is one int, or a column of them, one per row of ``a``
    (shape ``(len(a), 1)``): a FIR passes its ``(taps x n)`` tap matrix and
    its coefficient column, so the range check and the unsigned conversion
    run once per stage.  Bit-identical to ``compiled_multiply(a,
    full_like(a, constant))``, but each row is a single gather into a
    per-``(configuration, constant)`` LUT when the inputs fit the signed
    ``width``-bit range (which the saturated DSP stages guarantee);
    out-of-range inputs, and constants of any other shape, fall back to the
    generic path.
    """
    a = np.asarray(a, dtype=np.int64)
    constants = np.asarray(constant, dtype=np.int64)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        # Exact path, spelled exactly like the sign-magnitude wrapper so the
        # result is bit-identical for any operand range.
        sign = np.where((a < 0) != (constants < 0), np.int64(-1), np.int64(1))
        word = np.int64(mask(width))
        return sign * ((np.abs(a) & word) * (np.abs(constants) & word))
    per_row = constants.shape in ((), a.shape[:1] + (1,) * (a.ndim - 1))
    if not (per_row and _fits_signed(constants, width) and _fits_signed(a, width)):
        return compiled_multiply(a, constants, width, approx_lsbs, mult_cell, adder_cell)
    patterns = to_unsigned_array(a, width)
    values = constants.reshape(-1).tolist()
    if constants.ndim == 0:
        return _unary_table(width, k, mult_cell, adder_cell, values[0])[patterns]
    products = np.empty(patterns.shape, dtype=np.int64)
    for row, value in enumerate(values):
        table = _unary_table(width, k, mult_cell, adder_cell, value)
        products[row] = table[patterns[row]]
    return products


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
