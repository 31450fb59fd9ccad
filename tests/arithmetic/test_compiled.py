"""Cross-validation of the compiled LUT engine against the scalar models.

The compiled engine (:mod:`repro.arithmetic.compiled`) replaces per-bit
Python iteration with precompiled slice/product/constant LUTs; these tests
prove it bit-identical to the scalar reference hardware models — exhaustively
over the full 8-bit operand domain, and property-tested at the paper's full
16/32-bit datapath widths — and to the per-bit oracle (``per_bit_engine``)
over each table's whole input domain, and exercise the process-wide
single-flight table registry.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_bit_engine import (
    vector_add,
    vector_multiply,
    vector_multiply_unsigned,
    vector_subtract,
)

from repro.arithmetic import (
    ADDER_CELLS,
    MULTIPLIER_CELLS,
    RecursiveMultiplier,
    RippleCarryAdder,
    adder_cell,
    compiled,
    compiled_add,
    compiled_multiply,
    compiled_multiply_constant,
    compiled_multiply_unsigned,
    compiled_square,
    compiled_subtract,
    multiplier_cell,
    registry_info,
)
from repro.arithmetic.bitvector import to_signed_array, to_unsigned_array
from repro.arithmetic.compiled import (
    _REGISTRY,
    _add_slice_table,
    _product_table,
    _unary_table,
)

adder_cells = st.sampled_from(sorted(ADDER_CELLS))
mult_cells = st.sampled_from(sorted(MULTIPLIER_CELLS))
int16 = st.integers(min_value=-(2**15), max_value=2**15 - 1)
int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
uint16 = st.integers(min_value=0, max_value=2**16 - 1)

#: Every 8-bit operand pair, as two flat arrays (a varies slowest).
_ALL_8BIT = np.arange(1 << 16, dtype=np.int64)
_ALL_A8 = _ALL_8BIT >> 8
_ALL_B8 = _ALL_8BIT & 0xFF


class TestExhaustiveAdders:
    """Every adder cell, every 8-bit operand pair, vs the scalar chain."""

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [5, 8])
    def test_exhaustive_8_bit_vs_scalar_rca(self, cell_name, approx_lsbs):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(8, approx_lsbs, cell)
        expected = np.fromiter(
            (
                scalar.add(int(x), int(y))
                for x, y in zip(_ALL_A8, _ALL_B8)
            ),
            dtype=np.int64,
            count=_ALL_A8.size,
        )
        result = compiled_add(_ALL_A8, _ALL_B8, 8, approx_lsbs, cell)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    def test_exhaustive_8_bit_carry_in(self, cell_name):
        """Carry-in threads into the first approximated slice correctly."""
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(8, 6, cell)
        sample = _ALL_8BIT[::7]  # every 7th pair keeps this case fast
        a, b = sample >> 8, sample & 0xFF
        expected = np.fromiter(
            (
                scalar.add_with_carry(int(x), int(y), 1)[0]
                for x, y in zip(a, b)
            ),
            dtype=np.int64,
            count=a.size,
        )
        result = compiled_add(a, b, 8, 6, cell, carry_in=1)
        assert np.array_equal(result, expected)


#: Add operands beyond any word: int64 values up to 2^40 plus the word
#: boundaries, so both engines wrap them before the first slice.
_WIDE = np.concatenate(
    [
        np.random.default_rng(28).integers(-(2**40), 2**40, size=192),
        [0, 1, -1, 2**31 - 1, -(2**31), 2**32 - 1, 2**32, -(2**32) - 1],
        [0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFF, 2**40 - 1, -(2**40), 12345],
    ]
).astype(np.int64)


class TestAddAgainstTheOracle:
    """The byte-plane add kernel against the per-bit oracle: every adder
    cell, width, approximated LSB count and carry-in, and every shape a
    caller passes."""

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("width", [4, 8, 16, 24, 32])
    def test_every_k_and_carry_in(self, cell_name, width):
        cell = adder_cell(cell_name)
        a, b = _WIDE, _WIDE[::-1].copy()
        for k in range(width + 1):
            for carry_in in (0, 1):
                assert np.array_equal(
                    compiled_add(a, b, width, k, cell, carry_in),
                    vector_add(a, b, width, k, cell, carry_in),
                ), (k, carry_in)
            assert np.array_equal(
                compiled_subtract(a, b, width, k, cell),
                vector_subtract(a, b, width, k, cell),
            ), k

    @pytest.mark.parametrize("k", [0, 7, 10, 21, 26, 32])
    def test_shapes_and_broadcasting(self, k):
        cell = adder_cell("ApproxAdd5")
        rng = np.random.default_rng(k)

        result = compiled_add(np.int64(-7), 2**33 + 9, 32, k, cell)
        assert np.shape(result) == ()
        assert result == vector_add(np.int64(-7), 2**33 + 9, 32, k, cell)

        matrix = np.array([[1, 2], [3, 4]])
        result = compiled_add(matrix, 7, 32, k, cell)
        assert result.shape == (2, 2)
        assert np.array_equal(result, vector_add(matrix, 7, 32, k, cell))

        # A (taps x n) matrix against a column, both operand orders, and a
        # reversed, strided view of the matrix like a FIR's tap line.
        taps = rng.integers(-(2**35), 2**35, size=(5, 9))
        column = rng.integers(-(2**35), 2**35, size=(5, 1))
        full = np.broadcast_to(column, taps.shape)
        for left, right, oracle_left, oracle_right in (
            (taps, column, taps, full),
            (column, taps, full, taps),
            (taps[::-1, ::2], column, taps[::-1, ::2], full[:, ::2]),
        ):
            result = compiled_add(left, right, 32, k, cell)
            assert result.shape == np.shape(oracle_left)
            assert np.array_equal(
                result, vector_add(oracle_left, oracle_right, 32, k, cell)
            )
            assert np.array_equal(
                compiled_subtract(left, right, 32, k, cell),
                vector_subtract(oracle_left, oracle_right, 32, k, cell),
            )

    def test_operands_are_not_modified(self):
        """The kernel writes sum bytes over its own copy of ``a``, even when
        ``a`` already holds 32-bit words."""
        a, b = _WIDE.astype("<u4"), _WIDE[::-1].copy()
        before = a.copy()
        compiled_add(a, b, 32, 21, adder_cell("ApproxAdd5"))
        assert np.array_equal(a, before) and np.array_equal(b, _WIDE[::-1])


class TestExhaustiveMultipliers:
    """Every elementary cell pairing vs the scalar recursive multiplier."""

    @pytest.mark.parametrize("mult_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("adder_name", sorted(ADDER_CELLS))
    def test_exhaustive_4_bit_every_cell_pairing(self, mult_name, adder_name):
        """All 256 4-bit operand pairs, every (multiplier, adder) pairing."""
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        operands = np.arange(256, dtype=np.int64)
        a, b = operands >> 4, operands & 0xF
        for approx_lsbs in (0, 3, 5, 8):
            scalar = RecursiveMultiplier(4, approx_lsbs, mult, adder)
            expected = np.fromiter(
                (
                    scalar.multiply_unsigned(int(x), int(y))
                    for x, y in zip(a, b)
                ),
                dtype=np.int64,
                count=a.size,
            )
            result = compiled_multiply_unsigned(a, b, 4, approx_lsbs, mult, adder)
            assert np.array_equal(result, expected), (mult_name, adder_name, approx_lsbs)

    @pytest.mark.parametrize(
        "mult_name,adder_name",
        [("AppMultV1", "ApproxAdd5"), ("AppMultV2", "ApproxAdd1")],
    )
    def test_exhaustive_8_bit_paper_cells(self, mult_name, adder_name):
        """All 65536 8-bit operand pairs for the paper's approximate cells."""
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        scalar = RecursiveMultiplier(8, 9, mult, adder)
        expected = np.fromiter(
            (
                scalar.multiply_unsigned(int(x), int(y))
                for x, y in zip(_ALL_A8, _ALL_B8)
            ),
            dtype=np.int64,
            count=_ALL_A8.size,
        )
        result = compiled_multiply_unsigned(_ALL_A8, _ALL_B8, 8, 9, mult, adder)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("mult_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("adder_name", sorted(ADDER_CELLS))
    def test_exhaustive_8_bit_vs_vectorized_every_pairing(
        self, mult_name, adder_name
    ):
        """Full 8-bit domain vs the per-bit oracle for every pairing.

        The per-bit oracle is itself cross-validated against the scalar
        models; the full-domain comparison pins down the LUT gather indexing
        for every cell combination at several approximation depths.
        """
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        for approx_lsbs in (1, 6, 11, 16):
            expected = vector_multiply_unsigned(
                _ALL_A8, _ALL_B8, 8, approx_lsbs, mult, adder
            )
            result = compiled_multiply_unsigned(
                _ALL_A8, _ALL_B8, 8, approx_lsbs, mult, adder
            )
            assert np.array_equal(result, expected), (mult_name, adder_name, approx_lsbs)


class TestTablesOverTheirWholeDomain:
    """Each table, built one composition level over a smaller table, equals
    the per-bit oracle on every input it has."""

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    def test_add_slice_tables(self, cell_name):
        cell = adder_cell(cell_name)
        for approx_bits in range(1, 9):
            table = _add_slice_table(cell, approx_bits)
            for carry_in in (0, 1):
                # A 9-bit add of two bytes: bit 8 is the slice's carry-out.
                expected = to_unsigned_array(
                    vector_add(_ALL_A8, _ALL_B8, 9, approx_bits, cell, carry_in), 9
                )
                index = (_ALL_A8 << 9) | (_ALL_B8 << 1) | carry_in
                assert np.array_equal(table[index], expected), (
                    approx_bits,
                    carry_in,
                )

    @pytest.mark.parametrize("approx_lsbs", range(1, 17))
    def test_product_tables_of_the_fig12_cells(self, approx_lsbs):
        mult, adder = multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        expected = vector_multiply_unsigned(
            _ALL_A8, _ALL_B8, 8, approx_lsbs, mult, adder
        )
        assert np.array_equal(_product_table(mult, adder, 8, approx_lsbs), expected)

    @pytest.mark.parametrize("approx_lsbs", [5, 22])
    @pytest.mark.parametrize("constant", [None, 0, 1, -1, -1234, -32768, 32767])
    def test_constant_and_square_tables(self, approx_lsbs, constant):
        """``None`` is the squarer; the rest are FIR-tap constants."""
        mult, adder = multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        operands = to_signed_array(np.arange(1 << 16, dtype=np.int64), 16)
        other = operands if constant is None else np.full_like(operands, constant)
        expected = vector_multiply(operands, other, 16, approx_lsbs, mult, adder)
        table = _unary_table(16, approx_lsbs, mult, adder, constant)
        assert np.array_equal(table, expected)


class TestFullWidthProperties:
    """Hypothesis property tests at the paper's 16/32-bit datapath widths."""

    @given(int32, int32, st.integers(0, 32), adder_cells)
    @settings(max_examples=120, deadline=None)
    def test_add_32_bit_matches_scalar(self, a, b, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, k, cell)
        result = int(compiled_add(np.array([a]), np.array([b]), 32, k, cell)[0])
        assert result == scalar.add(a, b)

    @given(int32, int32, st.integers(0, 32), adder_cells)
    @settings(max_examples=60, deadline=None)
    def test_subtract_32_bit_matches_scalar(self, a, b, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, k, cell)
        result = int(compiled_subtract(np.array([a]), np.array([b]), 32, k, cell)[0])
        assert result == scalar.subtract(a, b)

    @given(int16, int16, st.integers(0, 32), mult_cells, adder_cells)
    @settings(max_examples=120, deadline=None)
    def test_multiply_16_bit_matches_scalar(self, a, b, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        scalar = RecursiveMultiplier(16, k, mult, adder)
        result = int(
            compiled_multiply(np.array([a]), np.array([b]), 16, k, mult, adder)[0]
        )
        assert result == scalar.multiply(a, b)

    @given(
        st.lists(int32, min_size=1, max_size=32),
        st.integers(0, 32),
        adder_cells,
    )
    @settings(max_examples=40, deadline=None)
    def test_add_arrays_match_vectorized(self, values, k, cell_name):
        cell = adder_cell(cell_name)
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        assert np.array_equal(
            compiled_add(a, b, 32, k, cell), vector_add(a, b, 32, k, cell)
        )
        assert np.array_equal(
            compiled_subtract(a, b, 32, k, cell),
            vector_subtract(a, b, 32, k, cell),
        )

    @given(
        st.lists(int16, min_size=1, max_size=32),
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=40, deadline=None)
    def test_multiply_arrays_match_vectorized(self, values, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        assert np.array_equal(
            compiled_multiply(a, b, 16, k, mult, adder),
            vector_multiply(a, b, 16, k, mult, adder),
        )


class TestConstantOperandPaths:
    """The FIR-tap and squarer LUTs vs the generic multiplier."""

    @given(
        st.lists(int16, min_size=1, max_size=32),
        int16,
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=60, deadline=None)
    def test_multiply_constant_matches_full_like(
        self, values, constant, k, mult_name, adder_name
    ):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        a = np.array(values, dtype=np.int64)
        expected = vector_multiply(
            a, np.full_like(a, constant), 16, k, mult, adder
        )
        result = compiled_multiply_constant(a, constant, 16, k, mult, adder)
        assert np.array_equal(result, expected)

    @given(
        st.lists(int16, min_size=1, max_size=32),
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=60, deadline=None)
    def test_square_matches_self_multiply(self, values, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        a = np.array(values, dtype=np.int64)
        expected = vector_multiply(a, a, 16, k, mult, adder)
        result = compiled_square(a, 16, k, mult, adder)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("k", [0, 9, 26])
    def test_coefficient_column_matches_full_like(self, k):
        """A FIR's tap matrix times its coefficient column, one constant
        per row, in range and (times 3) past the signed 16-bit range."""
        mult, adder = multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        taps = np.random.default_rng(k).integers(-(2**15), 2**15, size=(6, 11))
        column = np.array([[0], [1], [-1], [32767], [-32768], [1234]])
        for operands in (taps, taps[::-1], taps * 3):
            expected = vector_multiply(
                operands, np.full_like(operands, column), 16, k, mult, adder
            )
            result = compiled_multiply_constant(operands, column, 16, k, mult, adder)
            assert np.array_equal(result, expected)

    def test_out_of_range_inputs_fall_back_to_generic_path(self):
        """Inputs outside the signed 16-bit range bypass the LUT safely."""
        mult = multiplier_cell("AppMultV1")
        adder = adder_cell("ApproxAdd5")
        a = np.array([-70000, -32769, -32768, 0, 32767, 32768, 70000])
        expected = vector_multiply(a, np.full_like(a, 37), 16, 9, mult, adder)
        result = compiled_multiply_constant(a, 37, 16, 9, mult, adder)
        assert np.array_equal(result, expected)
        expected_sq = vector_multiply(a, a, 16, 9, mult, adder)
        assert np.array_equal(compiled_square(a, 16, 9, mult, adder), expected_sq)

    def test_constant_accurate_path_avoids_table(self):
        before = registry_info()["tables"]
        a = np.arange(-50, 50, dtype=np.int64)
        result = compiled_multiply_constant(
            a, 7, 16, 0, multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        )
        assert np.array_equal(result, a * 7)
        assert registry_info()["tables"] == before


class TestRegistry:
    """Process-wide single-flight table registry."""

    def test_tables_are_built_exactly_once_across_threads(self):
        _REGISTRY.clear()
        cell = adder_cell("ApproxAdd3")
        a = np.arange(256, dtype=np.int64)
        results = []

        def work():
            results.append(compiled_add(a, a, 32, 11, cell))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 32-bit add with k=11 needs exactly two slice tables (8 + 3 bits);
        # eight concurrent callers must not build duplicates.
        info = registry_info()
        assert info["builds"] == 2
        reference = results[0]
        for result in results[1:]:
            assert np.array_equal(result, reference)

    def test_failed_build_is_retryable(self):
        _REGISTRY.clear()
        calls = []

        def failing_build():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("flaky build")
            return np.arange(4)

        key = ("test", "failed-build")
        with pytest.raises(RuntimeError):
            _REGISTRY.get(key, failing_build)
        assert np.array_equal(_REGISTRY.get(key, failing_build), np.arange(4))

    def test_compile_seconds_observe_each_builds_own_time(self, monkeypatch):
        """A table built inside another build is observed once.

        Scripted clock: the outer build runs from 0 to 10 s and the inner
        one, inside it, from 1 to 3 s.  The inner build observes 2 s and the
        outer one its own 8 s, so the histogram sums to the outer build's
        elapsed 10 s.
        """
        _REGISTRY.clear()
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        clock = SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(compiled, "time", clock)
        seconds = compiled._LUT_COMPILE_SECONDS.labels()
        before = (seconds.count, seconds.sum)

        def outer_build():
            _REGISTRY.get(("test", "inner"), lambda: np.arange(2))
            return np.arange(3)

        _REGISTRY.get(("test", "outer"), outer_build)
        assert seconds.count - before[0] == 2
        assert seconds.sum - before[1] == pytest.approx(10.0, abs=1e-9)
        assert next(ticks, None) is None


class TestValidation:
    @pytest.mark.parametrize("width", [0, 33, 64])
    @pytest.mark.parametrize("cell_name", ["Accurate", "ApproxAdd5"])
    def test_invalid_add_width_rejected(self, width, cell_name):
        with pytest.raises(ValueError, match=r"width must be 1\.\.32"):
            compiled_add(np.array([1]), np.array([2]), width, 4, adder_cell(cell_name))

    @pytest.mark.parametrize("width", [12, 32])
    def test_invalid_multiply_width_rejected(self, width):
        mult, adder = multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        with pytest.raises(ValueError, match="width must be 2, 4, 8 or 16"):
            compiled_multiply_unsigned(
                np.array([3]), np.array([5]), width, 4, mult, adder
            )

    def test_2_bit_width_uses_direct_table(self):
        """The smallest legal width is a single direct LUT gather."""
        operands = np.arange(16, dtype=np.int64)
        a, b = operands >> 2, operands & 0b11
        mult = multiplier_cell("AppMultV2")
        result = compiled_multiply_unsigned(a, b, 2, 4, mult, adder_cell("Accurate"))
        expected = [mult.evaluate(int(x), int(y)) for x, y in zip(a, b)]
        assert list(result) == expected
