"""Cross-validation of the compiled LUT engine against the scalar models.

The compiled engine (:mod:`repro.arithmetic.compiled`) replaces per-bit
Python iteration with precompiled slice/product/constant LUTs; these tests
prove it bit-identical to the scalar reference hardware models — exhaustively
over the full 8-bit operand domain, and property-tested at the paper's full
16/32-bit datapath widths — and exercise the process-wide single-flight
table registry.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import (
    ADDER_CELLS,
    MULTIPLIER_CELLS,
    RecursiveMultiplier,
    RippleCarryAdder,
    adder_cell,
    compiled_add,
    compiled_multiply,
    compiled_multiply_constant,
    compiled_multiply_unsigned,
    compiled_square,
    compiled_subtract,
    multiplier_cell,
    registry_info,
    vector_add,
    vector_multiply,
    vector_multiply_unsigned,
    vector_subtract,
)
from repro.arithmetic.compiled import _REGISTRY

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
        """Full 8-bit domain vs the vectorised engine for every pairing.

        The vectorised engine is itself cross-validated against the scalar
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


class TestValidation:
    def test_invalid_add_width_rejected(self):
        with pytest.raises(ValueError):
            compiled_add(np.array([1]), np.array([2]), 0, 0, adder_cell("Accurate"))

    def test_invalid_multiply_width_rejected(self):
        with pytest.raises(ValueError):
            compiled_multiply_unsigned(np.array([1]), np.array([2]), 12, 0)

    def test_2_bit_width_uses_direct_table(self):
        """The smallest legal width is a single direct LUT gather."""
        operands = np.arange(16, dtype=np.int64)
        a, b = operands >> 2, operands & 0b11
        mult = multiplier_cell("AppMultV2")
        result = compiled_multiply_unsigned(a, b, 2, 4, mult, adder_cell("Accurate"))
        expected = [mult.evaluate(int(x), int(y)) for x, y in zip(a, b)]
        assert list(result) == expected
