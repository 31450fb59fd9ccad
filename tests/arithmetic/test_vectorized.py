"""Cross-validation of the per-bit oracle against the scalar models.

These are the "ModelSim vs MATLAB cross-validation" tests of the paper's
experimental setup: the two independent implementations of the same hardware
must agree bit-for-bit for every cell, width and approximation setting.
"""

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
    multiplier_cell,
)

int16_arrays = st.lists(
    st.integers(min_value=-(2**15), max_value=2**15 - 1), min_size=1, max_size=16
)


class TestVectorAddCrossValidation:
    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [0, 1, 5, 16, 32])
    def test_matches_scalar_rca_32_bit(self, cell_name, approx_lsbs):
        rng = np.random.default_rng(42)
        a = rng.integers(-(2**30), 2**30, size=64)
        b = rng.integers(-(2**30), 2**30, size=64)
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, approx_lsbs, cell)
        expected = [scalar.add(int(x), int(y)) for x, y in zip(a, b)]
        result = vector_add(a, b, 32, approx_lsbs, cell)
        assert list(result) == expected

    @given(int16_arrays, st.integers(0, 16), st.sampled_from(sorted(ADDER_CELLS)))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_scalar_16_bit(self, values, approx_lsbs, cell_name):
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(16, approx_lsbs, cell)
        expected = [scalar.add(int(x), int(y)) for x, y in zip(a, b)]
        assert list(vector_add(a, b, 16, approx_lsbs, cell)) == expected

    def test_exact_path_matches_plain_addition(self):
        a = np.array([1, -2, 30000, -30000])
        b = np.array([5, 7, 1000, -1000])
        result = vector_add(a, b, 32, 0, adder_cell("ApproxAdd5"))
        assert list(result) == list(a + b)

    def test_carry_in_honoured(self):
        a = np.array([10])
        b = np.array([5])
        assert vector_add(a, b, 16, 0, adder_cell("Accurate"), carry_in=1)[0] == 16

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            vector_add(np.array([1]), np.array([2]), 0, 0, adder_cell("Accurate"))


class TestVectorSubtract:
    def test_matches_scalar_subtract(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-(2**14), 2**14, size=32)
        b = rng.integers(-(2**14), 2**14, size=32)
        cell = adder_cell("ApproxAdd1")
        scalar = RippleCarryAdder(16, 6, cell)
        expected = [scalar.subtract(int(x), int(y)) for x, y in zip(a, b)]
        assert list(vector_subtract(a, b, 16, 6, cell)) == expected

    def test_exact_subtract(self):
        a = np.array([100, -50])
        b = np.array([30, -20])
        assert list(vector_subtract(a, b, 32, 0, adder_cell("Accurate"))) == [70, -30]


class TestVectorMultiplyCrossValidation:
    @pytest.mark.parametrize("cell_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [0, 3, 8, 16, 32])
    def test_matches_scalar_recursive_multiplier(self, cell_name, approx_lsbs):
        rng = np.random.default_rng(3)
        a = rng.integers(-(2**15), 2**15, size=40)
        b = rng.integers(-(2**15), 2**15, size=40)
        mult = multiplier_cell(cell_name)
        add5 = adder_cell("ApproxAdd5")
        scalar = RecursiveMultiplier(16, approx_lsbs, mult, add5)
        expected = [scalar.multiply(int(x), int(y)) for x, y in zip(a, b)]
        assert list(vector_multiply(a, b, 16, approx_lsbs, mult, add5)) == expected

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_unsigned_exhaustive_small_widths(self, width):
        values = np.arange(1 << width)
        a, b = np.meshgrid(values, values)
        a, b = a.ravel(), b.ravel()
        mult = multiplier_cell("AppMultV1")
        add = adder_cell("ApproxAdd2")
        k = width  # approximate the lower half of the product
        scalar = RecursiveMultiplier(width, k, mult, add)
        expected = np.array(
            [scalar.multiply_unsigned(int(x), int(y)) for x, y in zip(a, b)]
        )
        result = vector_multiply_unsigned(a, b, width, k, mult, add)
        np.testing.assert_array_equal(result, expected)

    def test_exact_path_matches_numpy_product(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 2**16, size=100)
        b = rng.integers(0, 2**16, size=100)
        result = vector_multiply_unsigned(a, b, 16, 0)
        np.testing.assert_array_equal(result, a * b)

    def test_signed_multiplication_sign_rules(self):
        a = np.array([100, -100, 100, -100])
        b = np.array([50, 50, -50, -50])
        result = vector_multiply(a, b, 16, 0)
        assert list(result) == [5000, -5000, -5000, 5000]

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            vector_multiply_unsigned(np.array([1]), np.array([2]), 6, 0)
