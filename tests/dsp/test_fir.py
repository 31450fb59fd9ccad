"""Unit tests for the stage execution engine (FIR / squarer / MWI)."""

import numpy as np
import pytest

from repro.arithmetic import ArithmeticBackend, accurate_backend
from repro.dsp.fir import fir_filter, moving_window_integral, run_stage, squarer
from repro.dsp.stages import STAGE_DERIVATIVE, STAGE_LPF, STAGE_MWI, STAGE_SQUARER


class TestFirFilter:
    def test_impulse_response_reproduces_coefficients(self):
        coefficients = np.array([3, -2, 5], dtype=np.int64)
        impulse = np.zeros(10, dtype=np.int64)
        impulse[0] = 1
        output = fir_filter(impulse, coefficients, accurate_backend(), output_shift=0)
        assert list(output[:3]) == [3, -2, 5]
        assert list(output[3:]) == [0] * 7

    def test_delayed_impulse(self):
        coefficients = np.array([1, 2], dtype=np.int64)
        signal = np.zeros(6, dtype=np.int64)
        signal[2] = 10
        output = fir_filter(signal, coefficients, accurate_backend(), output_shift=0)
        assert list(output) == [0, 0, 10, 20, 0, 0]

    def test_signal_shorter_than_the_filter(self):
        # Taps whose delay reaches past the last sample see only the
        # zero-padded history, so the output keeps the input's length.
        coefficients = np.arange(1, 9, dtype=np.int64)
        signal = np.array([1, 10, 100], dtype=np.int64)
        output = fir_filter(signal, coefficients, accurate_backend(), output_shift=0)
        assert list(output) == [1, 12, 123]

    def test_output_shift_drops_fractional_bits(self):
        coefficients = np.array([4], dtype=np.int64)
        signal = np.array([8, 16], dtype=np.int64)
        output = fir_filter(signal, coefficients, accurate_backend(), output_shift=2)
        assert list(output) == [8, 16]

    def test_output_saturated_to_16_bits(self):
        coefficients = np.array([32767], dtype=np.int64)
        signal = np.array([32767], dtype=np.int64)
        output = fir_filter(signal, coefficients, accurate_backend(), output_shift=0)
        assert output[0] == 32767

    def test_matches_numpy_convolution_for_accurate_backend(self):
        rng = np.random.default_rng(5)
        signal = rng.integers(-2000, 2000, size=200)
        coefficients = np.array([7, -3, 11, 2], dtype=np.int64)
        output = fir_filter(signal, coefficients, accurate_backend(), output_shift=0)
        expected = np.convolve(signal, coefficients)[: signal.size]
        np.testing.assert_array_equal(output, np.clip(expected, -32768, 32767))

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            fir_filter(np.array([1, 2]), np.array([], dtype=np.int64),
                       accurate_backend(), output_shift=0)

    def test_approximate_backend_error_is_bounded(self):
        rng = np.random.default_rng(6)
        signal = rng.integers(-20000, 20000, size=300)
        coefficients = np.array([100, -50, 200], dtype=np.int64)
        accurate = fir_filter(signal, coefficients, accurate_backend(), output_shift=8)
        backend = ArithmeticBackend(approx_lsbs=6, adder_cell="ApproxAdd5",
                                    multiplier_cell="AppMultV1")
        approx = fir_filter(signal, coefficients, backend, output_shift=8)
        # Datapath approximation of 6 LSBs -> output error well below 2**6
        # after the shift by 8 plus carry effects.
        assert np.abs(approx - accurate).max() < 64


class TestSquarer:
    def test_squares_and_rescales(self):
        signal = np.array([0, 10, -10, 181], dtype=np.int64)
        output = squarer(signal, accurate_backend(), output_shift=2)
        assert list(output) == [0, 25, 25, (181 * 181) >> 2]

    def test_output_is_never_negative(self):
        rng = np.random.default_rng(7)
        signal = rng.integers(-32768, 32767, size=500)
        output = squarer(signal, accurate_backend(), output_shift=12)
        assert output.min() >= 0

    def test_saturates_at_16_bits(self):
        signal = np.array([32767], dtype=np.int64)
        output = squarer(signal, accurate_backend(), output_shift=0)
        assert output[0] == 32767


class TestMovingWindowIntegral:
    def test_constant_signal_reaches_window_sum(self):
        signal = np.full(100, 32, dtype=np.int64)
        output = moving_window_integral(signal, window=30, backend=accurate_backend(),
                                        output_shift=5)
        assert output[50] == (32 * 30) >> 5

    def test_startup_transient_ramps_up(self):
        signal = np.full(40, 320, dtype=np.int64)
        output = moving_window_integral(signal, window=30, backend=accurate_backend(),
                                        output_shift=5)
        assert output[0] < output[10] < output[35]

    def test_signal_shorter_than_the_window(self):
        signal = np.array([4, 8], dtype=np.int64)
        output = moving_window_integral(signal, 30, accurate_backend(), 0)
        assert list(output) == [4, 12]

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            moving_window_integral(np.array([1, 2, 3]), window=1,
                                   backend=accurate_backend(), output_shift=0)

    def test_matches_numpy_rolling_sum(self):
        rng = np.random.default_rng(8)
        signal = rng.integers(0, 1000, size=200)
        output = moving_window_integral(signal, window=10, backend=accurate_backend(),
                                        output_shift=0)
        kernel = np.ones(10, dtype=np.int64)
        expected = np.convolve(signal, kernel)[: signal.size]
        np.testing.assert_array_equal(output, np.clip(expected, -32768, 32767))


class TestRunStage:
    def test_dispatches_fir(self):
        signal = np.zeros(30, dtype=np.int64)
        signal[0] = 1000
        output = run_stage(signal, STAGE_LPF)
        assert output.shape == signal.shape

    def test_dispatches_squarer_and_mwi(self):
        signal = np.arange(-50, 50, dtype=np.int64) * 100
        squared = run_stage(signal, STAGE_SQUARER)
        integrated = run_stage(squared, STAGE_MWI)
        assert squared.min() >= 0
        assert integrated.shape == signal.shape

    def test_default_backend_is_accurate(self):
        signal = np.arange(100, dtype=np.int64)
        default = run_stage(signal, STAGE_DERIVATIVE)
        explicit = run_stage(signal, STAGE_DERIVATIVE, accurate_backend())
        np.testing.assert_array_equal(default, explicit)

    def test_output_lsb_convention_translates_through_output_shift(self):
        """k output LSBs give output errors of order 2**k, not 2**(k-shift)."""
        rng = np.random.default_rng(9)
        signal = rng.integers(-20000, 20000, size=400)
        accurate = run_stage(signal, STAGE_LPF)
        backend = ArithmeticBackend(approx_lsbs=4, adder_cell="ApproxAdd5",
                                    multiplier_cell="AppMultV1")
        approx = run_stage(signal, STAGE_LPF, backend)
        max_error = np.abs(approx - accurate).max()
        assert 0 < max_error < (1 << 8)
