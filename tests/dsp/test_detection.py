"""Unit tests for the adaptive-threshold peak detection (decision stage)."""

import numpy as np
import pytest

from repro.dsp.detection import (
    CandidateTracker,
    PeakDetectionConfig,
    PeakDetectionResult,
    detect_peaks,
)


def synthetic_mwi(peak_positions, length=2000, peak_value=2000.0, width=12):
    """Build an MWI-like signal: smooth bumps at the requested positions."""
    signal = np.zeros(length)
    for position in peak_positions:
        lo = max(0, position - 3 * width)
        hi = min(length, position + 3 * width)
        t = np.arange(lo, hi)
        signal[lo:hi] += peak_value * np.exp(-0.5 * ((t - position) / width) ** 2)
    return signal


class TestBasicDetection:
    def test_detects_regular_peaks(self):
        truth = list(range(150, 1900, 170))
        result = detect_peaks(synthetic_mwi(truth))
        assert result.peak_count == len(truth)
        for detected, expected in zip(result.peak_indices, truth):
            assert abs(detected - expected) <= 3

    def test_empty_signal(self):
        result = detect_peaks(np.zeros(0))
        assert result.peak_count == 0

    def test_flat_signal_has_no_peaks(self):
        result = detect_peaks(np.full(1000, 5.0))
        assert result.peak_count == 0

    def test_single_peak(self):
        result = detect_peaks(synthetic_mwi([500]))
        assert result.peak_count == 1

    def test_result_type(self):
        result = detect_peaks(synthetic_mwi([400, 800]))
        assert isinstance(result, PeakDetectionResult)
        assert result.peak_array().dtype == np.int64


def loop_candidates(signal, min_distance, min_value):
    """Reference scan, one sample at a time: local maxima (``>=`` rising,
    ``>`` falling) of at least ``min_value``, greedily merged under the
    minimum distance, keeping the larger peak."""
    kept = []
    for i in range(1, len(signal) - 1):
        if not (signal[i - 1] <= signal[i] > signal[i + 1]
                and signal[i] >= min_value):
            continue
        if kept and i - kept[-1] < min_distance:
            if signal[i] > signal[kept[-1]]:
                kept[-1] = i
            continue
        kept.append(i)
    return kept


class TestCandidateTracker:
    @pytest.mark.parametrize("seed", range(8))
    def test_any_split_equals_the_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(0, 2000))
        # Small integers: plateaus, ties and merges within the distance.
        signal = rng.integers(0, 6, size=length).astype(np.float64)
        want = loop_candidates(signal, 40, 1.0)
        whole = CandidateTracker(40, 1.0)
        whole.extend(signal)
        assert whole.kept == want
        chunked = CandidateTracker(40, 1.0)
        cuts = np.sort(rng.integers(0, length + 1, size=6))
        for end in [*cuts, length]:
            chunked.extend(signal[:end])
        assert chunked.kept == want


class TestRefractoryPeriod:
    def test_peaks_closer_than_refractory_are_merged(self):
        # Two bumps only 20 samples apart: physiologically impossible, the
        # detector must not report both.
        signal = synthetic_mwi([500, 520, 900])
        result = detect_peaks(signal)
        close = [p for p in result.peak_indices if 480 <= p <= 540]
        assert len(close) <= 1


class TestAdaptiveThreshold:
    def test_small_noise_bumps_rejected(self):
        truth = [300, 600, 900, 1200, 1500]
        signal = synthetic_mwi(truth, peak_value=2000.0)
        signal += synthetic_mwi([450, 750, 1050], peak_value=60.0)  # noise bumps
        result = detect_peaks(signal)
        assert result.peak_count == len(truth)
        assert len(result.rejected_indices) >= 1

    def test_threshold_trace_recorded(self):
        result = detect_peaks(synthetic_mwi([300, 600, 900]))
        assert len(result.threshold_trace) >= 3


class TestAlignmentCheck:
    def test_aligned_filtered_peak_accepted(self):
        truth = [400, 800, 1200]
        mwi = synthetic_mwi(truth)
        filtered = synthetic_mwi([t - 10 for t in truth], peak_value=1500.0)
        result = detect_peaks(mwi, filtered)
        assert result.peak_count == len(truth)
        assert result.misaligned_indices == []

    def test_misaligned_candidate_rejected(self):
        # The filtered signal has its peaks far away from the MWI bumps, so
        # the alignment check must discard the candidates (Fig. 13 mechanism).
        mwi = synthetic_mwi([400, 800, 1200])
        filtered = synthetic_mwi([100, 1700], peak_value=1500.0)
        config = PeakDetectionConfig(alignment_tolerance_samples=20,
                                     search_window_samples=10)
        result = detect_peaks(mwi, filtered, config)
        assert len(result.misaligned_indices) >= 1
        assert result.peak_count < 3

    def test_without_filtered_signal_check_is_disabled(self):
        mwi = synthetic_mwi([400, 800, 1200])
        result = detect_peaks(mwi, None)
        assert result.peak_count == 3


class TestConfig:
    def test_defaults_are_200hz_parameters(self):
        config = PeakDetectionConfig()
        assert config.refractory_samples == 40  # 200 ms at 200 Hz
        assert 0 < config.threshold_fraction < 1

    def test_custom_refractory(self):
        truth = list(range(100, 1900, 60))  # unphysiologically fast
        config = PeakDetectionConfig(refractory_samples=10)
        result = detect_peaks(synthetic_mwi(truth, width=6), config=config)
        # With a tiny refractory period most bumps are individually resolved.
        assert result.peak_count > len(truth) // 2


def _bits(values):
    """The float64 bit patterns of ``values``."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestPackedResult:
    """A decision-stage node stores ``pack()``'s array; ``unpack`` inverts it."""

    @staticmethod
    def _assert_round_trips(result):
        packed = result.pack()
        assert packed.dtype == np.int64 and packed.ndim == 1
        back = PeakDetectionResult.unpack(packed)
        assert back == result
        assert _bits(back.threshold_trace) == _bits(result.threshold_trace)
        for indices in (back.peak_indices, back.rejected_indices,
                        back.misaligned_indices):
            assert all(type(index) is int for index in indices)
        assert all(type(value) is float for value in back.threshold_trace)

    def test_an_empty_result(self):
        self._assert_round_trips(PeakDetectionResult())
        self._assert_round_trips(detect_peaks(np.zeros(0)))

    def test_results_with_rejected_and_misaligned_candidates(self):
        noisy = synthetic_mwi([300, 600, 900, 1200, 1500])
        noisy += synthetic_mwi([450, 750, 1050], peak_value=60.0)
        rejected = detect_peaks(noisy)
        misaligned = detect_peaks(
            synthetic_mwi([400, 800, 1200]),
            synthetic_mwi([100, 1700], peak_value=1500.0),
            PeakDetectionConfig(alignment_tolerance_samples=20,
                                search_window_samples=10),
        )
        assert rejected.rejected_indices and misaligned.misaligned_indices
        for result in (rejected, misaligned):
            self._assert_round_trips(result)

    def test_the_threshold_trace_round_trips_bit_for_bit(self):
        trace = [0.1 + 0.2, -0.0, 0.0, 5e-324, 1e308, float("inf"),
                 -float("inf"), float("nan")]
        result = PeakDetectionResult([3, 2**40], [7], [11, 12], trace)
        back = PeakDetectionResult.unpack(result.pack())
        assert (back.peak_indices, back.rejected_indices,
                back.misaligned_indices) == ([3, 2**40], [7], [11, 12])
        assert _bits(back.threshold_trace) == _bits(trace)

    def test_a_read_only_packed_array_unpacks(self):
        # Store hits hand out read-only views of the stored bytes.
        result = detect_peaks(synthetic_mwi([300, 600, 900]))
        packed = result.pack()
        packed.setflags(write=False)
        assert PeakDetectionResult.unpack(packed) == result
