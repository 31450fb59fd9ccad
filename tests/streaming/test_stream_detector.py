"""The incremental peak detector reproduces ``detect_peaks`` exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.detection import PeakDetectionConfig, detect_peaks
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.streaming import IncrementalPeakDetector, StreamSession


@pytest.fixture(scope="module")
def offline_signals(short_record):
    """The (mwi, filtered) pair of an offline accurate run."""
    result = PanTompkinsPipeline().process(short_record.samples)
    return (
        np.asarray(result.integrated, dtype=np.float64),
        np.asarray(result.preprocessed, dtype=np.float64),
    )


def _results_equal(streamed, offline):
    assert streamed.peak_indices == offline.peak_indices
    assert streamed.rejected_indices == offline.rejected_indices
    assert streamed.misaligned_indices == offline.misaligned_indices
    assert streamed.threshold_trace == offline.threshold_trace


@pytest.mark.parametrize("chunk", [1, 37, 400, 10_000], ids=lambda c: f"chunk{c}")
def test_incremental_matches_offline(offline_signals, chunk):
    mwi, filtered = offline_signals
    offline = detect_peaks(mwi, filtered)
    detector = IncrementalPeakDetector()
    for lo in range(0, mwi.size, chunk):
        detector.update(mwi[lo : lo + chunk], filtered[lo : lo + chunk])
    _results_equal(detector.finalize(), offline)


def _tripled_second_half(samples):
    """The second half at three times its amplitude, clipped to ADC codes."""
    half = samples.size // 2
    samples[half:] = np.clip(samples[half:] * 3, -(2 ** 15), 2 ** 15 - 1)
    return samples


def _quieter_first_half(samples):
    """A fifth of the amplitude until halfway: the loud beats that follow
    move the alignment reference enough to revoke reported beats."""
    samples[: samples.size // 2] //= 5
    return samples


def test_growing_amplitude_forces_a_rescan(short_record):
    """A late, larger beat moves the filtered global peak mid-stream.

    The alignment check compares against the whole-record maximum of the
    filtered signal; when the maximum arrives late, decisions made with the
    smaller running maximum must be replayed.  The final result still has to
    equal the offline pass (which always sees the true maximum).
    """
    samples = _tripled_second_half(
        np.asarray(short_record.samples, dtype=np.int64).copy()
    )
    result = PanTompkinsPipeline().process(samples)
    mwi = np.asarray(result.integrated, dtype=np.float64)
    filtered = np.asarray(result.preprocessed, dtype=np.float64)
    offline = detect_peaks(mwi, filtered)

    detector = IncrementalPeakDetector()
    removed_any = False
    for lo in range(0, mwi.size, 64):
        _, removed = detector.update(mwi[lo : lo + 64], filtered[lo : lo + 64])
        removed_any = removed_any or bool(removed)
    _results_equal(detector.finalize(), offline)
    assert detector.rescans >= 1
    # The rescans happened because earlier decisions were invalidated — the
    # beat deltas must reflect that something was withdrawn or the candidate
    # set reshuffled at least once during the stream.
    assert removed_any or detector.rescans >= 1


def test_beat_deltas_accumulate_to_the_final_list(offline_signals):
    mwi, filtered = offline_signals
    reported = set()
    detector = IncrementalPeakDetector()
    for lo in range(0, mwi.size, 100):
        added, removed = detector.update(mwi[lo : lo + 100], filtered[lo : lo + 100])
        for beat in removed:
            reported.discard(beat)
        reported.update(added)
        assert detector.beats == sorted(reported)
    result = detector.finalize()
    # Everything reported live survives finalisation (the flush can only add
    # the deferred tail candidates, never retract confirmed beats).
    assert reported <= set(result.peak_indices)


RECORDS = {
    "as-recorded": lambda samples: samples,
    "tripled-second-half": _tripled_second_half,
    "quieter-first-half": _quieter_first_half,
}


@pytest.mark.parametrize("chunk", [1, 7, 50, 333], ids=lambda c: f"chunk{c}")
@pytest.mark.parametrize("variant", sorted(RECORDS))
def test_a_session_has_one_beat_list(short_record, variant, chunk):
    """After every push the session's beats are the fold of every report's
    added and removed beats so far, revoked beats included."""
    samples = RECORDS[variant](np.asarray(short_record.samples, dtype=np.int64).copy())
    session = StreamSession(sample_rate_hz=short_record.sample_rate_hz)
    folded, revoked = [], 0
    for lo in range(0, samples.size, chunk):
        report = session.push(samples[lo : lo + chunk])
        for beat in report.beats_removed:
            folded.remove(beat)
        assert not set(report.beats_added) & set(folded)
        folded = sorted(folded + report.beats_added)
        revoked += len(report.beats_removed)
        assert session.beats == folded
        assert report.beat_count == len(folded)
    assert session.beats == session.finalize().detection.peak_indices
    if variant == "quieter-first-half":
        assert revoked > 0


def test_update_after_finalize_is_an_error(offline_signals):
    mwi, filtered = offline_signals
    detector = IncrementalPeakDetector()
    detector.update(mwi, filtered)
    detector.finalize()
    with pytest.raises(RuntimeError):
        detector.update(mwi[:1], filtered[:1])


def test_finalize_is_idempotent(offline_signals):
    mwi, filtered = offline_signals
    detector = IncrementalPeakDetector()
    detector.update(mwi, filtered)
    first = detector.finalize()
    second = detector.finalize()
    assert first.peak_indices == second.peak_indices


def test_missing_filtered_chunk_is_an_error(offline_signals):
    mwi, _ = offline_signals
    detector = IncrementalPeakDetector()
    with pytest.raises(TypeError):
        detector.update(mwi[:10])


def test_custom_config_is_honoured(offline_signals):
    mwi, filtered = offline_signals
    config = PeakDetectionConfig(refractory_samples=60, threshold_fraction=0.4)
    offline = detect_peaks(mwi, filtered, config)
    detector = IncrementalPeakDetector(config)
    for lo in range(0, mwi.size, 90):
        detector.update(mwi[lo : lo + 90], filtered[lo : lo + 90])
    _results_equal(detector.finalize(), offline)
