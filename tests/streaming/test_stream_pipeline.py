"""Full streaming pipeline + session: bit-identity and live telemetry.

The tentpole acceptance test lives here: for every tested chunk split and
backend (accurate and approximate), the chunked `StreamingPipeline` produces
stage outputs, detected beats and quality metrics bit-identical to the
offline `PanTompkinsPipeline.process()` on the concatenated signal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configurations import DesignPoint, paper_configuration
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.signals import load_record
from repro.streaming import ReplaySource, StreamSession, StreamingPipeline

#: (design, split plan) grid: named approximate configurations from Fig. 12
#: plus the accurate datapath, against splits chosen to land inside filter
#: group delays (LPF delay = 5, HPF delay = 16) and degenerate sizes.  The
#: size-1 split uses a shorter signal (still past the 400-sample threshold
#: learning window) because each pushed sample re-runs the carried history
#: through every stage — LUT-backed approximate backends make that costly.
DESIGNS = {
    "A2": DesignPoint.accurate(),
    "B6": paper_configuration("B6"),
    "B10": paper_configuration("B10"),
}

SPLITS = {
    "size1": ([1], 450),
    "lpf-delay": ([5], 600),
    "hpf-delay": ([16], 600),
    "uneven": ([7, 1, 30, 111, 2, 400], 600),
    "whole": ([10_000], 600),
}


def _chunks(signal, plan):
    position = 0
    index = 0
    while position < signal.size:
        size = plan[index % len(plan)]
        yield signal[position : position + size]
        position += size
        index += 1


@pytest.fixture(scope="module")
def stream_signal(short_record):
    return np.asarray(short_record.samples[:600], dtype=np.int64)


@pytest.fixture(scope="module")
def offline_results(stream_signal):
    """Offline references per (design, signal length), computed once."""
    cache = {}

    def lookup(design_name, length):
        key = (design_name, length)
        if key not in cache:
            design = DESIGNS[design_name]
            cache[key] = PanTompkinsPipeline(
                backends=design.backends()
            ).process(stream_signal[:length])
        return cache[key]

    return lookup


@pytest.mark.parametrize("split", sorted(SPLITS), ids=lambda s: s)
@pytest.mark.parametrize("design_name", sorted(DESIGNS), ids=lambda d: d)
def test_streaming_bit_identical_to_offline(
    stream_signal, offline_results, design_name, split
):
    plan, length = SPLITS[split]
    if design_name == "B10" and split not in ("uneven", "whole"):
        # B10 approximates every stage, making fine-grained splits pay the
        # approximate per-push overhead five times over.  Degenerate and
        # group-delay splits are covered by A2/B6 end to end and by the
        # per-stage tests with an all-approximate backend; B10 keeps the
        # uneven and whole-signal splits as the full-datapath check.
        pytest.skip("redundant with B6/A2 splits and per-stage approx tests")
    design = DESIGNS[design_name]
    reference = offline_results(design_name, length)
    pipeline = StreamingPipeline(backends=design.backends())
    for chunk in _chunks(stream_signal[:length], plan):
        pipeline.push(chunk)
    result = pipeline.finalize()
    for name, offline_output in reference.stage_outputs.items():
        assert np.array_equal(result.stage_outputs[name], offline_output), name
    assert result.detection.peak_indices == reference.detection.peak_indices
    assert result.detection.rejected_indices == reference.detection.rejected_indices
    assert result.detection.threshold_trace == reference.detection.threshold_trace
    assert result.heart_rate_bpm() == reference.heart_rate_bpm()


@pytest.fixture(scope="module")
def ten_second_record():
    return load_record("16265", duration_s=10.0)


@pytest.mark.parametrize("chunk_samples", [50, 200])
@pytest.mark.parametrize("design_name", sorted(DESIGNS), ids=lambda d: d)
def test_full_record_stream_matches_offline(
    ten_second_record, design_name, chunk_samples
):
    """The realistic case: a whole 10 s record replayed through a session
    in 250 ms or 1 s chunks."""
    record = ten_second_record
    design = DESIGNS[design_name]
    signal = np.asarray(record.samples, dtype=np.int64)
    reference = PanTompkinsPipeline(backends=design.backends()).process(signal)
    session = StreamSession(
        design=design,
        sample_rate_hz=record.sample_rate_hz,
        true_peaks=record.r_peak_indices,
    )
    for chunk in ReplaySource(record, chunk_samples=chunk_samples):
        session.push(chunk)
    result = session.finalize()
    assert session.beats == list(reference.detection.peak_indices)
    assert np.array_equal(result.preprocessed, reference.preprocessed)
    assert np.array_equal(result.integrated, reference.integrated)


def test_finalize_guards(stream_signal):
    pipeline = StreamingPipeline()
    with pytest.raises(ValueError):
        pipeline.finalize()
    pipeline.push(stream_signal)
    pipeline.finalize()
    with pytest.raises(RuntimeError):
        pipeline.push(stream_signal[:10])
    with pytest.raises(RuntimeError):
        pipeline.finalize()


class TestStageGraphWarmStart:
    """Streams share the offline executor's input-addressed stage nodes."""

    def test_stream_warm_starts_from_offline_nodes(self, short_record):
        from repro.core import StageGraphMemo

        design = paper_configuration("B6")
        signal = np.asarray(short_record.samples, dtype=np.int64)
        memo = StageGraphMemo()
        offline = PanTompkinsPipeline(backends=design.backends())
        reference = offline.process(signal, memo=memo)
        computes_before = memo.stats.total_computes
        pipeline = StreamingPipeline(backends=design.backends(), memo=memo)
        # Every node the offline run resolved serves the stream: all five
        # stages are warm, and they account as (warm) hits on the memo.
        assert pipeline.warm_start(signal) == 5
        assert memo.stats.total_warm_hits == 0  # offline memo computed them
        assert memo.stats.total_hits >= 5
        for lo in range(0, signal.size, 50):
            pipeline.push(signal[lo : lo + 50])
        result = pipeline.finalize()
        assert memo.stats.total_computes == computes_before
        assert result.detection.peak_indices == reference.detection.peak_indices
        assert np.array_equal(result.integrated, reference.integrated)

    def test_partial_warm_start_stays_bit_identical(self, short_record):
        from repro.core import StageGraphMemo

        signal = np.asarray(short_record.samples, dtype=np.int64)
        memo = StageGraphMemo()
        # Offline sweep of a design sharing only the low-pass budget: the
        # stream warm-starts its LPF node and streams everything downstream.
        PanTompkinsPipeline(
            backends=DesignPoint.from_lsbs({"lpf": 10, "hpf": 12}).backends()
        ).process(signal, memo=memo)
        design = DesignPoint.from_lsbs({"lpf": 10, "hpf": 8})
        reference = PanTompkinsPipeline(backends=design.backends()).process(
            signal
        )
        pipeline = StreamingPipeline(backends=design.backends(), memo=memo)
        assert pipeline.warm_start(signal) == 1
        for lo in range(0, signal.size, 37):
            pipeline.push(signal[lo : lo + 37])
        result = pipeline.finalize()
        assert result.detection.peak_indices == reference.detection.peak_indices
        for name in reference.stage_outputs:
            assert np.array_equal(
                result.stage_outputs[name], reference.stage_outputs[name]
            )

    def test_finalized_stream_publishes_nodes_for_later_runs(self, short_record):
        from repro.core import StageGraphMemo

        design = paper_configuration("B6")
        signal = np.asarray(short_record.samples, dtype=np.int64)
        memo = StageGraphMemo()
        pipeline = StreamingPipeline(backends=design.backends(), memo=memo)
        assert pipeline.warm_start(signal) == 0  # nothing to reuse yet
        for lo in range(0, signal.size, 50):
            pipeline.push(signal[lo : lo + 50])
        pipeline.finalize()
        # The published nodes feed a later offline run without any computes;
        # stream-published nodes classify as warm hits, like seeded ones.
        offline = PanTompkinsPipeline(backends=design.backends())
        offline.process(signal, memo=memo)
        assert memo.stats.total_computes == 0
        assert memo.stats.total_hits == 5
        assert memo.stats.total_warm_hits == 5

    def test_push_rejects_divergence_from_warm_start_samples(self, short_record):
        from repro.core import StageGraphMemo

        signal = np.asarray(short_record.samples, dtype=np.int64)
        memo = StageGraphMemo()
        PanTompkinsPipeline().process(signal, memo=memo)
        pipeline = StreamingPipeline(memo=memo)
        assert pipeline.warm_start(signal) == 5
        with pytest.raises(ValueError):
            pipeline.push(signal[:50] + 1)

    def test_warm_start_guards(self, stream_signal):
        from repro.core import StageGraphMemo

        with pytest.raises(RuntimeError):
            StreamingPipeline().warm_start(stream_signal)
        pipeline = StreamingPipeline(memo=StageGraphMemo())
        pipeline.push(stream_signal[:50])
        with pytest.raises(RuntimeError):
            pipeline.warm_start(stream_signal)

    def test_session_accepts_memo_and_warm_start(self, short_record):
        from repro.core import StageGraphMemo

        design = paper_configuration("B6")
        signal = np.asarray(short_record.samples, dtype=np.int64)
        memo = StageGraphMemo()
        PanTompkinsPipeline(backends=design.backends()).process(
            signal, memo=memo
        )
        session = StreamSession(
            design=design,
            sample_rate_hz=short_record.sample_rate_hz,
            true_peaks=short_record.r_peak_indices,
            memo=memo,
            warm_start_samples=signal,
        )
        assert session.warm_stage_count == 5
        for lo in range(0, signal.size, 50):
            session.push(signal[lo : lo + 50])
        result = session.finalize()
        reference = PanTompkinsPipeline(backends=design.backends()).process(
            signal
        )
        assert result.detection.peak_indices == reference.detection.peak_indices


def test_from_pipeline_wraps_an_existing_plan(stream_signal):
    offline = PanTompkinsPipeline(backends=DESIGNS["B6"].backends())
    reference = offline.process(stream_signal)
    pipeline = StreamingPipeline.from_pipeline(offline)
    for lo in range(0, stream_signal.size, 128):
        pipeline.push(stream_signal[lo : lo + 128])
    result = pipeline.finalize()
    assert result.detection.peak_indices == reference.detection.peak_indices


class TestReplaySource:
    def test_chunking_covers_the_record_exactly(self, short_record):
        source = ReplaySource(short_record, chunk_samples=77)
        chunks = list(source)
        assert len(chunks) == source.chunk_count
        assert sum(chunk.size for chunk in chunks) == short_record.samples.size
        assert np.array_equal(
            np.concatenate(chunks),
            np.asarray(short_record.samples, dtype=np.int64),
        )

    def test_max_samples_truncates(self, short_record):
        source = ReplaySource(short_record, chunk_samples=100, max_samples=250)
        assert sum(chunk.size for chunk in source) == 250

    def test_from_record_name_is_deterministic(self):
        first = ReplaySource.from_record_name("16265", duration_s=2.0)
        second = ReplaySource.from_record_name("16265", duration_s=2.0)
        assert np.array_equal(first.samples, second.samples)

    def test_parameter_validation(self, short_record):
        with pytest.raises(ValueError):
            ReplaySource(short_record, chunk_samples=0)
        with pytest.raises(ValueError):
            ReplaySource(short_record, realtime_factor=-1.0)


class TestStreamSession:
    def test_session_reports_quality_and_energy(self, short_record):
        design = paper_configuration("B6")
        session = StreamSession(
            design=design,
            sample_rate_hz=short_record.sample_rate_hz,
            true_peaks=short_record.r_peak_indices,
        )
        for chunk in ReplaySource(short_record, chunk_samples=100):
            report = session.push(chunk)
        result = session.finalize()

        assert report.total_samples == short_record.samples.size
        # The last live report may lag the final list: candidates within the
        # alignment horizon of the signal's end are only confirmed by the
        # finalize flush.
        assert report.beat_count <= len(result.detection.peak_indices)
        assert session.beats == list(result.detection.peak_indices)
        # Cumulative energy is samples x per-sample design energy.
        expected_fj = short_record.samples.size * design.energy_fj()
        assert report.energy["cumulative_fj"] == pytest.approx(expected_fj)
        assert report.energy["reduction_factor"] == pytest.approx(
            design.energy_reduction()
        )
        # All ground-truth beats have streamed past the detection horizon by
        # the end, so quality-so-far is populated and meaningful.
        assert report.quality is not None
        assert 0.0 <= report.quality["f1_score"] <= 1.0
        assert isinstance(report.processing_ms, float)

    def test_session_without_ground_truth_has_no_quality(self, short_record):
        session = StreamSession(sample_rate_hz=short_record.sample_rate_hz)
        report = session.push(np.asarray(short_record.samples, dtype=np.int64))
        assert report.quality is None
        assert report.energy["reduction_factor"] == pytest.approx(1.0)

    def test_chunk_reports_are_json_safe(self, short_record):
        import json

        session = StreamSession(
            sample_rate_hz=short_record.sample_rate_hz,
            true_peaks=short_record.r_peak_indices,
        )
        report = session.push(np.asarray(short_record.samples, dtype=np.int64))
        document = report.to_document()
        json.dumps(document)  # must not raise
        assert document["total_samples"] == short_record.samples.size
