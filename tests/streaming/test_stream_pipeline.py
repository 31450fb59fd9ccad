"""Full streaming pipeline + session: bit-identity and live telemetry.

The tentpole acceptance test lives here: for every tested chunk split and
backend (accurate and approximate), the chunked `StreamingPipeline` produces
stage outputs, detected beats and quality metrics bit-identical to the
offline `PanTompkinsPipeline.process()` on the concatenated signal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import compiled, registry_info
from repro.core.configurations import DesignPoint, paper_configuration
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.metrics.peaks import PEAK_TOLERANCE_SAMPLES, match_peaks
from repro.signals import load_record
from repro.streaming import ReplaySource, StreamSession, StreamingPipeline
from repro.streaming import session as session_module

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


@pytest.mark.parametrize("length", [1, 5, 30, 31])
@pytest.mark.parametrize(
    "design", [DesignPoint.accurate(), paper_configuration("B9")], ids=["A2", "B9"]
)
def test_records_shorter_than_the_filters_match_offline(stream_signal, design, length):
    """Below the 32-tap HPF's length every delayed tap is history, which the
    offline stages must zero-pad to the signal's length, as streaming does."""
    signal = stream_signal[:length]
    reference = PanTompkinsPipeline(backends=design.backends()).process(signal)
    pipeline = StreamingPipeline(backends=design.backends())
    pipeline.push(signal)
    result = pipeline.finalize()
    for name, offline_output in reference.stage_outputs.items():
        assert offline_output.shape == (length,), name
        assert np.array_equal(result.stage_outputs[name], offline_output), name
    assert result.detection.peak_indices == reference.detection.peak_indices


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


#: The Fig. 12 designs: the accurate A2 and the approximate B1..B14.
FIG12 = ("A2",) + tuple(f"B{index}" for index in range(1, 15))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    design_name=st.sampled_from(FIG12),
    sizes=st.lists(st.integers(25, 250), min_size=1, max_size=6),
)
def test_every_fig12_design_streams_bit_identical_at_any_split(
    stream_signal, design_name, sizes
):
    """The grid above splits three designs finely; here every Fig. 12 design
    may be drawn, with a random split.  Chunks are at least 25 samples long,
    which bounds the per-push cost of the all-approximate designs."""
    backends = paper_configuration(design_name).backends()
    reference = PanTompkinsPipeline(backends=backends).process(stream_signal)
    pipeline = StreamingPipeline(backends=backends)
    for chunk in _chunks(stream_signal, sizes):
        pipeline.push(chunk)
    result = pipeline.finalize()
    assert list(result.stage_outputs) == list(reference.stage_outputs)
    for name, expected in reference.stage_outputs.items():
        assert result.stage_outputs[name].dtype == expected.dtype, name
        assert np.array_equal(result.stage_outputs[name], expected), name
    assert result.detection.peak_indices == reference.detection.peak_indices


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


#: The library entry points that take raw ADC samples.
ENTRY_POINTS = {
    "process": lambda samples: PanTompkinsPipeline().process(samples),
    "push": lambda samples: StreamingPipeline().push(samples),
    "session": lambda samples: StreamSession().push(samples),
}

#: Input that is not 16-bit ADC codes, with the first offending index.
NOT_ADC_CODES = {
    "float": (np.array([1.7, 2.9, 1e12]), 0),
    "bool": (np.array([True, False, True]), 0),
    "above": (np.array([0, 7, 32768]), 2),
    "below": (np.array([12, -32769, 0]), 1),
}


@pytest.mark.parametrize("bad", sorted(NOT_ADC_CODES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_samples_that_are_not_adc_codes(entry, bad):
    samples, index = NOT_ADC_CODES[bad]
    pattern = rf"^samples\[{index}\] must be an ADC code"
    with pytest.raises(ValueError, match=pattern) as info:
        ENTRY_POINTS[entry](samples)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_the_full_adc_range(entry):
    ENTRY_POINTS[entry](np.array([-32768, 32767] * 20, dtype=np.int16))


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

    def test_quality_is_rescored_only_when_its_inputs_change(self, monkeypatch):
        """A 60 s B10 session, 50-sample pushes: every report equals scoring
        from scratch, and only pushes that change the scored ground truth
        or the beat list run the matcher."""
        record = load_record("16265", duration_s=60.0)
        truth = record.r_peak_indices
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return match_peaks(*args, **kwargs)

        monkeypatch.setattr(session_module, "match_peaks", counted)
        session = StreamSession(
            design=paper_configuration("B10"),
            sample_rate_hz=record.sample_rate_hz,
            true_peaks=truth,
        )
        delay = session.group_delay_samples
        scored_pushes, changed, previous = 0, 0, None
        for start in range(0, record.samples.size, 50):
            report = session.push(record.samples[start : start + 50])
            scored = truth[truth <= report.total_samples - delay - PEAK_TOLERANCE_SAMPLES]
            if scored.size == 0:
                assert report.quality is None
                continue
            match = match_peaks(
                scored,
                session.beats,
                tolerance_samples=PEAK_TOLERANCE_SAMPLES,
                expected_delay_samples=delay,
            )
            assert report.quality == {
                "scored_true_peaks": float(scored.size),
                "sensitivity": match.sensitivity,
                "positive_predictivity": match.positive_predictivity,
                "f1_score": match.f1_score,
            }
            inputs = (scored.size, list(session.beats))
            scored_pushes += 1
            changed += inputs != previous
            previous = inputs
        assert len(calls) == changed < scored_pushes

    def test_a_b10_session_builds_its_tables_once(self):
        """The edge path's table counts, from an empty registry.

        A B10 session of 50-sample pushes over 4 s of record 16265 builds
        41 tables of 19,660,800 bytes (the same as over 60 s); a second
        session builds none.
        """
        record = load_record("16265", duration_s=4.0)
        compiled._REGISTRY.clear()
        for tables, table_bytes in ((41, 19_660_800), (0, 0)):
            before = registry_info()
            session = StreamSession(
                design=paper_configuration("B10"),
                sample_rate_hz=record.sample_rate_hz,
            )
            for start in range(0, record.samples.size, 50):
                session.push(record.samples[start : start + 50])
            session.finalize()
            after = registry_info()
            assert (
                after["builds"] - before["builds"],
                after["bytes"] - before["bytes"],
            ) == (tables, table_bytes)
