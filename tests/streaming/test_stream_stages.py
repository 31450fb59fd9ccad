"""Per-stage chunked execution is bit-identical to offline execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arithmetic import ArithmeticBackend, accurate_backend
from repro.dsp.fir import run_stage
from repro.dsp.stages import pan_tompkins_stages
from repro.streaming import GrowableArray, StageStreamer, stage_carry_samples

STAGES = {stage.name: stage for stage in pan_tompkins_stages()}

APPROX = ArithmeticBackend(
    approx_lsbs=8, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
)


def _feed(streamer, signal, chunk_sizes):
    """Push ``signal`` through ``streamer`` split into ``chunk_sizes`` pieces."""
    outputs = []
    position = 0
    index = 0
    while position < signal.size:
        size = chunk_sizes[index % len(chunk_sizes)]
        outputs.append(streamer.push(signal[position : position + size]))
        position += size
        index += 1
    return np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.int64)


class TestGrowableArray:
    def test_append_and_views(self):
        buffer = GrowableArray(np.int64, initial_capacity=2)
        buffer.append(np.asarray([1, 2, 3]))
        buffer.append(np.asarray([4]))
        assert buffer.size == len(buffer) == 4
        assert buffer.view().tolist() == [1, 2, 3, 4]
        assert buffer.array().tolist() == [1, 2, 3, 4]

    def test_view_is_read_only_but_array_is_a_copy(self):
        buffer = GrowableArray()
        buffer.append(np.asarray([7, 8]))
        with pytest.raises(ValueError):
            buffer.view()[0] = 0
        copy = buffer.array()
        copy[0] = 99
        assert buffer.view()[0] == 7

    def test_empty_chunks_and_growth(self):
        buffer = GrowableArray(initial_capacity=1)
        buffer.append(np.zeros(0, dtype=np.int64))
        assert buffer.size == 0
        buffer.append(np.arange(1000))
        assert buffer.size == 1000
        assert np.array_equal(buffer.view(), np.arange(1000))

    def test_rejects_multidimensional_chunks(self):
        buffer = GrowableArray()
        with pytest.raises(ValueError):
            buffer.append(np.zeros((2, 2)))


class TestStageCarrySamples:
    def test_fir_carry_is_tap_count_minus_one(self):
        assert stage_carry_samples(STAGES["low_pass"]) == 10
        assert stage_carry_samples(STAGES["high_pass"]) == 31
        assert stage_carry_samples(STAGES["derivative"]) == 4

    def test_squarer_is_pointwise(self):
        assert stage_carry_samples(STAGES["squarer"]) == 0

    def test_mwi_carry_is_window_minus_one(self):
        assert stage_carry_samples(STAGES["moving_window_integral"]) == 29


#: Split plans with per-plan signal lengths: fine-grained splits use shorter
#: signals (each chunk re-runs the carried history, so size-1 feeding costs
#: one stage execution per sample) while still crossing every carry length
#: (HPF carry = 31 samples) many times over.
SPLIT_PLANS = {
    "size1": ([1], 150),  # one sample at a time
    "size5": ([5], 300),  # inside the LPF group delay
    "size16": ([16], 300),  # inside the HPF group delay
    "uneven": ([3, 11, 1, 29, 64], 600),  # straddles every carry length
    "whole": ([10_000], 600),  # one chunk == offline
}


@pytest.mark.parametrize("stage_name", sorted(STAGES))
@pytest.mark.parametrize("plan", sorted(SPLIT_PLANS), ids=lambda p: p)
@pytest.mark.parametrize(
    "backend",
    [accurate_backend(), APPROX],
    ids=["accurate", "approx8"],
)
def test_stage_streamer_bit_identical(short_record, stage_name, plan, backend):
    chunk_sizes, length = SPLIT_PLANS[plan]
    stage = STAGES[stage_name]
    if backend is APPROX:
        # Approximate ops pay a per-call bit-loop overhead, so chunked
        # feeding costs pushes x taps numpy micro-ops.  One full carry
        # warm-up plus 40 steady-state samples already exercises every
        # history-alignment boundary; longer signals only repeat it.
        length = min(length, stage_carry_samples(stage) + 40)
    signal = np.asarray(short_record.samples[:length], dtype=np.int64)
    reference = run_stage(signal, stage, backend)
    streamer = StageStreamer(stage, backend)
    chunked = _feed(streamer, signal, chunk_sizes)
    assert np.array_equal(chunked, reference)


def test_empty_chunks_are_no_ops(short_record):
    stage = STAGES["low_pass"]
    signal = np.asarray(short_record.samples[:100], dtype=np.int64)
    streamer = StageStreamer(stage)
    parts = [
        streamer.push(np.zeros(0, dtype=np.int64)),
        streamer.push(signal[:60]),
        streamer.push(np.zeros(0, dtype=np.int64)),
        streamer.push(signal[60:]),
    ]
    assert np.array_equal(
        np.concatenate(parts), run_stage(signal, stage, accurate_backend())
    )


def test_rejects_multidimensional_chunks():
    streamer = StageStreamer(STAGES["squarer"])
    with pytest.raises(ValueError):
        streamer.push(np.zeros((3, 2), dtype=np.int64))
