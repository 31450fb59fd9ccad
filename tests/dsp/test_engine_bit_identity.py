"""Pipeline-level bit-identity: the compiled LUT engine vs the per-bit oracle.

The word-level backends route every add/multiply through the compiled LUT
engine, the one engine in the package; these tests run the *whole*
Pan-Tompkins pipeline — offline and streaming, across the paper's Fig. 12
design set and across drawn designs over every cell pairing — against a
backend on the per-bit oracle of ``per_bit_engine`` (including the
historical ``full_like`` constant-multiply spelling), and assert every stage
output and every detected beat is identical.  Single FIR and MWI stages
also run on signals shorter than their tap line.
"""

import sys

import numpy as np
import per_bit_engine
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_bit_engine import vector_add, vector_multiply, vector_subtract

from repro.arithmetic import (
    ADDER_CELLS,
    ADDER_WIDTH_BITS,
    MULTIPLIER_CELLS,
    MULTIPLIER_WIDTH_BITS,
    ArithmeticBackend,
    accurate_backend,
    registry_info,
)
from repro.arithmetic.compiled import _REGISTRY
from repro.core.configurations import PAPER_CONFIGURATIONS, DesignPoint
from repro.dsp.fir import fir_filter, moving_window_integral
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import (
    STAGE_DERIVATIVE,
    STAGE_HPF,
    STAGE_LPF,
    STAGE_MWI,
    STAGE_NAMES,
)
from repro.signals import load_record
from repro.streaming import StreamingPipeline

#: Every (multiplier, adder) cell pairing of the library: 3 x 6 = 18.
CELL_PAIRINGS = tuple(
    (multiplier, adder)
    for multiplier in sorted(MULTIPLIER_CELLS)
    for adder in sorted(ADDER_CELLS)
)


class OracleBackend(ArithmeticBackend):
    """Word-level backend on the per-bit oracle instead of the tables."""

    def add(self, a, b):
        return vector_add(a, b, ADDER_WIDTH_BITS, self.approx_lsbs, self.resolved_adder)

    def subtract(self, a, b):
        return vector_subtract(
            a, b, ADDER_WIDTH_BITS, self.approx_lsbs, self.resolved_adder
        )

    def multiply(self, a, b):
        return vector_multiply(
            a,
            b,
            MULTIPLIER_WIDTH_BITS,
            self.approx_lsbs,
            self.resolved_multiplier,
            self.resolved_adder,
        )

    def multiply_constant(self, a, constant):
        # The historical FIR spelling: materialise the coefficient array.
        a = np.asarray(a, dtype=np.int64)
        return self.multiply(a, np.full_like(a, constant))

    def square(self, a):
        return self.multiply(a, a)


def _oracle_backends(design):
    return {
        stage: OracleBackend(
            approx_lsbs=backend.approx_lsbs,
            adder_cell=backend.resolved_adder,
            multiplier_cell=backend.resolved_multiplier,
        )
        for stage, backend in design.backends().items()
    }


@pytest.fixture(scope="module")
def record():
    return load_record("16265", duration_s=6.0)


def _assert_results_identical(result_a, result_b):
    assert set(result_a.stage_outputs) == set(result_b.stage_outputs)
    for name, signal in result_a.stage_outputs.items():
        assert np.array_equal(signal, result_b.stage_outputs[name]), name
    assert np.array_equal(result_a.peak_indices, result_b.peak_indices)


@pytest.mark.parametrize("config_name", sorted(PAPER_CONFIGURATIONS))
def test_fig12_designs_bit_identical_across_engines(config_name, record):
    design = PAPER_CONFIGURATIONS[config_name]
    compiled_result = PanTompkinsPipeline(backends=design.backends()).process(
        record.samples
    )
    oracle_result = PanTompkinsPipeline(backends=_oracle_backends(design)).process(
        record.samples
    )
    _assert_results_identical(compiled_result, oracle_result)


def test_oracle_backend_survives_datapath_translation():
    """``with_approx_lsbs`` must preserve the subclass (type(self) dispatch)."""
    backend = OracleBackend(
        approx_lsbs=8, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
    )
    translated = backend.with_approx_lsbs(12)
    assert isinstance(translated, OracleBackend)
    assert translated.approx_lsbs == 12


@pytest.mark.parametrize("design_name", ["accurate", "B10"])
@pytest.mark.parametrize(
    "stage", [STAGE_LPF, STAGE_HPF, STAGE_DERIVATIVE, STAGE_MWI], ids=lambda s: s.name
)
def test_signals_shorter_than_the_tap_line_match_the_oracle(design_name, stage):
    """1 to taps + 1 samples: the delays past the last sample read only the
    zero padding of the tap line."""
    if design_name == "accurate":
        backend = accurate_backend()
    else:
        backend = PAPER_CONFIGURATIONS[design_name].backends()[stage.name]
        # run_stage's translation of output LSBs into datapath LSBs.
        backend = backend.with_approx_lsbs(stage.datapath_lsbs(backend.approx_lsbs))
    oracle = OracleBackend(
        approx_lsbs=backend.approx_lsbs,
        adder_cell=backend.resolved_adder,
        multiplier_cell=backend.resolved_multiplier,
    )
    if stage.kind == "fir":
        taps = stage.quantized_coefficients()

        def run(signal, on):
            return fir_filter(signal, taps, on, stage.output_shift)

    else:
        taps = np.ones(stage.window, dtype=np.int64)

        def run(signal, on):
            return moving_window_integral(signal, stage.window, on, stage.output_shift)

    samples = np.random.default_rng(taps.size).integers(
        -(2**15), 2**15, size=taps.size + 1
    )
    for size in range(1, taps.size + 2):
        signal = samples[:size]
        result = run(signal, backend)
        assert result.shape == (size,)
        assert np.array_equal(result, run(signal, oracle)), size
        if design_name == "accurate":
            # Independent of the tap line: the exact convolution's prefix.
            exact = np.convolve(signal, taps)[:size] >> stage.output_shift
            assert np.array_equal(result, np.clip(exact, -(2**15), 2**15 - 1)), size


@pytest.mark.parametrize("config_name", ["B9", "B14"])
@pytest.mark.parametrize("chunk_size", [1, 37, 256])
def test_streaming_chunks_match_oracle_offline(config_name, chunk_size, record):
    """Chunked streaming through the compiled engine reproduces the oracle's
    offline pipeline bit-for-bit for any chunk split."""
    design = PAPER_CONFIGURATIONS[config_name]
    oracle_result = PanTompkinsPipeline(backends=_oracle_backends(design)).process(
        record.samples
    )

    streamer = StreamingPipeline(backends=design.backends())
    for start in range(0, record.samples.size, chunk_size):
        streamer.push(record.samples[start : start + chunk_size])
    streamed_result = streamer.finalize()
    _assert_results_identical(oracle_result, streamed_result)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    lsbs=st.fixed_dictionaries({name: st.integers(0, 16) for name in STAGE_NAMES}),
    pairing=st.sampled_from(CELL_PAIRINGS),
    data=st.data(),
)
def test_drawn_designs_over_every_cell_pairing_match_the_oracle(
    record, lsbs, pairing, data
):
    """Any per-stage LSB counts with any cell pairing, offline and streamed.

    The Fig. 12 designs all use ApproxAdd5/AppMultV1; drawn designs reach
    the other 17 pairings and LSB counts no paper configuration sets.
    """
    multiplier, adder = pairing
    design = DesignPoint.from_lsbs(lsbs, adder=adder, multiplier=multiplier)
    split = data.draw(st.integers(0, record.samples.size), label="split")
    try:
        oracle_result = PanTompkinsPipeline(
            backends=_oracle_backends(design)
        ).process(record.samples)
        compiled_result = PanTompkinsPipeline(backends=design.backends()).process(
            record.samples
        )
        _assert_results_identical(compiled_result, oracle_result)

        streamer = StreamingPipeline(backends=design.backends())
        streamer.push(record.samples[:split])
        streamer.push(record.samples[split:])
        _assert_results_identical(streamer.finalize(), oracle_result)
    finally:
        # Each drawn design compiles ~20 MB of tables no other test reads.
        _REGISTRY.clear()


def _oracle_calls_and_builds(run):
    """Python calls into ``per_bit_engine`` and LUT builds while ``run()``."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == per_bit_engine.__file__:
            calls += 1

    builds_before = registry_info()["builds"]
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, registry_info()["builds"] - builds_before


def test_approximate_runs_never_reach_the_per_bit_engine():
    """A memo-less B9 run is compiled tables only, cold or warm.

    The probe first shows it sees the oracle: one deliberate call counts
    once.  The cold run then builds its 40 tables without a call into the
    per-bit engine, and the warm run builds nothing.
    """
    one = np.ones(4, dtype=np.int64)
    assert _oracle_calls_and_builds(
        lambda: vector_add(one, one, ADDER_WIDTH_BITS, 0, ADDER_CELLS["Accurate"])
    ) == (1, 0)

    samples = load_record("16265", duration_s=10.0).samples
    pipeline = PanTompkinsPipeline(
        backends=PAPER_CONFIGURATIONS["B9"].backends()
    )
    _REGISTRY.clear()
    for expected in ((0, 40), (0, 0)):
        assert _oracle_calls_and_builds(
            lambda: pipeline.process(samples)
        ) == expected
