"""Pipeline-level bit-identity: compiled LUT engine vs the vectorised engine.

The word-level backends route every add/multiply through the compiled LUT
engine; these tests run the *whole* Pan-Tompkins pipeline — offline and
streaming, across the paper's Fig. 12 design set — against a legacy backend
that still uses the per-bit vectorised engine (including the historical
``full_like`` constant-multiply spelling), and assert every stage output and
every detected beat is identical.
"""

import sys

import numpy as np
import pytest

from repro.arithmetic import (
    ArithmeticBackend,
    registry_info,
    vector_add,
    vector_multiply,
    vector_subtract,
    vectorized,
)
from repro.arithmetic.compiled import _REGISTRY
from repro.core.configurations import PAPER_CONFIGURATIONS
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.signals import load_record
from repro.streaming import StreamingPipeline


class LegacyVectorizedBackend(ArithmeticBackend):
    """Word-level backend pinned to the pre-compiled-engine execution path."""

    def add(self, a, b):
        return vector_add(a, b, self.adder_width, self.approx_lsbs, self.resolved_adder)

    def subtract(self, a, b):
        return vector_subtract(
            a, b, self.adder_width, self.approx_lsbs, self.resolved_adder
        )

    def multiply(self, a, b):
        return vector_multiply(
            a,
            b,
            self.multiplier_width,
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


def _legacy_backends(design):
    return {
        stage: LegacyVectorizedBackend(
            approx_lsbs=backend.approx_lsbs,
            adder_cell=backend.resolved_adder,
            multiplier_cell=backend.resolved_multiplier,
            adder_width=backend.adder_width,
            multiplier_width=backend.multiplier_width,
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
    legacy_result = PanTompkinsPipeline(backends=_legacy_backends(design)).process(
        record.samples
    )
    _assert_results_identical(compiled_result, legacy_result)


def test_legacy_backend_survives_datapath_translation():
    """``with_approx_lsbs`` must preserve the subclass (type(self) dispatch)."""
    backend = LegacyVectorizedBackend(
        approx_lsbs=8, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
    )
    translated = backend.with_approx_lsbs(12)
    assert isinstance(translated, LegacyVectorizedBackend)
    assert translated.approx_lsbs == 12


@pytest.mark.parametrize("config_name", ["B9", "B14"])
@pytest.mark.parametrize("chunk_size", [1, 37, 256])
def test_streaming_chunks_match_legacy_offline(config_name, chunk_size, record):
    """Chunked streaming through the compiled engine reproduces the legacy
    offline pipeline bit-for-bit for any chunk split."""
    design = PAPER_CONFIGURATIONS[config_name]
    legacy_result = PanTompkinsPipeline(backends=_legacy_backends(design)).process(
        record.samples
    )

    streamer = StreamingPipeline(backends=design.backends())
    for start in range(0, record.samples.size, chunk_size):
        streamer.push(record.samples[start : start + chunk_size])
    streamed_result = streamer.finalize()
    _assert_results_identical(legacy_result, streamed_result)


def _vectorized_calls_and_builds(pipeline, samples):
    """Python calls into ``arithmetic/vectorized.py`` and LUT builds of a run."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == vectorized.__file__:
            calls += 1

    builds_before = registry_info()["builds"]
    sys.setprofile(profile)
    try:
        pipeline.process(samples)
    finally:
        sys.setprofile(None)
    return calls, registry_info()["builds"] - builds_before


def test_warm_approximate_run_never_reaches_the_per_bit_engine():
    """Once its tables are built, a memo-less B9 run is table gathers only.

    The cold run first shows the probe sees the per-bit engine: the table
    builders call into it.
    """
    samples = load_record("16265", duration_s=10.0).samples
    pipeline = PanTompkinsPipeline(
        backends=PAPER_CONFIGURATIONS["B9"].backends()
    )
    _REGISTRY.clear()
    cold_calls, cold_builds = _vectorized_calls_and_builds(pipeline, samples)
    assert cold_calls > 0
    assert cold_builds == 38
    assert _vectorized_calls_and_builds(pipeline, samples) == (0, 0)
