"""Stable content fingerprints (cache keys) of designs and workloads."""

from __future__ import annotations

import hashlib
import json

import pytest

import repro
import repro.core.fingerprint as fingerprint
from repro.arithmetic.library import ArithmeticBackend, accurate_backend
from repro.core import DesignPoint
from repro.core.fingerprint import (
    BACKEND_FINGERPRINT_ENTRIES,
    backend_fingerprint,
    design_point_key,
    evaluation_cache_key,
    record_fingerprint,
    stage_fingerprint,
    stage_node_key,
    workload_fingerprint,
)
from repro.dsp.stages import STAGE_DERIVATIVE, STAGE_LPF, STAGE_MWI, STAGE_SQUARER
from repro.runtime import ExplorationRuntime, MemoryResultCache
from repro.signals import load_record


class TestDesignPointKey:
    def test_labels_do_not_affect_the_key(self):
        a = DesignPoint.from_lsbs({"lpf": 10, "hpf": 8}, name="B1")
        b = DesignPoint.from_lsbs({"lpf": 10, "hpf": 8}, name="candidate",
                                  description="same settings, other label")
        assert design_point_key(a) == design_point_key(b)

    def test_stage_order_does_not_affect_the_key(self):
        a = DesignPoint.from_lsbs({"lpf": 10, "hpf": 8})
        b = DesignPoint.from_lsbs({"hpf": 8, "lpf": 10})
        assert design_point_key(a) == design_point_key(b)

    def test_settings_do_affect_the_key(self):
        base = DesignPoint.from_lsbs({"lpf": 10})
        assert design_point_key(base) != design_point_key(
            DesignPoint.from_lsbs({"lpf": 12})
        )
        assert design_point_key(base) != design_point_key(
            DesignPoint.from_lsbs({"lpf": 10}, adder="ApproxAdd1")
        )

    def test_accurate_designs_share_one_key(self):
        assert design_point_key(DesignPoint.accurate()) == design_point_key(
            DesignPoint(stages=(), name="anything")
        )


class TestWorkloadFingerprint:
    def test_record_content_matters(self):
        short = load_record("16265", duration_s=4.0)
        longer = load_record("16265", duration_s=6.0)
        other = load_record("16272", duration_s=4.0)
        assert record_fingerprint(short) != record_fingerprint(longer)
        assert workload_fingerprint([short]) != workload_fingerprint([longer])
        assert workload_fingerprint([short]) != workload_fingerprint([other])

    def test_record_order_is_irrelevant(self, short_record, second_record):
        assert workload_fingerprint([short_record, second_record]) == (
            workload_fingerprint([second_record, short_record])
        )

    def test_deterministic_across_calls(self, short_record):
        assert workload_fingerprint([short_record]) == workload_fingerprint(
            [load_record("16265", duration_s=8.0)]
        )


class TestEvaluationCacheKey:
    def test_combines_design_and_workload(self, short_record, second_record):
        design = DesignPoint.from_lsbs({"lpf": 4})
        w1 = workload_fingerprint([short_record])
        w2 = workload_fingerprint([second_record])
        assert evaluation_cache_key(design, w1) != evaluation_cache_key(design, w2)
        assert evaluation_cache_key(design, w1) == evaluation_cache_key(
            DesignPoint.from_lsbs({"lpf": 4}, name="other"), w1
        )


class TestEvaluatorCachePortability:
    def test_shared_cache_between_evaluator_instances(self, short_record):
        shared = MemoryResultCache()
        first = ExplorationRuntime([short_record], cache=shared)
        design = DesignPoint.from_lsbs({"lpf": 4}, name="x")
        first.evaluate(design)
        assert first.evaluation_count == 1

        second = ExplorationRuntime([short_record], cache=shared)
        result = second.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="y"))
        assert second.evaluation_count == 0  # served from the shared cache
        assert result.psnr_db == first.evaluate(design).psnr_db

    def test_different_record_sets_never_share_entries(self, short_record,
                                                       second_record):
        shared = MemoryResultCache()
        one = ExplorationRuntime([short_record], cache=shared)
        two = ExplorationRuntime([second_record], cache=shared)
        design = DesignPoint.from_lsbs({"lpf": 4})
        one.evaluate(design)
        two.evaluate(design)
        # Both evaluators computed their own result: the keys differ.
        assert one.evaluation_count == 1
        assert two.evaluation_count == 1
        assert len(shared) == 2


def _sha256_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestStageKeySchema:
    """Memoised fingerprints keep the payloads that signal stores are keyed by."""

    STAGE_PAYLOADS = [
        (STAGE_DERIVATIVE, {
            "name": "derivative", "kind": "fir",
            "coefficients": [0.25, 0.125, 0.0, -0.125, -0.25],
            "coefficient_frac_bits": 3, "output_shift": 3, "window": 0,
        }),
        (STAGE_SQUARER, {
            "name": "squarer", "kind": "squarer", "coefficients": [],
            "coefficient_frac_bits": 0, "output_shift": 12, "window": 0,
        }),
        (STAGE_MWI, {
            "name": "moving_window_integral", "kind": "mwi", "coefficients": [],
            "coefficient_frac_bits": 0, "output_shift": 5, "window": 30,
        }),
        (STAGE_LPF, {
            "name": "low_pass", "kind": "fir",
            "coefficients": list(STAGE_LPF.coefficients),
            "coefficient_frac_bits": STAGE_LPF.coefficient_frac_bits,
            "output_shift": STAGE_LPF.output_shift, "window": 0,
        }),
    ]
    BACKEND_PAYLOADS = [
        (accurate_backend(),
         {"accurate": True, "adder_width": 32, "multiplier_width": 16}),
        # Exact cells compute bit-exactly: the accurate payload again.
        (ArithmeticBackend(6, "Accurate", "AccMult"),
         {"accurate": True, "adder_width": 32, "multiplier_width": 16}),
        (ArithmeticBackend(8, "ApproxAdd5", "AppMultV1"),
         {"approx_lsbs": 8, "adder": "ApproxAdd5", "multiplier": "AppMultV1",
          "adder_width": 32, "multiplier_width": 16}),
        (ArithmeticBackend(3, "approxadd2", "AppMultV2"),
         {"approx_lsbs": 3, "adder": "ApproxAdd2", "multiplier": "AppMultV2",
          "adder_width": 32, "multiplier_width": 16}),
    ]

    def test_first_call_and_memo_hit_equal_the_payload_digest(self):
        stage_fingerprint.cache_clear()
        fingerprint._backend_digest.cache_clear()
        input_hash = "ab" * 32
        for stage, stage_payload in self.STAGE_PAYLOADS:
            for backend, backend_payload in self.BACKEND_PAYLOADS:
                node_payload = {
                    "schema": "input-addressed-v2",
                    "library": repro.__version__,
                    "input": input_hash,
                    "stage": _sha256_of(stage_payload),
                    "backend": _sha256_of(backend_payload),
                }
                for _ in range(2):  # a miss, then a memo hit
                    assert stage_fingerprint(stage) == _sha256_of(stage_payload)
                    assert backend_fingerprint(backend) == _sha256_of(
                        backend_payload
                    )
                    assert stage_node_key(input_hash, stage, backend) == (
                        _sha256_of(node_payload)
                    )
        assert stage_fingerprint.cache_info().hits > 0
        assert fingerprint._backend_digest.cache_info().hits > 0

    def test_backend_memo_has_a_fixed_size(self):
        fingerprint._backend_digest.cache_clear()
        assert (
            fingerprint._backend_digest.cache_info().maxsize
            == BACKEND_FINGERPRINT_ENTRIES
        )
        # Request LSB counts are unbounded; the memo is not.
        for lsbs in range(1, 2 * BACKEND_FINGERPRINT_ENTRIES + 1):
            backend_fingerprint(ArithmeticBackend(lsbs, "ApproxAdd5", "AppMultV1"))
        info = fingerprint._backend_digest.cache_info()
        assert info.currsize == BACKEND_FINGERPRINT_ENTRIES
        assert info.misses == 2 * BACKEND_FINGERPRINT_ENTRIES
