"""Stable content fingerprints (cache keys) of designs and workloads."""

from __future__ import annotations

import pytest

from repro.core import DesignPoint
from repro.core.fingerprint import (
    design_point_key,
    evaluation_cache_key,
    record_fingerprint,
    workload_fingerprint,
)
from repro.dsp.detection import PeakDetectionConfig
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

    def test_evaluation_parameters_matter(self, short_record):
        base = workload_fingerprint([short_record])
        assert base != workload_fingerprint([short_record],
                                            peak_tolerance_samples=20)
        assert base != workload_fingerprint(
            [short_record], detection_config=PeakDetectionConfig(
                refractory_samples=50)
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
        first = ExplorationRuntime([short_record], executor="serial",
                                   cache=shared)
        design = DesignPoint.from_lsbs({"lpf": 4}, name="x")
        first.evaluate(design)
        assert first.evaluation_count == 1

        second = ExplorationRuntime([short_record], executor="serial",
                                    cache=shared)
        result = second.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="y"))
        assert second.evaluation_count == 0  # served from the shared cache
        assert result.psnr_db == first.evaluate(design).psnr_db

    def test_different_record_sets_never_share_entries(self, short_record,
                                                       second_record):
        shared = MemoryResultCache()
        one = ExplorationRuntime([short_record], executor="serial",
                                 cache=shared)
        two = ExplorationRuntime([second_record], executor="serial",
                                 cache=shared)
        design = DesignPoint.from_lsbs({"lpf": 4})
        one.evaluate(design)
        two.evaluate(design)
        # Both evaluators computed their own result: the keys differ.
        assert one.evaluation_count == 1
        assert two.evaluation_count == 1
        assert len(shared) == 2
