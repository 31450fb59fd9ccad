"""Unit tests for the two-stage quality evaluation machinery."""

import pytest

from repro.core.configurations import DesignPoint
from repro.core.quality import (
    FULL_ACCURACY_CONSTRAINT,
    PREPROCESSING_PSNR_CONSTRAINT,
    QualityConstraint,
)
from repro.runtime import ExplorationRuntime


class TestQualityConstraint:
    def test_paper_constants(self):
        assert PREPROCESSING_PSNR_CONSTRAINT.metric == "psnr"
        assert PREPROCESSING_PSNR_CONSTRAINT.threshold == 15.0
        assert FULL_ACCURACY_CONSTRAINT.metric == "peak_accuracy"
        assert FULL_ACCURACY_CONSTRAINT.threshold == 1.0

    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            QualityConstraint("latency", 1.0)

    def test_satisfied_by(self, evaluator):
        evaluation = evaluator.evaluate(DesignPoint.accurate())
        assert QualityConstraint("peak_accuracy", 1.0).satisfied_by(evaluation)
        assert QualityConstraint("psnr", 15.0).satisfied_by(evaluation)
        assert not QualityConstraint("psnr", 1000.0).satisfied_by(evaluation)

    def test_str(self):
        assert "psnr" in str(PREPROCESSING_PSNR_CONSTRAINT)


class TestEvaluator:
    def test_accurate_design_has_perfect_quality(self, evaluator):
        evaluation = evaluator.evaluate(DesignPoint.accurate())
        assert evaluation.peak_accuracy == 1.0
        assert evaluation.ssim_value == pytest.approx(1.0)
        assert evaluation.energy_reduction == pytest.approx(1.0)
        assert evaluation.detects_all_peaks

    def test_mild_approximation_keeps_quality_and_saves_energy(self, evaluator):
        design = DesignPoint.from_lsbs({"lpf": 4, "hpf": 4}, name="mild")
        evaluation = evaluator.evaluate(design)
        assert evaluation.peak_accuracy == 1.0
        assert evaluation.energy_reduction > 1.5
        assert evaluation.psnr_db < 120.0

    def test_extreme_approximation_fails_quality(self, evaluator):
        design = DesignPoint.from_lsbs({"lpf": 16, "hpf": 16}, name="extreme")
        evaluation = evaluator.evaluate(design)
        assert evaluation.peak_accuracy < 1.0
        assert evaluation.ssim_value < 0.5

    def test_quality_monotone_in_lsbs(self, evaluator):
        psnrs = [
            evaluator.evaluate(DesignPoint.from_lsbs({"hpf": k}, name=f"h{k}")).psnr_db
            for k in (2, 8, 14)
        ]
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_evaluation_counter_and_cache(self, short_record):
        local = ExplorationRuntime([short_record])
        design = DesignPoint.from_lsbs({"lpf": 4}, name="cached")
        assert local.evaluation_count == 0
        local.evaluate(design)
        local.evaluate(design)  # cached: no extra evaluation
        assert local.evaluation_count == 1

    def test_metric_accessor(self, evaluator):
        evaluation = evaluator.evaluate(DesignPoint.accurate())
        assert evaluation.metric("psnr") == evaluation.psnr_db
        assert evaluation.metric("ssim") == evaluation.ssim_value
        assert evaluation.metric("peak_accuracy") == evaluation.peak_accuracy
        with pytest.raises(KeyError):
            evaluation.metric("area")

    def test_multiple_records_aggregation(self, two_record_evaluator):
        evaluation = two_record_evaluator.evaluate(DesignPoint.accurate())
        assert len(evaluation.per_record_accuracy) == 2
        assert evaluation.true_peaks > 10

    def test_summary_line(self, evaluator):
        evaluation = evaluator.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="S"))
        text = evaluation.summary()
        assert "PSNR" in text and "energy" in text

    def test_requires_at_least_one_record(self):
        with pytest.raises(ValueError):
            ExplorationRuntime([])

    def test_evaluate_many(self, evaluator):
        designs = [DesignPoint.from_lsbs({"lpf": k}, name=f"m{k}") for k in (2, 4)]
        evaluations = evaluator.evaluate_many(designs)
        assert len(evaluations) == 2
