"""Tests for the design-space baselines, Algorithm 1 and exploration time."""

import pytest

from repro.core.design_generation import generate_design
from repro.core.design_space import (
    DesignSpace,
    exhaustive_search,
    full_design_space,
    heuristic_search,
    preprocessing_design_space,
    signal_processing_design_space,
)
from repro.core.exploration_time import (
    ExplorationCostModel,
    compare_strategies,
    estimate_exploration,
)
from repro.core.quality import FULL_ACCURACY_CONSTRAINT, QualityConstraint
from repro.core.resilience import analyze_stage_resilience


class TestDesignSpace:
    def test_preprocessing_space_is_the_9x9_grid(self):
        space = preprocessing_design_space()
        assert space.size() == 81  # 9 LPF x 9 HPF options, one cell pair

    def test_signal_processing_space_is_135_designs(self):
        space = signal_processing_design_space()
        assert space.size() == 3 * 5 * 9  # der x sqr x mwi option counts

    def test_full_space_is_astronomically_larger(self):
        assert full_design_space().size() > 10**9

    def test_designs_generator_yields_size_points(self):
        space = DesignSpace(stage_lsb_options={"lpf": (0, 2), "hpf": (0, 4)})
        designs = list(space.designs())
        assert len(designs) == space.size() == 4

    def test_per_stage_cells_multiply_cardinality(self):
        shared = DesignSpace(
            stage_lsb_options={"lpf": (0, 2), "hpf": (0, 2)},
            adders=("ApproxAdd4", "ApproxAdd5"),
            shared_cells=True,
        )
        independent = DesignSpace(
            stage_lsb_options={"lpf": (0, 2), "hpf": (0, 2)},
            adders=("ApproxAdd4", "ApproxAdd5"),
            shared_cells=False,
        )
        assert independent.size() > shared.size()

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(stage_lsb_options={})
        with pytest.raises(ValueError):
            DesignSpace(stage_lsb_options={"lpf": ()})


class TestBaselineSearches:
    def test_exhaustive_search_respects_limit(self, evaluator):
        space = preprocessing_design_space(lsb_step=8)
        evaluations = exhaustive_search(space, evaluator, limit=4)
        assert len(evaluations) == 4

    def test_exhaustive_search_streams_progress(self, evaluator):
        space = preprocessing_design_space(lsb_step=8)
        events = []
        evaluations = exhaustive_search(space, evaluator, limit=3,
                                        progress=events.append)
        assert [event.completed for event in events] == [1, 2, 3]
        assert [event.evaluation for event in events] == evaluations

    def test_heuristic_search_returns_feasible_best(self, evaluator):
        space = DesignSpace(stage_lsb_options={"lpf": (0, 4, 8), "hpf": (0, 4, 8)})
        best = heuristic_search(space, evaluator, FULL_ACCURACY_CONSTRAINT)
        assert best is not None
        assert best.peak_accuracy == 1.0
        assert best.energy_reduction > 1.0

    def test_heuristic_search_infeasible_constraint(self, evaluator):
        space = DesignSpace(stage_lsb_options={"lpf": (16,), "hpf": (16,)})
        best = heuristic_search(space, evaluator, QualityConstraint("psnr", 200.0))
        assert best is None


class TestAlgorithm1:
    @pytest.fixture(scope="class")
    def profiles(self, evaluator):
        return {
            "low_pass": analyze_stage_resilience("lpf", evaluator, [0, 4, 8, 12]),
            "high_pass": analyze_stage_resilience("hpf", evaluator, [0, 4, 8, 12]),
        }

    def test_generates_feasible_design(self, profiles, evaluator):
        result = generate_design(
            profiles, evaluator, QualityConstraint("peak_accuracy", 1.0)
        )
        assert result.satisfied
        assert result.evaluation.peak_accuracy == 1.0
        assert result.energy_reduction > 1.0

    def test_trace_counts_evaluated_designs(self, profiles, evaluator):
        result = generate_design(
            profiles, evaluator, QualityConstraint("peak_accuracy", 1.0)
        )
        assert result.trace.evaluated_designs == len(result.trace.all_evaluations())
        assert result.trace.evaluated_designs >= 1

    def test_explores_far_fewer_designs_than_the_heuristic_grid(self, profiles, evaluator):
        result = generate_design(
            profiles, evaluator, QualityConstraint("psnr", 22.0)
        )
        assert result.trace.evaluated_designs < preprocessing_design_space().size()

    def test_stage_order_is_ascending_in_energy_savings(self, profiles, evaluator):
        result = generate_design(
            profiles, evaluator, QualityConstraint("peak_accuracy", 1.0)
        )
        savings = [profiles[name].max_energy_reduction(0.0) for name in result.stage_order]
        assert savings == sorted(savings)

    def test_base_design_is_preserved(self, evaluator):
        from repro.core.configurations import DesignPoint

        base = DesignPoint.from_lsbs({"lpf": 4}, name="base")
        profiles = {"moving_window_integral": analyze_stage_resilience("mwi", evaluator, [0, 8, 16])}
        result = generate_design(
            profiles,
            evaluator,
            QualityConstraint("peak_accuracy", 1.0),
            stages=("moving_window_integral",),
            base_design=base,
        )
        assert result.design.lsbs_for("lpf") == 4

    def test_requires_at_least_one_stage(self, evaluator):
        with pytest.raises(ValueError):
            generate_design({}, evaluator, FULL_ACCURACY_CONSTRAINT, stages=())


class TestExplorationTime:
    def test_estimate_converts_counts_to_time(self):
        estimate = estimate_exploration("heuristic", 81)
        assert estimate.duration_hours == pytest.approx(81 * 300 / 3600.0)

    def test_custom_cost_model(self):
        model = ExplorationCostModel(seconds_per_evaluation=10.0)
        assert estimate_exploration("x", 6, model).duration_s == 60.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ExplorationCostModel().duration_s(-1)

    def test_compare_strategies_ordering(self):
        comparison = compare_strategies(
            heuristic_space=preprocessing_design_space(),
            algorithm1_evaluations=11,
        )
        assert comparison["exhaustive"].duration_s > comparison["heuristic"].duration_s
        assert comparison["heuristic"].duration_s > comparison["algorithm1"].duration_s
        # The paper's headline: years for exhaustive, big speedup for Alg. 1.
        assert comparison["exhaustive"].duration_years > 1.0
        assert comparison["algorithm1"].speedup_over(comparison["heuristic"]) > 5.0
