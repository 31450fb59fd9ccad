"""Tests for the error-resilience analysis and Pareto extraction."""

import pytest

from repro.core.configurations import DesignPoint
from repro.core.pareto import dominates, pareto_front
from repro.core.resilience import analyze_stage_resilience
from repro.runtime import ExplorationRuntime


@pytest.fixture(scope="module")
def lpf_profile(evaluator):
    return analyze_stage_resilience("lpf", evaluator, lsb_values=[0, 4, 8, 12, 16])


@pytest.fixture(scope="module")
def mwi_profile(evaluator):
    return analyze_stage_resilience("mwi", evaluator, lsb_values=[0, 8, 16])


class _Stopped(Exception):
    """Raised by a progress callback to stop a sweep."""


class TestStageResilience:
    def test_profile_covers_requested_lsbs(self, lpf_profile):
        assert lpf_profile.lsb_values == [0, 4, 8, 12, 16]
        assert lpf_profile.stage == "low_pass"

    def test_zero_lsbs_point_is_lossless(self, lpf_profile):
        point = lpf_profile.point_for(0)
        assert point.peak_accuracy == 1.0
        assert point.energy_reduction == pytest.approx(1.0)
        assert point.ssim_value == pytest.approx(1.0)

    def test_energy_reduction_monotone_in_lsbs(self, lpf_profile):
        reductions = [p.energy_reduction for p in lpf_profile.points]
        assert all(b >= a for a, b in zip(reductions, reductions[1:]))

    def test_quality_degrades_with_lsbs(self, lpf_profile):
        ssims = [p.ssim_value for p in lpf_profile.points]
        assert ssims[0] >= ssims[2] >= ssims[-1]

    def test_threshold_below_full_collapse(self, lpf_profile):
        threshold = lpf_profile.error_resilience_threshold()
        assert 4 <= threshold <= 12

    def test_mwi_is_extremely_error_resilient(self, mwi_profile):
        # The paper's observation: the integrator tolerates 16 approximated
        # LSBs with no accuracy loss.
        assert mwi_profile.error_resilience_threshold() == 16

    def test_max_energy_reduction_respects_accuracy_floor(self, lpf_profile):
        unconstrained = lpf_profile.max_energy_reduction(0.0)
        constrained = lpf_profile.max_energy_reduction(1.0)
        assert unconstrained >= constrained >= 1.0

    def test_lsb_list_descending(self, lpf_profile):
        lsbs = lpf_profile.lsb_list_descending()
        assert lsbs == sorted(lsbs, reverse=True)
        assert 0 not in lsbs

    def test_as_table_rows(self, lpf_profile):
        table = lpf_profile.as_table()
        assert len(table) == len(lpf_profile.points)
        assert set(table[0]) >= {"lsbs", "energy_reduction", "ssim", "peak_accuracy"}

    def test_point_for_missing_lsbs_raises(self, lpf_profile):
        with pytest.raises(KeyError):
            lpf_profile.point_for(5)

    def test_negative_lsbs_rejected(self, evaluator):
        with pytest.raises(ValueError):
            analyze_stage_resilience("lpf", evaluator, lsb_values=[-2])

    def test_progress_sees_each_sweep_point_in_order(self, evaluator,
                                                     mwi_profile):
        events = []
        profile = analyze_stage_resilience(
            "mwi", evaluator, lsb_values=[0, 8, 16], progress=events.append
        )
        assert [event.index for event in events] == [0, 1, 2]
        assert all(event.total == 3 for event in events)
        assert [event.design.name for event in events] == [
            "moving_window_integral@0",
            "moving_window_integral@8",
            "moving_window_integral@16",
        ]
        # Watching the sweep does not change its results.
        assert profile.as_table() == mwi_profile.as_table()

    def test_raising_progress_stops_the_sweep(self, short_record):
        runtime = ExplorationRuntime([short_record], executor="serial")

        def stop(event):
            raise _Stopped

        with pytest.raises(_Stopped):
            analyze_stage_resilience(
                "der", runtime, lsb_values=[2, 4], progress=stop
            )
        # The first point ran and was cached; the second never started.
        assert runtime.evaluation_count == 1
        assert len(runtime.cache) == 1


class TestPareto:
    def _evaluations(self, evaluator):
        designs = [
            DesignPoint.accurate(),
            DesignPoint.from_lsbs({"lpf": 4}, name="p4"),
            DesignPoint.from_lsbs({"lpf": 8}, name="p8"),
            DesignPoint.from_lsbs({"lpf": 16}, name="p16"),
        ]
        return [evaluator.evaluate(d) for d in designs]

    def test_dominance(self, evaluator):
        evaluations = self._evaluations(evaluator)
        accurate, mild = evaluations[0], evaluations[1]
        # The mild design saves energy at equal accuracy: it dominates A2.
        assert dominates(mild, accurate)
        assert not dominates(accurate, mild)

    def test_front_is_subset_and_nondominated(self, evaluator):
        evaluations = self._evaluations(evaluator)
        front = pareto_front(evaluations)
        assert 0 < len(front) <= len(evaluations)
        for a in front:
            assert not any(dominates(b, a) for b in evaluations if b is not a)

    def test_front_sorted_by_energy(self, evaluator):
        front = pareto_front(self._evaluations(evaluator))
        energies = [e.energy_reduction for e in front]
        assert energies == sorted(energies)

    def test_custom_objectives(self, evaluator):
        evaluations = self._evaluations(evaluator)
        front = pareto_front(
            evaluations,
            objectives=(lambda e: e.psnr_db, lambda e: e.energy_reduction),
        )
        assert len(front) >= 1
