"""The three-phase design generation methodology (Algorithm 1 of the paper).

Given the per-stage error-resilience profiles, the energy-sorted elementary
cell lists and a quality constraint, the methodology selects an approximation
setting for every stage while evaluating only a small number of design points
(11 instead of 81 for the pre-processing stages in the paper).

Phase structure (following the pseudo-code closely):

* **Phase 1** — stages are sorted by the maximum energy reduction their
  individual approximation can deliver (ascending).  For the first stage the
  search starts from the *most* aggressive setting (largest LSB count, least
  energy cells) and stops at the first design that satisfies the constraint.
* **Phase 2** — for every subsequent stage the search walks the *least*
  aggressive settings first (reversed lists), keeping designs while they
  satisfy the constraint and breaking as soon as one violates it.
* **Phase 3** — the diagonal trade: the previous stage gives up two LSBs while
  the current stage gains two, re-evaluating the combined design, until the
  previous stage reaches zero approximated LSBs.  The best (highest energy
  reduction) feasible candidates of the two stages are then frozen and the
  procedure moves on.

The implementation evaluates the quality of the *combined* design (every
stage decided so far plus the candidate settings), which is what the
constraint in the paper's evaluation refers to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .configurations import DesignPoint, StageApproximation
from .quality import DesignEvaluation, QualityConstraint
from .resilience import StageResilienceProfile

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->runtime cycle
    from ..runtime.engine import ExplorationRuntime

__all__ = ["GenerationTrace", "DesignGenerationResult", "generate_design"]


@dataclass
class GenerationTrace:
    """Record of every design point Algorithm 1 evaluated, per phase."""

    phase1: List[DesignEvaluation] = field(default_factory=list)
    phase2: List[DesignEvaluation] = field(default_factory=list)
    phase3: List[DesignEvaluation] = field(default_factory=list)

    @property
    def evaluated_designs(self) -> int:
        """Total number of design evaluations performed."""
        return len(self.phase1) + len(self.phase2) + len(self.phase3)

    def all_evaluations(self) -> List[DesignEvaluation]:
        """All evaluations in the order they were performed."""
        return [*self.phase1, *self.phase2, *self.phase3]


@dataclass
class DesignGenerationResult:
    """Outcome of Algorithm 1."""

    design: DesignPoint
    evaluation: Optional[DesignEvaluation]
    trace: GenerationTrace
    stage_order: List[str]

    @property
    def satisfied(self) -> bool:
        """True when at least one feasible design was found."""
        return self.evaluation is not None

    @property
    def energy_reduction(self) -> float:
        """Energy reduction of the selected design (1.0 when infeasible)."""
        return self.design.energy_reduction() if self.design.stages else 1.0


def _setting(
    stage: str, lsbs: int, multiplier: str, adder: str
) -> StageApproximation:
    return StageApproximation(stage=stage, lsbs=lsbs, adder=adder, multiplier=multiplier)


def _best_feasible(
    candidates: Sequence[Tuple[StageApproximation, DesignEvaluation]]
) -> Optional[StageApproximation]:
    """Pick the candidate whose *stage* setting saves the most energy."""
    best: Optional[Tuple[StageApproximation, DesignEvaluation]] = None
    for setting, evaluation in candidates:
        if best is None or evaluation.energy_reduction > best[1].energy_reduction:
            best = (setting, evaluation)
    return best[0] if best else None


def generate_design(
    profiles: Dict[str, StageResilienceProfile],
    evaluator: ExplorationRuntime,
    constraint: QualityConstraint,
    stages: Optional[Sequence[str]] = None,
    mult_list: Sequence[str] = ("AppMultV1",),
    add_list: Sequence[str] = ("ApproxAdd5",),
    lsb_step: int = 2,
    base_design: Optional[DesignPoint] = None,
) -> DesignGenerationResult:
    """Run the three-phase design generation methodology.

    Parameters
    ----------
    profiles:
        Per-stage resilience profiles (provides the LSB candidate lists and
        the per-stage maximum energy reductions used for ordering).
    evaluator:
        Shared runtime (its counter measures exploration cost).
    constraint:
        The user-defined quality constraint (e.g. PSNR >= 15 for the
        pre-processing section, peak accuracy = 1.0 for the full pipeline).
    stages:
        Names of the stages to approximate; defaults to every stage present
        in ``profiles``.
    mult_list / add_list:
        Elementary cells ordered most-aggressive first (least energy first).
        The paper restricts both lists to a single entry in its evaluation.
    lsb_step:
        Step used by the diagonal moves of phase 3 (two in the paper).
    base_design:
        Approximation settings already frozen for other pipeline sections
        (e.g. the pre-processing design when exploring the signal-processing
        stages); they are included in every quality evaluation.
    """
    trace = GenerationTrace()
    base = base_design or DesignPoint.accurate("base")
    stage_names = [name for name in (stages or profiles.keys())]
    if not stage_names:
        raise ValueError("generate_design needs at least one stage")

    # Phase ordering: ascending maximum energy reduction (paper, line 3).
    stage_order = sorted(
        stage_names, key=lambda name: profiles[name].max_energy_reduction(0.0)
    )

    chosen: Dict[str, StageApproximation] = {}

    def _design_with(*extra: StageApproximation) -> DesignPoint:
        design = base
        for setting in chosen.values():
            design = design.replacing(setting)
        for setting in extra:
            design = design.replacing(setting)
        return DesignPoint(stages=design.stages, name="candidate")

    # ------------------------------------------------------------- Phase 1
    first_stage = stage_order[0]
    first_candidates: List[Tuple[StageApproximation, DesignEvaluation]] = []
    lsb_list = profiles[first_stage].lsb_list_descending()
    found = False
    for lsbs in lsb_list:
        for multiplier in mult_list:
            for adder in add_list:
                setting = _setting(first_stage, lsbs, multiplier, adder)
                evaluation = evaluator.evaluate(_design_with(setting))
                trace.phase1.append(evaluation)
                if constraint.satisfied_by(evaluation):
                    first_candidates.append((setting, evaluation))
                    found = True
                    break
            if found:
                break
        if found:
            break
    if first_candidates:
        chosen[first_stage] = first_candidates[0][0]

    # --------------------------------------------------- Phases 2 and 3
    previous_stage = first_stage
    stage1_candidates = list(first_candidates)

    for current_stage in stage_order[1:]:
        stage2_candidates: List[Tuple[StageApproximation, DesignEvaluation]] = []

        # Phase 2: walk the current stage from least to most aggressive.
        ascending_lsbs = sorted(profiles[current_stage].lsb_list_descending())
        stop = False
        for lsbs in ascending_lsbs:
            for multiplier in reversed(list(mult_list)):
                for adder in reversed(list(add_list)):
                    setting = _setting(current_stage, lsbs, multiplier, adder)
                    evaluation = evaluator.evaluate(_design_with(setting))
                    trace.phase2.append(evaluation)
                    if constraint.satisfied_by(evaluation):
                        stage2_candidates.append((setting, evaluation))
                    else:
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break

        # Phase 3: diagonal trade between the previous and the current stage.
        previous_setting = chosen.get(previous_stage)
        current_setting = (
            stage2_candidates[-1][0]
            if stage2_candidates
            else _setting(current_stage, 0, mult_list[0], add_list[0])
        )
        if previous_setting is not None:
            prev_lsbs = previous_setting.lsbs
            curr_lsbs = current_setting.lsbs
            max_current = max(profiles[current_stage].lsb_list_descending() or [0])
            while prev_lsbs >= lsb_step:
                prev_lsbs -= lsb_step
                curr_lsbs = min(curr_lsbs + lsb_step, max_current)
                for multiplier in mult_list:
                    for adder in add_list:
                        prev_candidate = _setting(previous_stage, prev_lsbs, multiplier, adder)
                        curr_candidate = _setting(current_stage, curr_lsbs, multiplier, adder)
                        evaluation = evaluator.evaluate(
                            _design_with(prev_candidate, curr_candidate)
                        )
                        trace.phase3.append(evaluation)
                        if constraint.satisfied_by(evaluation):
                            stage1_candidates.append((prev_candidate, evaluation))
                            stage2_candidates.append((curr_candidate, evaluation))

        # Freeze the best feasible settings for both stages (paper lines 47-48).
        best_current = _best_feasible(stage2_candidates)
        best_previous = _best_feasible(stage1_candidates)
        if best_current is not None:
            chosen[current_stage] = best_current
        if best_previous is not None:
            chosen[previous_stage] = best_previous

        stage1_candidates = list(stage2_candidates)
        previous_stage = current_stage

    final_design = DesignPoint(
        stages=tuple(
            setting for setting in chosen.values() if setting.lsbs > 0
        )
        + tuple(base.stages),
        name="algorithm1",
        description="Design selected by the three-phase generation methodology",
    )
    final_evaluation = (
        evaluator.evaluate(final_design, use_cache=True) if chosen else None
    )
    return DesignGenerationResult(
        design=final_design,
        evaluation=final_evaluation,
        trace=trace,
        stage_order=stage_order,
    )
