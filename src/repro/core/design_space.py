"""Design-space definition and the exhaustive / heuristic baseline searches.

The design space of an approximate Pan-Tompkins processor is the cross
product, over the approximated stages, of

* the number of approximated output LSBs (0 .. per-stage maximum),
* the elementary adder cell, and
* the elementary multiplier cell.

The paper compares three ways of exploring it (Fig. 11):

* **Exhaustive** — every combination, per stage and across stages; utterly
  infeasible (the estimated duration is measured in years).
* **Heuristic** — the restricted space the paper actually enumerates for
  Table 2: one shared adder and multiplier cell for the whole design and LSB
  counts restricted to multiples of two.
* **Algorithm 1** — the paper's design generation methodology
  (:mod:`repro.core.design_generation`), which evaluates only a handful of
  designs.

This module provides the space descriptions, cardinality calculations and the
two baseline searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..dsp.stages import stage_by_name
from .configurations import DEFAULT_ADDER, DEFAULT_MULTIPLIER, DesignPoint, StageApproximation
from .quality import DesignEvaluation, QualityConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->runtime cycle
    from ..runtime.engine import ExplorationRuntime
    from ..runtime.telemetry import ProgressCallback

__all__ = [
    "DesignSpace",
    "preprocessing_design_space",
    "signal_processing_design_space",
    "full_design_space",
    "exhaustive_search",
    "heuristic_search",
]

#: Elementary cell lists in descending energy order (Table 1 ordering).
ALL_ADDERS: Tuple[str, ...] = (
    "Accurate",
    "ApproxAdd1",
    "ApproxAdd2",
    "ApproxAdd3",
    "ApproxAdd4",
    "ApproxAdd5",
)
ALL_MULTIPLIERS: Tuple[str, ...] = ("AccMult", "AppMultV1", "AppMultV2")


@dataclass(frozen=True)
class DesignSpace:
    """The search space over a subset of the pipeline stages.

    Parameters
    ----------
    stage_lsb_options:
        Mapping from stage name to the tuple of LSB counts considered for it.
    adders / multipliers:
        Elementary cells considered for the approximated regions.
    shared_cells:
        When True (the paper's "heuristic" restriction) the same adder and
        multiplier cell is used for every stage of a design; when False each
        stage picks its own cells.
    """

    stage_lsb_options: Mapping[str, Tuple[int, ...]]
    adders: Tuple[str, ...] = (DEFAULT_ADDER,)
    multipliers: Tuple[str, ...] = (DEFAULT_MULTIPLIER,)
    shared_cells: bool = True

    def __post_init__(self) -> None:
        if not self.stage_lsb_options:
            raise ValueError("a design space needs at least one stage")
        for stage, options in self.stage_lsb_options.items():
            stage_by_name(stage)  # validates the name
            if not options:
                raise ValueError(f"stage {stage!r} has no LSB options")

    # --------------------------------------------------------- cardinality
    @property
    def stage_names(self) -> List[str]:
        """Canonical names of the stages covered by this space."""
        return [stage_by_name(name).name for name in self.stage_lsb_options]

    def size(self) -> int:
        """Number of distinct designs in the space."""
        lsb_combinations = 1
        for options in self.stage_lsb_options.values():
            lsb_combinations *= len(options)
        if self.shared_cells:
            return lsb_combinations * len(self.adders) * len(self.multipliers)
        per_stage_cells = (len(self.adders) * len(self.multipliers)) ** len(
            self.stage_lsb_options
        )
        return lsb_combinations * per_stage_cells

    # ---------------------------------------------------------- generation
    def designs(self) -> Iterable[DesignPoint]:
        """Yield every design point of the space (lazily)."""
        stages = list(self.stage_lsb_options.items())
        stage_names = [stage_by_name(name).name for name, _ in stages]
        lsb_lists = [options for _, options in stages]

        if self.shared_cells:
            for adder in self.adders:
                for multiplier in self.multipliers:
                    for lsb_combo in product(*lsb_lists):
                        yield self._build(stage_names, lsb_combo, adder, multiplier)
        else:
            cell_pairs = list(product(self.adders, self.multipliers))
            for lsb_combo in product(*lsb_lists):
                for cells_combo in product(cell_pairs, repeat=len(stage_names)):
                    settings = tuple(
                        StageApproximation(name, lsbs, adder, multiplier)
                        for name, lsbs, (adder, multiplier) in zip(
                            stage_names, lsb_combo, cells_combo
                        )
                        if lsbs > 0
                    )
                    yield DesignPoint(stages=settings)

    @staticmethod
    def _build(
        stage_names: Sequence[str],
        lsb_combo: Sequence[int],
        adder: str,
        multiplier: str,
    ) -> DesignPoint:
        settings = tuple(
            StageApproximation(name, lsbs, adder, multiplier)
            for name, lsbs in zip(stage_names, lsb_combo)
            if lsbs > 0
        )
        return DesignPoint(stages=settings)


def _even_range(maximum: int) -> Tuple[int, ...]:
    return tuple(range(0, maximum + 1, 2))


def preprocessing_design_space(
    lsb_step: int = 2,
    adders: Tuple[str, ...] = (DEFAULT_ADDER,),
    multipliers: Tuple[str, ...] = (DEFAULT_MULTIPLIER,),
) -> DesignSpace:
    """The Table 2 space: LPF and HPF, LSBs 0..16 in steps of ``lsb_step``."""
    options = tuple(range(0, 17, lsb_step))
    return DesignSpace(
        stage_lsb_options={"low_pass": options, "high_pass": options},
        adders=adders,
        multipliers=multipliers,
    )


def signal_processing_design_space(
    adders: Tuple[str, ...] = (DEFAULT_ADDER,),
    multipliers: Tuple[str, ...] = (DEFAULT_MULTIPLIER,),
) -> DesignSpace:
    """The Section 6.2 space: differentiator <= 4, squarer <= 8, MWI <= 16 LSBs."""
    return DesignSpace(
        stage_lsb_options={
            "derivative": _even_range(4),
            "squarer": _even_range(8),
            "moving_window_integral": _even_range(16),
        },
        adders=adders,
        multipliers=multipliers,
    )


def full_design_space(
    lsb_step: int = 1,
    adders: Tuple[str, ...] = ALL_ADDERS,
    multipliers: Tuple[str, ...] = ALL_MULTIPLIERS,
    shared_cells: bool = False,
) -> DesignSpace:
    """The unrestricted space used for the exhaustive-exploration estimate."""
    return DesignSpace(
        stage_lsb_options={
            "low_pass": tuple(range(0, 17, lsb_step)),
            "high_pass": tuple(range(0, 17, lsb_step)),
            "derivative": tuple(range(0, 5, lsb_step)),
            "squarer": tuple(range(0, 9, lsb_step)),
            "moving_window_integral": tuple(range(0, 17, lsb_step)),
        },
        adders=adders,
        multipliers=multipliers,
        shared_cells=shared_cells,
    )


def exhaustive_search(
    space: DesignSpace,
    evaluator: ExplorationRuntime,
    limit: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[DesignEvaluation]:
    """Evaluate every design in ``space`` (optionally capped at ``limit``).

    Returns all evaluations; callers filter by a quality constraint or
    extract the Pareto front.  This is the baseline the paper's Table 2 grid
    corresponds to (81 designs for the pre-processing stages).

    The grid points are independent, so they are submitted as one batch: a
    thread runtime spreads them over its worker pool, a serial one runs them
    in order — either way the results come back in enumeration order.
    ``progress`` is the batch's per-design callback; one that raises stops
    the search (how a service job is cancelled).
    """
    return evaluator.evaluate_many(
        islice(space.designs(), limit), progress=progress
    )


def heuristic_search(
    space: DesignSpace,
    evaluator: ExplorationRuntime,
    constraint: QualityConstraint,
    limit: Optional[int] = None,
) -> Optional[DesignEvaluation]:
    """Pick the best design satisfying ``constraint`` by enumerating ``space``.

    This models the paper's "heuristic" baseline: the space is already
    restricted (shared cells, even LSB counts) but every remaining point is
    still evaluated; the result is the feasible design with the highest
    energy reduction.
    """
    best: Optional[DesignEvaluation] = None
    for evaluation in exhaustive_search(space, evaluator, limit):
        if not constraint.satisfied_by(evaluation):
            continue
        if best is None or evaluation.energy_reduction > best.energy_reduction:
            best = evaluation
    return best
