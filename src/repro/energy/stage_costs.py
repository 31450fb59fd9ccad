"""Hardware cost of the Pan-Tompkins stages.

Each stage's operator inventory comes from its
:class:`~repro.dsp.stages.StageDefinition` (11 multipliers + 10 adders for the
LPF, 32 + 31 for the HPF, and so on) and each operator's cost from the
compositional model in :mod:`repro.energy.cost_model`.  The same "output LSBs
approximated" convention used by the behavioural pipeline applies here, so the
energy numbers and the quality numbers always describe the same hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Union

from ..dsp.stages import StageDefinition, stage_by_name
from .cost_model import (
    ModuleCost,
    recursive_multiplier_cost,
    reduction_factors,
    ripple_carry_adder_cost,
)

__all__ = [
    "StageCostBreakdown",
    "stage_cost",
    "stage_reduction",
    "accurate_stage_cost",
]

#: Word widths of the paper's datapath.
ADDER_WIDTH_BITS = 32
MULTIPLIER_WIDTH_BITS = 16


@dataclass(frozen=True)
class StageCostBreakdown:
    """Cost of one stage split into its adder and multiplier contributions."""

    stage_name: str
    adders: ModuleCost
    multipliers: ModuleCost

    @cached_property
    def total(self) -> ModuleCost:
        """Combined cost of the stage (summed once per breakdown)."""
        return self.adders + self.multipliers

    @property
    def energy_fj(self) -> float:
        """Total per-activation energy of the stage in femtojoules."""
        return self.total.energy_fj


def _resolve_stage(stage: Union[str, StageDefinition]) -> StageDefinition:
    return stage if isinstance(stage, StageDefinition) else stage_by_name(stage)


def stage_cost(
    stage: Union[str, StageDefinition],
    approx_lsbs: int = 0,
    adder_cell: str = "ApproxAdd5",
    mult_cell: str = "AppMultV1",
) -> StageCostBreakdown:
    """Hardware cost of one stage for a given approximation setting.

    Parameters
    ----------
    stage:
        Stage name (or definition).
    approx_lsbs:
        Number of approximated *output* LSBs (the paper's convention); the
        stage's output shift is added to obtain the datapath boundary.
    adder_cell / mult_cell:
        Elementary cells deployed in the approximated region.
    """
    definition = _resolve_stage(stage)
    datapath_lsbs = definition.datapath_lsbs(approx_lsbs, ADDER_WIDTH_BITS)
    return _datapath_stage_cost(definition, datapath_lsbs, adder_cell, mult_cell)


@lru_cache(maxsize=None)
def _datapath_stage_cost(
    definition: StageDefinition,
    datapath_lsbs: int,
    adder_cell: str,
    mult_cell: str,
) -> StageCostBreakdown:
    # Memoised on datapath LSBs (0..ADDER_WIDTH_BITS), not on the requested
    # output LSBs, so any LSB count a request carries lands on one of 33
    # entries per stage and cell pair.  The breakdown is an immutable value.
    adders = ModuleCost.zero()
    for _ in range(definition.n_adders):
        adders = adders + ripple_carry_adder_cost(
            ADDER_WIDTH_BITS, datapath_lsbs, adder_cell
        )

    multipliers = ModuleCost.zero()
    if definition.kind == "fir":
        coefficients = definition.quantized_coefficients(MULTIPLIER_WIDTH_BITS)
        for coefficient in coefficients:
            multipliers = multipliers + recursive_multiplier_cost(
                MULTIPLIER_WIDTH_BITS,
                datapath_lsbs,
                mult_cell,
                adder_cell,
                coefficient=int(coefficient),
            )
    elif definition.kind == "squarer":
        multipliers = recursive_multiplier_cost(
            MULTIPLIER_WIDTH_BITS, datapath_lsbs, mult_cell, adder_cell
        )

    return StageCostBreakdown(
        stage_name=definition.name, adders=adders, multipliers=multipliers
    )


def accurate_stage_cost(stage: Union[str, StageDefinition]) -> StageCostBreakdown:
    """Cost of the stage with zero approximation (the baseline design)."""
    return stage_cost(stage, approx_lsbs=0, adder_cell="Accurate", mult_cell="AccMult")


def stage_reduction(
    stage: Union[str, StageDefinition],
    approx_lsbs: int,
    adder_cell: str = "ApproxAdd5",
    mult_cell: str = "AppMultV1",
) -> Dict[str, float]:
    """Area/delay/power/energy reduction factors of an approximated stage."""
    accurate = accurate_stage_cost(stage).total
    approximate = stage_cost(stage, approx_lsbs, adder_cell, mult_cell).total
    return reduction_factors(accurate, approximate).as_dict()
