"""Hardware cost of the Pan-Tompkins stages and of full pipeline designs.

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
from typing import Dict, Mapping, Optional, Union

from ..dsp.stages import StageDefinition, pan_tompkins_stages, stage_by_name
from .cost_model import (
    ModuleCost,
    recursive_multiplier_cost,
    reduction_factors,
    ripple_carry_adder_cost,
)
from .synthesis import adder_cost, multiplier_cost

__all__ = [
    "StageCostBreakdown",
    "stage_cost",
    "stage_reduction",
    "pipeline_cost",
    "pipeline_energy_reduction",
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
    coefficient_aware: bool = True,
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
    coefficient_aware:
        Use constant-coefficient folding for FIR tap multipliers.
    """
    definition = _resolve_stage(stage)
    datapath_lsbs = definition.datapath_lsbs(approx_lsbs, ADDER_WIDTH_BITS)
    return _datapath_stage_cost(
        definition, datapath_lsbs, adder_cell, mult_cell, coefficient_aware
    )


@lru_cache(maxsize=None)
def _datapath_stage_cost(
    definition: StageDefinition,
    datapath_lsbs: int,
    adder_cell: str,
    mult_cell: str,
    coefficient_aware: bool,
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
                coefficient=int(coefficient) if coefficient_aware else None,
            )
    elif definition.kind == "squarer":
        multipliers = recursive_multiplier_cost(
            MULTIPLIER_WIDTH_BITS, datapath_lsbs, mult_cell, adder_cell
        )

    return StageCostBreakdown(
        stage_name=definition.name, adders=adders, multipliers=multipliers
    )


def accurate_stage_cost(
    stage: Union[str, StageDefinition], coefficient_aware: bool = True
) -> StageCostBreakdown:
    """Cost of the stage with zero approximation (the baseline design)."""
    return stage_cost(
        stage,
        approx_lsbs=0,
        adder_cell="Accurate",
        mult_cell="AccMult",
        coefficient_aware=coefficient_aware,
    )


def stage_reduction(
    stage: Union[str, StageDefinition],
    approx_lsbs: int,
    adder_cell: str = "ApproxAdd5",
    mult_cell: str = "AppMultV1",
    coefficient_aware: bool = True,
) -> Dict[str, float]:
    """Area/delay/power/energy reduction factors of an approximated stage."""
    accurate = accurate_stage_cost(stage, coefficient_aware).total
    approximate = stage_cost(
        stage, approx_lsbs, adder_cell, mult_cell, coefficient_aware
    ).total
    return reduction_factors(accurate, approximate).as_dict()


def pipeline_cost(
    lsbs_per_stage: Optional[Mapping[str, int]] = None,
    adder_cell: str = "ApproxAdd5",
    mult_cell: str = "AppMultV1",
    coefficient_aware: bool = True,
) -> Dict[str, StageCostBreakdown]:
    """Cost of the full five-stage pipeline for a per-stage LSB assignment.

    Missing stages default to zero approximated LSBs (accurate).
    """
    lsbs_per_stage = lsbs_per_stage or {}
    normalised = {
        stage_by_name(name).name: lsbs for name, lsbs in lsbs_per_stage.items()
    }
    costs: Dict[str, StageCostBreakdown] = {}
    for stage in pan_tompkins_stages():
        lsbs = normalised.get(stage.name, 0)
        if lsbs > 0:
            costs[stage.name] = stage_cost(
                stage, lsbs, adder_cell, mult_cell, coefficient_aware
            )
        else:
            costs[stage.name] = accurate_stage_cost(stage, coefficient_aware)
    return costs


def pipeline_energy_reduction(
    lsbs_per_stage: Optional[Mapping[str, int]] = None,
    adder_cell: str = "ApproxAdd5",
    mult_cell: str = "AppMultV1",
    coefficient_aware: bool = True,
) -> float:
    """End-to-end energy-reduction factor of a per-stage LSB assignment."""
    approx = pipeline_cost(lsbs_per_stage, adder_cell, mult_cell, coefficient_aware)
    accurate = pipeline_cost({}, "Accurate", "AccMult", coefficient_aware)
    accurate_energy = sum(cost.energy_fj for cost in accurate.values())
    approx_energy = sum(cost.energy_fj for cost in approx.values())
    if approx_energy <= 0.0:
        return float("inf")
    return accurate_energy / approx_energy


def elementary_cost_table() -> Dict[str, Dict[str, float]]:
    """Flat view of the Table 1 database (used by reports and benchmarks)."""
    table: Dict[str, Dict[str, float]] = {}
    for name in ("Accurate", "ApproxAdd1", "ApproxAdd2", "ApproxAdd3", "ApproxAdd4", "ApproxAdd5"):
        cost = adder_cost(name)
        table[name] = {
            "area_um2": cost.area_um2,
            "delay_ns": cost.delay_ns,
            "power_uw": cost.power_uw,
            "energy_fj": cost.energy_fj,
        }
    for name in ("AccMult", "AppMultV1", "AppMultV2"):
        cost = multiplier_cost(name)
        table[name] = {
            "area_um2": cost.area_um2,
            "delay_ns": cost.delay_ns,
            "power_uw": cost.power_uw,
            "energy_fj": cost.energy_fj,
        }
    return table
