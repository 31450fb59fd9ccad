"""Hardware cost models: Table 1 database, block composition, sensor nodes."""

from .cost_model import (
    ElementaryModule,
    ReductionReport,
    enumerate_multiplier_modules,
    recursive_multiplier_cost,
    reduction_factors,
    ripple_carry_adder_cost,
)
from .sensor_node import (
    BIO_SIGNAL_NODES,
    SensorNodeEnergy,
    lifetime_extension_factor,
    sensor_node,
    sensor_node_names,
)
from .software_energy import (
    RASPBERRY_PI_3B_PLUS,
    SoftwarePlatform,
    software_energy_per_sample_j,
)
from .stage_costs import (
    ADDER_WIDTH_BITS,
    MULTIPLIER_WIDTH_BITS,
    StageCostBreakdown,
    accurate_stage_cost,
    stage_cost,
    stage_reduction,
)
from .synthesis import (
    ADDER_COSTS,
    MULTIPLIER_COSTS,
    TECHNOLOGY_NODE_NM,
    ModuleCost,
    adder_cost,
    adders_by_energy,
    multiplier_cost,
    multipliers_by_energy,
)

__all__ = [
    "ElementaryModule",
    "ReductionReport",
    "enumerate_multiplier_modules",
    "recursive_multiplier_cost",
    "reduction_factors",
    "ripple_carry_adder_cost",
    "BIO_SIGNAL_NODES",
    "SensorNodeEnergy",
    "lifetime_extension_factor",
    "sensor_node",
    "sensor_node_names",
    "RASPBERRY_PI_3B_PLUS",
    "SoftwarePlatform",
    "software_energy_per_sample_j",
    "ADDER_WIDTH_BITS",
    "MULTIPLIER_WIDTH_BITS",
    "StageCostBreakdown",
    "accurate_stage_cost",
    "stage_cost",
    "stage_reduction",
    "ADDER_COSTS",
    "MULTIPLIER_COSTS",
    "TECHNOLOGY_NODE_NM",
    "ModuleCost",
    "adder_cost",
    "adders_by_energy",
    "multiplier_cost",
    "multipliers_by_energy",
]
