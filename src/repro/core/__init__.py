"""XBioSiP core: the approximation methodology itself.

Design points, two-stage quality evaluation, per-stage error-resilience
analysis, the three-phase design generation methodology (Algorithm 1), the
exhaustive / heuristic baseline searches, Pareto extraction, exploration-time
analysis and the misclassification study.
"""

from .configurations import (
    DEFAULT_ADDER,
    DEFAULT_MULTIPLIER,
    DesignPoint,
    PAPER_CONFIGURATIONS,
    StageApproximation,
    paper_configuration,
    paper_configuration_names,
)
from .design_generation import DesignGenerationResult, GenerationTrace, generate_design
from .design_space import (
    ALL_ADDERS,
    ALL_MULTIPLIERS,
    DesignSpace,
    exhaustive_search,
    full_design_space,
    heuristic_search,
    preprocessing_design_space,
    signal_processing_design_space,
)
from .exploration_time import (
    ExplorationCostModel,
    ExplorationEstimate,
    MeasuredExploration,
    PAPER_SECONDS_PER_EVALUATION,
    compare_strategies,
    estimate_exploration,
    measure_exploration,
)
from .fingerprint import (
    backend_fingerprint,
    design_point_key,
    evaluation_cache_key,
    record_fingerprint,
    signal_root_key,
    stage_fingerprint,
    stage_node_key,
    workload_fingerprint,
)
from .methodology import (
    PREPROCESSING_STAGES,
    SIGNAL_PROCESSING_STAGES,
    XBioSiP,
    XBioSiPResult,
)
from .misclassification import MisclassificationReport, analyze_misclassifications
from .pareto import dominates, pareto_front
from .quality import (
    DesignEvaluation,
    FULL_ACCURACY_CONSTRAINT,
    PREPROCESSING_PSNR_CONSTRAINT,
    QualityConstraint,
    run_design_evaluation,
)
from .resilience import (
    ResiliencePoint,
    StageResilienceProfile,
    analyze_stage_resilience,
)
from .stage_graph import (
    MemoryStageStore,
    StageGraphMemo,
    StageGraphStats,
)

__all__ = [
    "DEFAULT_ADDER",
    "DEFAULT_MULTIPLIER",
    "DesignPoint",
    "PAPER_CONFIGURATIONS",
    "StageApproximation",
    "paper_configuration",
    "paper_configuration_names",
    "DesignGenerationResult",
    "GenerationTrace",
    "generate_design",
    "ALL_ADDERS",
    "ALL_MULTIPLIERS",
    "DesignSpace",
    "exhaustive_search",
    "full_design_space",
    "heuristic_search",
    "preprocessing_design_space",
    "signal_processing_design_space",
    "ExplorationCostModel",
    "ExplorationEstimate",
    "MeasuredExploration",
    "PAPER_SECONDS_PER_EVALUATION",
    "compare_strategies",
    "estimate_exploration",
    "measure_exploration",
    "backend_fingerprint",
    "design_point_key",
    "evaluation_cache_key",
    "record_fingerprint",
    "signal_root_key",
    "stage_fingerprint",
    "stage_node_key",
    "workload_fingerprint",
    "MemoryStageStore",
    "StageGraphMemo",
    "StageGraphStats",
    "PREPROCESSING_STAGES",
    "SIGNAL_PROCESSING_STAGES",
    "XBioSiP",
    "XBioSiPResult",
    "MisclassificationReport",
    "analyze_misclassifications",
    "dominates",
    "pareto_front",
    "DesignEvaluation",
    "FULL_ACCURACY_CONSTRAINT",
    "PREPROCESSING_PSNR_CONSTRAINT",
    "QualityConstraint",
    "run_design_evaluation",
    "ResiliencePoint",
    "StageResilienceProfile",
    "analyze_stage_resilience",
]
