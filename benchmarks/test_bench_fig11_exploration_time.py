"""Fig. 11 — exploration-time analysis of the design-space search strategies.

Compares the exhaustive search, the restricted "heuristic" enumeration and the
three-phase design generation methodology (Algorithm 1) in terms of the number
of design evaluations and the estimated wall-clock exploration time (using the
paper's ~300 s per evaluation).  Algorithm 1 additionally runs for real
through the exploration runtime, so the report carries its evaluation,
cache-hit and stage-reuse counts next to the modeled time of that work.
"""

from conftest import format_row, write_report

from repro.core import (
    QualityConstraint,
    analyze_stage_resilience,
    compare_strategies,
    full_design_space,
    generate_design,
    preprocessing_design_space,
)
from repro.runtime import ExplorationRuntime


def _run_algorithm1(record):
    runtime = ExplorationRuntime([record])
    profiles = {
        "low_pass": analyze_stage_resilience("lpf", runtime, list(range(0, 17, 2))),
        "high_pass": analyze_stage_resilience("hpf", runtime, list(range(0, 17, 2))),
    }
    before = runtime.evaluation_count
    result = generate_design(profiles, runtime, QualityConstraint("psnr", 22.0),
                             stages=("low_pass", "high_pass"))
    return result, runtime, runtime.evaluation_count - before


def test_fig11_exploration_time(bench_record):
    result, runtime, measured_evaluations = _run_algorithm1(bench_record)
    comparison = compare_strategies(
        heuristic_space=preprocessing_design_space(),
        algorithm1_evaluations=result.trace.evaluated_designs,
        exhaustive_space=full_design_space(),
    )

    widths = (12, 16, 16, 16)
    lines = ["Fig. 11: exploration-time analysis (at ~300 s per design evaluation)",
             format_row(("strategy", "evaluations", "duration[hrs]", "duration[yrs]"),
                        widths)]
    for name in ("exhaustive", "heuristic", "algorithm1"):
        estimate = comparison[name]
        lines.append(format_row((
            name, estimate.evaluations, estimate.duration_hours,
            estimate.duration_years), widths))
    speedup = comparison["algorithm1"].speedup_over(comparison["heuristic"])
    lines.append("")
    lines.append(f"Algorithm 1 vs heuristic speedup: {speedup:.1f}x "
                 "(paper: ~23.6x on average)")
    lines.append(f"measured evaluator calls during Algorithm 1: {measured_evaluations}")

    # The same strategy, actually executed through the runtime, and what the
    # paper's ~300 s/eval serial model charges for that work.
    telemetry = runtime.telemetry
    modeled_s = telemetry.modeled_duration_s()
    stage_stats = runtime.stage_stats
    lines.append("")
    lines.append("executed exploration (this reproduction, serial runtime):")
    lines.append(
        f"  algorithm1: {telemetry.evaluations} evaluations "
        f"(+{telemetry.cache_hits} cache hits), {modeled_s:.0f} s modeled"
    )
    lines.append(
        f"  stage-graph reuse: {stage_stats.total_hits} of "
        f"{stage_stats.total_hits + stage_stats.total_computes} stage runs "
        f"served from the signal store "
        f"({stage_stats.hit_rate() * 100:.1f}% hit rate)"
    )
    write_report("fig11_exploration_time", lines)

    assert comparison["exhaustive"].duration_years > 1.0
    assert comparison["heuristic"].evaluations == 81
    assert comparison["algorithm1"].evaluations < comparison["heuristic"].evaluations
    assert speedup > 2.0
    # The executed run: every count, and stage-level reuse.
    assert (telemetry.evaluations, telemetry.cache_hits) == (27, 7)
    assert modeled_s == 34 * 300.0
    assert stage_stats.total_hits > 0
