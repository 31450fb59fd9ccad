#!/usr/bin/env python3
"""Design-space exploration of the pre-processing stages (Table 2 / Fig. 11).

Compares the paper's three exploration strategies on the LPF + HPF design
space:

* the exhaustive 9x9 grid (every LSB combination, shared ApproxAdd5/AppMultV1),
* the best feasible design it contains (the "heuristic" baseline), and
* the three-phase design generation methodology (Algorithm 1), which reaches
  a comparable design while evaluating only a handful of points.

Run with:  python examples/design_space_exploration.py
"""

from repro.core import (
    QualityConstraint,
    analyze_stage_resilience,
    compare_strategies,
    exhaustive_search,
    generate_design,
    pareto_front,
    preprocessing_design_space,
)
from repro.runtime import ExplorationRuntime
from repro.signals import load_record


def main() -> None:
    record = load_record("16265", duration_s=10.0)
    evaluator = ExplorationRuntime([record])
    constraint = QualityConstraint("psnr", 22.0)

    # --- exhaustive / heuristic baseline -----------------------------------
    space = preprocessing_design_space(lsb_step=4)  # 5x5 grid for a quick demo
    evaluations = exhaustive_search(space, evaluator)
    feasible = [e for e in evaluations if constraint.satisfied_by(e)]
    best = max(feasible, key=lambda e: e.energy_reduction)
    print(f"exhaustive grid: {len(evaluations)} designs evaluated, "
          f"{len(feasible)} satisfy {constraint}")
    print(f"best grid design: {best.summary()}\n")

    print("Pareto front (accuracy vs energy) of the grid:")
    for evaluation in pareto_front(evaluations):
        print(f"  {evaluation.summary()}")
    print()

    # --- Algorithm 1 --------------------------------------------------------
    profiles = {
        "low_pass": analyze_stage_resilience("lpf", evaluator),
        "high_pass": analyze_stage_resilience("hpf", evaluator),
    }
    result = generate_design(profiles, evaluator, constraint,
                             stages=("low_pass", "high_pass"))
    print(f"Algorithm 1 evaluated {result.trace.evaluated_designs} designs "
          f"and selected: {result.design.summary()}")
    print(f"  energy reduction {result.energy_reduction:.1f}x, "
          f"PSNR {result.evaluation.psnr_db:.1f} dB\n")

    # --- exploration-time comparison ----------------------------------------
    comparison = compare_strategies(
        heuristic_space=preprocessing_design_space(),
        algorithm1_evaluations=result.trace.evaluated_designs,
    )
    for name, estimate in comparison.items():
        print(f"{name:>11}: {estimate.evaluations:>12} evaluations "
              f"(~{estimate.duration_hours:.1f} h at 300 s/evaluation)")
    speedup = comparison["algorithm1"].speedup_over(comparison["heuristic"])
    print(f"\nAlgorithm 1 is {speedup:.1f}x faster than the heuristic enumeration "
          f"(paper: ~23.6x)")


if __name__ == "__main__":
    main()
