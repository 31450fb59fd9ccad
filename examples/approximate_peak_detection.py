#!/usr/bin/env python3
"""Approximate QRS detection: quality vs energy of the Fig. 12 configurations.

Evaluates the paper's named hardware configurations (A2, B1..B14) on several
synthetic NSRDB-like records, prints the energy-quality table, and runs the
heartbeat-misclassification analysis (Fig. 13) on the most interesting design.

Run with:  python examples/approximate_peak_detection.py
"""

from repro.core import (
    analyze_misclassifications,
    paper_configuration,
    paper_configuration_names,
    pareto_front,
)
from repro.runtime import ExplorationRuntime
from repro.signals import load_record


def main() -> None:
    records = [load_record(name, duration_s=10.0) for name in ("16265", "16272", "16420")]
    evaluator = ExplorationRuntime(records)
    total_beats = sum(record.beat_count for record in records)
    print(f"{len(records)} records, {total_beats} annotated beats\n")

    evaluations = []
    print(f"{'config':<8} {'accuracy':>9} {'energy':>8} {'PSNR':>7}  per-stage LSBs")
    for name in paper_configuration_names():
        evaluation = evaluator.evaluate(paper_configuration(name))
        evaluations.append(evaluation)
        lsbs = "/".join(str(v) for v in evaluation.design.lsbs_map().values())
        print(f"{name:<8} {evaluation.peak_accuracy * 100:>8.1f}% "
              f"{evaluation.energy_reduction:>7.1f}x {min(evaluation.psnr_db, 99.9):>6.1f}  {lsbs}")

    print("\nPareto-optimal designs (accuracy vs energy reduction):")
    for evaluation in pareto_front(evaluations):
        print(f"  {evaluation.summary()}")

    # Fig. 13: why does an aggressive design miss beats?
    design = paper_configuration("B10")
    print(f"\nmisclassification analysis of {design.name}:")
    for record in records:
        report = analyze_misclassifications(record, design)
        print(f"  {report.summary()}")


if __name__ == "__main__":
    main()
