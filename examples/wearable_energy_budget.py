#!/usr/bin/env python3
"""Wearable energy budget: what XBioSiP buys at the sensor-node level (Fig. 1).

Combines the sensor-node energy model (sensing / processing / communication
per day) with the hardware energy reduction of an approximate Pan-Tompkins
processor to estimate the battery-lifetime extension of an ECG wearable.

Run with:  python examples/wearable_energy_budget.py
"""

from repro.core import paper_configuration
from repro.energy import (
    BIO_SIGNAL_NODES,
    lifetime_extension_factor,
    software_energy_per_sample_j,
)
from repro.energy.stage_costs import accurate_stage_cost
from repro.dsp import STAGE_NAMES
from repro.runtime import ExplorationRuntime
from repro.signals import load_record


def main() -> None:
    # Per-day energy breakdown of the five monitored bio-signals (Fig. 1).
    print(f"{'node':<20} {'sensing[J/d]':>14} {'total[J/d]':>12} {'processing':>11}")
    for node in BIO_SIGNAL_NODES:
        print(f"{node.name:<20} {node.sensing_j_per_day:>14.2e} "
              f"{node.total_j_per_day:>12.1f} {node.processing_fraction * 100:>10.0f}%")
    print()

    # Hardware vs software execution energy (configurations A2 vs A1).
    accurate_fj = sum(accurate_stage_cost(stage).energy_fj for stage in STAGE_NAMES)
    software_j = software_energy_per_sample_j()
    print(f"accurate ASIC datapath : {accurate_fj:8.0f} fJ per sample (A2)")
    print(f"Raspberry Pi software  : {software_j:8.2e} J per sample (A1, "
          f"~{software_j / (accurate_fj * 1e-15):.0e}x higher)\n")

    # Evaluate an approximate design and translate it into battery lifetime.
    record = load_record("16483", duration_s=10.0)
    evaluator = ExplorationRuntime([record], executor="serial")
    for name in ("B1", "B7", "B8"):
        evaluation = evaluator.evaluate(paper_configuration(name))
        ecg_node = next(n for n in BIO_SIGNAL_NODES if n.name == "ecg")
        lifetime = lifetime_extension_factor(ecg_node, evaluation.energy_reduction)
        print(f"design {name}: {evaluation.energy_reduction:5.1f}x processing-energy "
              f"reduction at {evaluation.peak_accuracy * 100:5.1f}% accuracy "
              f"-> ECG-node lifetime x{lifetime:.2f}")


if __name__ == "__main__":
    main()
