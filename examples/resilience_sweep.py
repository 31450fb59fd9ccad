#!/usr/bin/env python3
"""Error-resilience analysis of every Pan-Tompkins stage (Figs. 2 and 8).

For each of the five stages, sweeps the number of approximated output LSBs
(ApproxAdd5 + AppMultV1, all other stages accurate) and prints the hardware
reductions next to the signal quality and the end-to-end peak-detection
accuracy — the per-stage trade-off curves that feed the design generation
methodology.

Run with:  python examples/resilience_sweep.py
"""

from repro.core import analyze_stage_resilience
from repro.dsp import STAGE_NAMES
from repro.runtime import ExplorationRuntime
from repro.signals import load_record


def main() -> None:
    record = load_record("16272", duration_s=12.0)
    evaluator = ExplorationRuntime([record], executor="serial")
    print(f"record {record.name}: {record.beat_count} beats in {record.duration_s:.0f} s\n")

    for stage in STAGE_NAMES:
        profile = analyze_stage_resilience(stage, evaluator)
        print(f"=== {stage} ===")
        print(f"{'LSBs':>5} {'energy':>8} {'area':>8} {'power':>8} "
              f"{'SSIM':>7} {'accuracy':>9}")
        for point in profile.points:
            print(f"{point.lsbs:>5} {point.energy_reduction:>7.1f}x "
                  f"{point.area_reduction:>7.1f}x {point.power_reduction:>7.1f}x "
                  f"{point.ssim_value:>7.3f} {point.peak_accuracy * 100:>8.1f}%")
        threshold = profile.error_resilience_threshold()
        print(f"error-resilience threshold: {threshold} LSBs "
              f"(max energy reduction at 100% accuracy: "
              f"{profile.max_energy_reduction():.1f}x)\n")


if __name__ == "__main__":
    main()
