#!/usr/bin/env python3
"""Quickstart: run the XBioSiP methodology end to end.

Loads a synthetic NSRDB-like ECG record, runs the accurate Pan-Tompkins
pipeline as a baseline, then lets the XBioSiP methodology pick an approximate
processing-unit configuration that keeps 100% peak-detection accuracy while
maximising the hardware energy reduction.

Run with:  python examples/quickstart.py
"""

from repro import XBioSiP, PanTompkinsPipeline, load_record
from repro.core import QualityConstraint
from repro.dsp import total_group_delay_samples
from repro.metrics import match_peaks


def main() -> None:
    # 1. A 15-second ECG excerpt with known R-peak annotations.
    record = load_record("16265", duration_s=15.0)
    print(f"record {record.name}: {record.duration_s:.0f} s, "
          f"{record.beat_count} beats, {record.mean_heart_rate_bpm():.0f} bpm")

    # 2. Accurate baseline: the pipeline must find every annotated beat.
    baseline = PanTompkinsPipeline().process(record.samples)
    matching = match_peaks(record.r_peak_indices, baseline.peak_indices,
                           tolerance_samples=40,
                           expected_delay_samples=total_group_delay_samples())
    print(f"accurate pipeline: {baseline.peak_count} peaks detected "
          f"(sensitivity {matching.sensitivity * 100:.0f}%)")

    # 3. XBioSiP: two-stage quality evaluation + three-phase design generation.
    #    The pre-processing constraint is the calibrated equivalent of the
    #    paper's PSNR >= 15 dB (see the calibration section of README.md);
    #    the final constraint is zero loss in peak-detection accuracy.
    methodology = XBioSiP(
        [record],
        preprocessing_constraint=QualityConstraint("psnr", 22.0),
    )
    result = methodology.run()

    print()
    print(result.report())
    print()
    print("per-stage approximation of the selected design:")
    for stage, lsbs in result.final_design.lsbs_map().items():
        print(f"  {stage:<24} {lsbs:>2} output LSBs approximated")


if __name__ == "__main__":
    main()
