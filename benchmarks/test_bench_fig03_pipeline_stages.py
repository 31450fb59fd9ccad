"""Fig. 3 — the Pan-Tompkins pipeline itself (stage-by-stage signal overview).

The paper's Fig. 3 is the block diagram of the five stages plus adaptive
thresholding.  This script runs the accurate pipeline (the baseline every
approximate design is compared against) on an NSRDB-like record and reports
per-stage signal statistics and the detected beats.
"""

import numpy as np
from conftest import format_row, write_report

from repro.dsp import PanTompkinsPipeline, pan_tompkins_stages, total_group_delay_samples
from repro.metrics import match_peaks


def _report(record, result):
    widths = (24, 10, 10, 10, 12)
    lines = ["Fig. 3: accurate Pan-Tompkins pipeline, stage-by-stage overview",
             f"record {record.name}: {record.duration_s:.0f} s, "
             f"{record.beat_count} annotated beats",
             format_row(("stage", "min", "max", "rms", "operators"), widths)]
    for stage in pan_tompkins_stages():
        output = result.stage_outputs[stage.name]
        rms = float(np.sqrt(np.mean(output.astype(np.float64) ** 2)))
        operators = f"{stage.n_adders}A/{stage.n_multipliers}M"
        lines.append(format_row((stage.name, int(output.min()), int(output.max()),
                                 rms, operators), widths))
    matching = match_peaks(record.r_peak_indices, result.peak_indices,
                           tolerance_samples=40,
                           expected_delay_samples=total_group_delay_samples())
    lines.append("")
    lines.append(f"detected peaks: {result.peak_count} / {record.beat_count} "
                 f"(sensitivity {matching.sensitivity * 100:.1f}%, "
                 f"PPV {matching.positive_predictivity * 100:.1f}%)")
    lines.append(f"estimated heart rate: {result.heart_rate_bpm():.1f} bpm "
                 f"(ground truth {record.mean_heart_rate_bpm():.1f} bpm)")
    return lines


def test_fig03_pipeline(bench_record):
    result = PanTompkinsPipeline().process(bench_record.samples)
    lines = _report(bench_record, result)
    write_report("fig03_pipeline_stages", lines)
    assert result.peak_count == bench_record.beat_count
