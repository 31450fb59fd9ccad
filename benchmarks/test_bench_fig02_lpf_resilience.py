"""Fig. 2 — error resilience of the low-pass filter stage.

Sweeps the number of approximated output LSBs in the LPF (all other stages
accurate) and reports the area / latency / power / energy reductions together
with SSIM and peak-detection accuracy — the two y-axes of the paper's figure.
"""

from conftest import format_row, write_report

from repro.core import analyze_stage_resilience


def _sweep(bench_evaluator):
    return analyze_stage_resilience("lpf", bench_evaluator,
                                    lsb_values=list(range(0, 17, 2)))


def _report(profile):
    widths = (6, 10, 10, 10, 10, 8, 8, 10)
    lines = ["Fig. 2: error resilience of the Low Pass Filter stage",
             format_row(("LSBs", "energy[x]", "area[x]", "power[x]", "latency[x]",
                         "PSNR", "SSIM", "accuracy"), widths)]
    for row in profile.as_table():
        lines.append(format_row((
            row["lsbs"], row["energy_reduction"], row["area_reduction"],
            row["power_reduction"], row["latency_reduction"], row["psnr_db"],
            row["ssim"], row["peak_accuracy"]), widths))
    lines.append("")
    lines.append(f"error-resilience threshold (100% accuracy): "
                 f"{profile.error_resilience_threshold()} LSBs "
                 "(paper: 14 LSBs)")
    lines.append(f"max energy reduction at 100% accuracy: "
                 f"{profile.max_energy_reduction():.1f}x (paper: ~5x)")
    return lines


def test_fig02_lpf_resilience(bench_evaluator):
    profile = _sweep(bench_evaluator)
    lines = _report(profile)
    write_report("fig02_lpf_resilience", lines)
    # Qualitative claims of the figure.
    assert profile.point_for(0).peak_accuracy == 1.0
    assert profile.error_resilience_threshold() >= 6
    assert profile.max_energy_reduction() > 2.0
    ssims = [p.ssim_value for p in profile.points]
    assert ssims[1] > ssims[-1]  # SSIM collapses long before accuracy does
