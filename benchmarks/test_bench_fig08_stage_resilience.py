"""Fig. 8(a)-(d) — error resilience of the remaining four application stages.

Sweeps the approximated output LSBs of the high-pass filter, differentiator,
squarer and moving-window integrator (one stage at a time, all others
accurate), reproducing the per-stage energy-reduction / quality curves and
the paper's qualitative observations about each stage.
"""

import pytest
from bench_report import format_row, write_report

from repro.core import analyze_stage_resilience

#: (stage, lsb sweep, paper observation) — the grids shown in Fig. 8.
STAGE_SWEEPS = [
    ("high_pass", list(range(0, 17, 2)),
     "large operator count -> biggest absolute savings; SSIM collapses early"),
    ("derivative", [0, 2, 4],
     "tiny coefficients -> approximation ineffective, limited savings"),
    ("squarer", list(range(0, 9, 2)),
     "single multiplier -> low approximation potential"),
    ("moving_window_integral", list(range(0, 17, 2)),
     "adders only -> extremely error resilient up to 16 LSBs"),
]


def _report(stage, profile, note):
    widths = (6, 10, 10, 10, 10, 8, 8, 10)
    lines = [f"Fig. 8: error resilience of the {stage} stage ({note})",
             format_row(("LSBs", "energy[x]", "area[x]", "power[x]", "latency[x]",
                         "PSNR", "SSIM", "accuracy"), widths)]
    for row in profile.as_table():
        lines.append(format_row((
            row["lsbs"], row["energy_reduction"], row["area_reduction"],
            row["power_reduction"], row["latency_reduction"], row["psnr_db"],
            row["ssim"], row["peak_accuracy"]), widths))
    lines.append(f"error-resilience threshold: {profile.error_resilience_threshold()} LSBs; "
                 f"max energy reduction at 100% accuracy: {profile.max_energy_reduction():.1f}x")
    return lines


@pytest.mark.parametrize("stage,lsbs,note", STAGE_SWEEPS,
                         ids=[s[0] for s in STAGE_SWEEPS])
def test_fig08_stage_resilience(bench_evaluator, stage, lsbs, note):
    profile = analyze_stage_resilience(stage, bench_evaluator, lsbs)
    write_report(f"fig08_{stage}_resilience", _report(stage, profile, note))

    # Qualitative checks per stage.
    assert profile.point_for(0).peak_accuracy == 1.0
    if stage == "moving_window_integral":
        assert profile.error_resilience_threshold() == 16
    if stage == "derivative":
        assert profile.error_resilience_threshold() >= 2
        assert profile.max_energy_reduction() < 2.0
    if stage == "high_pass":
        assert profile.max_energy_reduction() > 2.0
