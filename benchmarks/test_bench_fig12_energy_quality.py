"""Fig. 12 — energy-quality evaluation of the paper's hardware configurations.

Evaluates A1 (software on a Raspberry Pi, analytically modelled), A2 (accurate
hardware) and the fourteen approximate designs B1..B14 (per-stage LSB
assignments exactly as tabulated in the figure), reporting peak-detection
accuracy and energy reduction for each, and identifying the best designs with
zero / small accuracy loss — the paper's headline ~19.7x / ~22x results.
"""

from bench_report import format_row, write_report

from repro.core import paper_configuration, paper_configuration_names
from repro.energy import software_energy_per_sample_j
from repro.energy.stage_costs import accurate_stage_cost
from repro.dsp import STAGE_NAMES


def _evaluate_all(bench_evaluator):
    return {
        name: bench_evaluator.evaluate(paper_configuration(name))
        for name in paper_configuration_names()
    }


def test_fig12_energy_quality(bench_evaluator):
    evaluations = _evaluate_all(bench_evaluator)

    accurate_energy_fj = sum(accurate_stage_cost(s).energy_fj for s in STAGE_NAMES)
    a1_energy_j = software_energy_per_sample_j()
    a1_ratio = a1_energy_j / (accurate_energy_fj * 1e-15)

    widths = (6, 30, 12, 12, 10)
    lines = ["Fig. 12: energy-quality evaluation of the approximate designs",
             f"A1 (Raspberry Pi 3B+, software): {a1_energy_j:.2e} J/sample, "
             f"~{a1_ratio:.1e}x the accurate hardware (paper: ~7 orders of magnitude)",
             format_row(("config", "LSBs (lpf/hpf/der/sqr/mwi)", "accuracy[%]",
                         "energy[x]", "PSNR[dB]"), widths)]
    for name, evaluation in evaluations.items():
        lsbs = evaluation.design.lsbs_map()
        lsb_text = "/".join(str(lsbs[s]) for s in STAGE_NAMES)
        lines.append(format_row((
            name, lsb_text, evaluation.peak_accuracy * 100,
            evaluation.energy_reduction, min(evaluation.psnr_db, 99.9)), widths))

    lossless = [e for e in evaluations.values() if e.peak_accuracy >= 1.0]
    near_lossless = [e for e in evaluations.values() if e.peak_accuracy >= 0.95]
    best_lossless = max(lossless, key=lambda e: e.energy_reduction)
    best_near = max(near_lossless, key=lambda e: e.energy_reduction)
    lines.append("")
    lines.append(f"best design with 0% accuracy loss : {best_lossless.design.name} "
                 f"-> {best_lossless.energy_reduction:.1f}x (paper: B9, ~19.7x)")
    lines.append(f"best design with <5% accuracy loss: {best_near.design.name} "
                 f"-> {best_near.energy_reduction:.1f}x (paper: B10, ~22x)")
    write_report("fig12_energy_quality", lines)

    # Shape checks: A2 is lossless at 1x; some approximate design is lossless
    # with a large energy reduction; more aggressive designs trade accuracy.
    assert evaluations["A2"].peak_accuracy == 1.0
    assert evaluations["A2"].energy_reduction == 1.0
    assert best_lossless.energy_reduction > 4.0
    assert best_near.energy_reduction >= best_lossless.energy_reduction
    assert a1_ratio > 1e6
    assert max(e.energy_reduction for e in evaluations.values()) > 10.0
