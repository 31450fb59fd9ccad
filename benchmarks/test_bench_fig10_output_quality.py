"""Fig. 10 — output quality of accurate vs approximate processing units.

The paper approximates 4 LSBs at all five stages, observes a high-pass output
PSNR of ~19 dB relative to the accurate signal, 100% peak detection for the
excerpt, and ~7x lower energy.  This benchmark regenerates that comparison.
"""

from bench_report import write_report

from repro.core import DesignPoint
from repro.dsp import PanTompkinsPipeline, total_group_delay_samples
from repro.metrics import match_peaks, psnr, ssim


def _compare(record):
    accurate = PanTompkinsPipeline().process(record.samples)
    design = DesignPoint.from_lsbs(
        {"lpf": 4, "hpf": 4, "der": 4, "sqr": 4, "mwi": 4}, name="uniform-4lsb"
    )
    approximate = PanTompkinsPipeline(backends=design.backends()).process(record.samples)
    return accurate, approximate, design


def _report(record, accurate, approximate, design):
    delay = total_group_delay_samples()
    acc_match = match_peaks(record.r_peak_indices, accurate.peak_indices, 40, delay)
    app_match = match_peaks(record.r_peak_indices, approximate.peak_indices, 40, delay)
    quality_psnr = psnr(accurate.preprocessed, approximate.preprocessed)
    quality_ssim = ssim(accurate.preprocessed, approximate.preprocessed)
    lines = [
        "Fig. 10: accurate vs approximate processing (4 LSBs at all five stages)",
        f"record {record.name}: {record.beat_count} annotated beats",
        f"accurate   : {accurate.peak_count} peaks detected "
        f"(sensitivity {acc_match.sensitivity * 100:.0f}%)",
        f"approximate: {approximate.peak_count} peaks detected "
        f"(sensitivity {app_match.sensitivity * 100:.0f}%)",
        f"high-pass output PSNR : {quality_psnr:.2f} dB   (paper: 19.24 dB)",
        f"high-pass output SSIM : {quality_ssim:.3f}",
        f"energy reduction      : {design.energy_reduction():.1f}x (paper: ~7x)",
    ]
    return lines, app_match, quality_psnr


def test_fig10_output_quality(bench_record):
    accurate, approximate, design = _compare(bench_record)
    lines, app_match, quality_psnr = _report(bench_record, accurate, approximate, design)
    write_report("fig10_output_quality", lines)
    # The figure's claims: same number of peaks, finite PSNR, real energy gain.
    assert app_match.sensitivity == 1.0
    assert approximate.peak_count == accurate.peak_count
    assert 10.0 < quality_psnr < 80.0
    assert design.energy_reduction() > 2.0
