"""Fig. 13 — heartbeat misclassification analysis of an approximate design.

The paper inspects design B10 and finds that approximation errors can create a
spurious peak just before the true QRS complex; the HPF/MWI alignment check
then rejects the candidate and the heartbeat is missed.  This benchmark
reproduces the analysis: it compares an aggressive approximate design against
the accurate pipeline on two records and classifies every divergence
(missed / extra / alignment-rejected).
"""

from conftest import write_report

from repro.core import analyze_misclassifications, paper_configuration
from repro.core.configurations import DesignPoint


def _analyze(records):
    reports = []
    for record in records:
        for design in (paper_configuration("B10"),
                       DesignPoint.from_lsbs({"lpf": 12, "hpf": 14}, name="aggressive")):
            reports.append(analyze_misclassifications(record, design))
    return reports


def test_fig13_misclassification(bench_records):
    reports = _analyze(bench_records)

    lines = ["Fig. 13: heartbeat misclassification analysis"]
    for report in reports:
        lines.append("")
        lines.append(report.summary())
        lines.append(f"  accuracy: {report.accuracy * 100:.1f}%  "
                     f"misclassification rate: {report.misclassification_rate * 100:.1f}%")
        if report.missed_beats:
            lines.append(f"  missed beat positions (samples): {report.missed_beats}")
        if report.extra_detections:
            lines.append(f"  spurious detections (samples): {report.extra_detections}")
        if report.alignment_rejections:
            lines.append(f"  candidates rejected by HPF/MWI alignment: "
                         f"{report.alignment_rejections}")
    write_report("fig13_misclassification", lines)

    # The accurate baseline detects everything; the aggressive design shows
    # the misclassification mechanism on at least one record.
    assert all(r.accurate_detections == r.true_beats for r in reports)
    aggressive = [r for r in reports if r.design_name == "aggressive"]
    assert any(r.missed_count > 0 or r.extra_count > 0 or r.alignment_rejections
               for r in aggressive)
