"""Table 1 — synthesis results of the elementary adder / multiplier library.

Regenerates the per-module area / delay / power / energy table and
additionally characterises each approximate cell's error statistics (the
behavioural counterpart of the synthesis numbers).
"""

from conftest import format_row, write_report

from repro.arithmetic import ADDER_CELLS, MULTIPLIER_CELLS, RippleCarryAdder, adder_cell
from repro.energy import adder_cost, multiplier_cost, recursive_multiplier_cost, ripple_carry_adder_cost
from repro.metrics import error_statistics, exhaustive_operand_pairs


def _table_lines():
    widths = (12, 10, 9, 10, 11, 8, 8)
    lines = ["Table 1: elementary module library (65 nm synthesis numbers)",
             format_row(("module", "area[um2]", "delay[ns]", "power[uW]",
                         "energy[fJ]", "sum_err", "cout_err"), widths)]
    for name in ("Accurate", "ApproxAdd1", "ApproxAdd2", "ApproxAdd3",
                 "ApproxAdd4", "ApproxAdd5"):
        cost = adder_cost(name)
        cell = ADDER_CELLS[name]
        lines.append(format_row(
            (name, cost.area_um2, cost.delay_ns, cost.power_uw, cost.energy_fj,
             cell.sum_errors, cell.cout_errors), widths))
    lines.append(format_row(("module", "area[um2]", "delay[ns]", "power[uW]",
                             "energy[fJ]", "errors", "max_err"), widths))
    for name in ("AccMult", "AppMultV1", "AppMultV2"):
        cost = multiplier_cost(name)
        cell = MULTIPLIER_CELLS[name]
        lines.append(format_row(
            (name, cost.area_um2, cost.delay_ns, cost.power_uw, cost.energy_fj,
             cell.error_count, cell.max_error_magnitude), widths))

    lines.append("")
    lines.append("Composed blocks (paper datapath): 32-bit adder / 16x16 multiplier")
    adder32 = ripple_carry_adder_cost(32, 0)
    mult16 = recursive_multiplier_cost(16, 0, "AccMult", "Accurate")
    lines.append(f"  accurate 32-bit RCA     : {adder32.energy_fj:8.2f} fJ")
    lines.append(f"  accurate 16x16 multiplier: {mult16.energy_fj:8.2f} fJ")

    lines.append("")
    lines.append("Behavioural error statistics of 8-bit adders built from each cell")
    for name in ADDER_CELLS:
        cell = adder_cell(name)
        rca = RippleCarryAdder(8, 4, cell)
        stats = error_statistics(
            lambda a, b, _rca=rca: _rca.add_unsigned(a, b),
            lambda a, b: (a + b) & 0xFF,
            exhaustive_operand_pairs(6),
        )
        lines.append(f"  {name:<12} (4 approx LSBs): {stats}")
    return lines


def test_table1_report():
    lines = _table_lines()
    write_report("table1_synthesis", lines)
    assert any("ApproxAdd5" in line for line in lines)
