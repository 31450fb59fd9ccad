"""Report helpers of the paper-figure scripts.

Each script writes its reproduced rows to ``benchmarks/results/<name>.txt``
with :func:`write_report`.  The module has its own name, not ``conftest``,
so ``from bench_report import ...`` finds it whichever ``conftest`` pytest
imported last.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_report(name: str, lines: Iterable[str]) -> str:
    """Write a reproduced table to ``benchmarks/results/<name>.txt`` and stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"\n[{name}]")
    print(text)
    return path


def format_row(values: Sequence[object], widths: Sequence[int]) -> str:
    """Fixed-width row formatting for the text reports."""
    cells = []
    for value, width in zip(values, widths):
        if isinstance(value, float):
            cells.append(f"{value:>{width}.2f}")
        else:
            cells.append(f"{str(value):>{width}}")
    return "  ".join(cells)
