"""Shared fixtures and reporting helpers for the paper-figure scripts.

Every module regenerates one table or figure of the paper (or the Fig. 12
stage-reuse counts), asserts its claims, and writes the reproduced
rows/series to ``benchmarks/results/<name>.txt`` so the numbers can be
inspected after a captured pytest run.  The reports hold counts and model
figures, never timings, so every run rewrites them byte for byte and leaves
the tree clean.  Timings belong to ``perfbench/``.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, Sequence

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.runtime import ExplorationRuntime  # noqa: E402
from repro.signals import load_record  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Record length used by the benchmark harness.  The paper processes 20,000
#: samples (100 s); 10 s keeps the full harness runnable in minutes while
#: containing enough beats (~10) for the quality metrics.
BENCH_DURATION_S = 10.0
BENCH_RECORDS = ("16265", "16272")


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


@pytest.fixture(scope="session")
def bench_record():
    """Primary benchmark record (NSRDB-like, 10 s)."""
    return load_record(BENCH_RECORDS[0], duration_s=BENCH_DURATION_S)


@pytest.fixture(scope="session")
def bench_records():
    """Two benchmark records."""
    return [load_record(name, duration_s=BENCH_DURATION_S) for name in BENCH_RECORDS]


@pytest.fixture(scope="session")
def bench_evaluator(bench_record):
    """Session-wide serial runtime over the primary record."""
    return ExplorationRuntime([bench_record])
