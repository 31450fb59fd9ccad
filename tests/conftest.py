"""Shared fixtures for the test suite.

Pipeline-level tests use short (a few seconds) synthetic records so the whole
suite stays fast; the signals still contain enough beats for the detection
logic and the quality metrics to be meaningful.
"""

from __future__ import annotations

import pytest

from repro.runtime import ExplorationRuntime
from repro.signals import load_record


@pytest.fixture(scope="session")
def short_record():
    """A ~8 s synthetic NSRDB-like record (deterministic)."""
    return load_record("16265", duration_s=8.0)


@pytest.fixture(scope="session")
def second_record():
    """A second record with different heart rate / noise."""
    return load_record("16272", duration_s=8.0)


@pytest.fixture(scope="session")
def clean_record():
    """A noise-free record (useful for reference-pipeline comparisons)."""
    return load_record("16420", duration_s=8.0, include_noise=False)


@pytest.fixture(scope="session")
def evaluator(short_record):
    """A session-wide serial runtime over the short record."""
    return ExplorationRuntime([short_record], executor="serial")


@pytest.fixture(scope="session")
def two_record_evaluator(short_record, second_record):
    """Serial runtime over two records (exercises aggregation)."""
    return ExplorationRuntime([short_record, second_record], executor="serial")
