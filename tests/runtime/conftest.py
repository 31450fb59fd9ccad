"""Fixtures for the exploration-runtime tests.

The runtime tests run real pipeline evaluations (that is the point: cached
and concurrent execution must be bit-identical to the memo-less pipeline), so
they use a very short record to keep the suite fast.
"""

from __future__ import annotations

import pytest

from repro.core import DesignPoint
from repro.signals import load_record

#: Short enough to keep full-methodology runs affordable, long enough to
#: contain several beats.
TINY_DURATION_S = 4.0


@pytest.fixture(scope="session")
def tiny_record():
    """A ~4 s record for runtime tests (deterministic)."""
    return load_record("16265", duration_s=TINY_DURATION_S)


@pytest.fixture(scope="session")
def design_grid():
    """A small mixed batch of design points (including a duplicate)."""
    return [
        DesignPoint.accurate("A2"),
        DesignPoint.from_lsbs({"lpf": 4}, name="a"),
        DesignPoint.from_lsbs({"lpf": 8, "hpf": 8}, name="b"),
        DesignPoint.from_lsbs({"hpf": 12}, name="c"),
        # Same content as "a" under a different label: must be deduplicated.
        DesignPoint.from_lsbs({"lpf": 4}, name="a-again"),
    ]
