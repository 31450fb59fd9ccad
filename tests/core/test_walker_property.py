"""The stage-graph walker's caller agrees with the memo-less pipeline.

``StageGraphMemo.walk`` derives every node key; its one caller,
``PanTompkinsPipeline.process``, only resolves each node.  Whatever design
and memo state it starts from, the run through the memo must reproduce
``process`` without a memo bit for bit, in every stage output and every
peak.  A fresh memo over the same store then computes nothing: the keys the
walk derives are the keys of the nodes it stored.  Designs and donors are
drawn: per-stage LSB counts 0..16 with any of the 18 cell pairings, so the
walk meets LSB counts and cells no Fig. 12 design sets.

A drawn design also runs end to end: as an ``evaluate`` job on a service
runtime, and replayed from the SQLite result cache that job filled.  Both
must serialize to the memo-less ``run_design_evaluation`` document, so the
result-cache key finds the evaluation it stored and nothing else.  The job
API names no cells, so these designs draw LSB counts over the default ones.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import ADDER_CELLS, MULTIPLIER_CELLS
from repro.arithmetic.compiled import _REGISTRY
from repro.core import DesignPoint, StageGraphMemo
from repro.core.quality import run_design_evaluation
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import STAGE_NAMES
from repro.runtime import ExplorationRuntime, SQLiteResultCache, SQLiteSignalStore
from repro.runtime.cache import serialize_evaluation
from repro.service.jobs import JobRequest
from repro.service.scheduler import RuntimeProvider
from repro.signals import load_record

#: Per-stage LSB counts, 0 (accurate) to 16.
LSBS = st.fixed_dictionaries({name: st.integers(0, 16) for name in STAGE_NAMES})

#: Every (multiplier, adder) cell pairing of the library: 3 x 6 = 18.
CELL_PAIRINGS = tuple(
    (multiplier, adder)
    for multiplier in sorted(MULTIPLIER_CELLS)
    for adder in sorted(ADDER_CELLS)
)

#: A drawn design: LSB counts per stage over one cell pairing.
DESIGNS = st.builds(
    lambda lsbs, cells: DesignPoint.from_lsbs(
        lsbs, multiplier=cells[0], adder=cells[1]
    ),
    LSBS,
    st.sampled_from(CELL_PAIRINGS),
)

#: What the memo holds before the run: there is no memo, it is empty, it
#: holds the nodes of an offline run, or its store is a SQLite file another
#: memo filled, reopened.
MEMO_STATES = ("none", "cold", "offline", "sqlite")


def _pipeline(design: DesignPoint) -> PanTompkinsPipeline:
    return PanTompkinsPipeline(backends=design.backends())


def _memo(state, donor, samples, stores, tmp_path_factory):
    """A memo in ``state``, its nodes computed by the ``donor`` design."""
    if state == "none":
        return None
    if state == "sqlite":
        path = str(tmp_path_factory.mktemp("walk") / "nodes.sqlite")
        with contextlib.closing(SQLiteSignalStore(path)) as filler:
            _pipeline(donor).process(samples, memo=StageGraphMemo(store=filler))
        store = stores.enter_context(contextlib.closing(SQLiteSignalStore(path)))
        return StageGraphMemo(store=store)
    memo = StageGraphMemo()
    if state == "offline":
        _pipeline(donor).process(samples, memo=memo)
    return memo


def _assert_bit_identical(result, reference) -> None:
    assert list(result.stage_outputs) == list(reference.stage_outputs)
    for name, expected in reference.stage_outputs.items():
        assert result.stage_outputs[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(result.stage_outputs[name], expected)
    assert result.detection.peak_indices == reference.detection.peak_indices


#: 600 samples: past the 400-sample threshold learning window.
DURATION_S = 3.0


@pytest.fixture(scope="module")
def record():
    return load_record("16265", duration_s=DURATION_S)


@pytest.fixture(scope="module")
def samples(record):
    return np.asarray(record.samples, dtype=np.int64)


# Each memo state is its own case, so every state is drawn for.
@pytest.mark.parametrize("state", MEMO_STATES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(design=DESIGNS, donor=DESIGNS)
def test_the_walker_matches_the_memo_less_pipeline(
    samples, tmp_path_factory, state, design, donor
):
    try:
        reference = _pipeline(design).process(samples)
        with contextlib.ExitStack() as stores:
            memo = _memo(state, donor, samples, stores, tmp_path_factory)
            offline = _pipeline(design).process(samples, memo=memo)
            _assert_bit_identical(offline, reference)
            if memo is not None:
                # A fresh memo over the run's store, as a later process
                # opens it, finds all five nodes under the keys it walks to.
                fresh = StageGraphMemo(store=memo.store)
                again = _pipeline(design).process(samples, memo=fresh)
                _assert_bit_identical(again, reference)
                assert fresh.stats.total_computes == 0
    finally:
        # Each drawn design compiles tables no other test reads.
        _REGISTRY.clear()


@settings(max_examples=8, deadline=None, derandomize=True)
@given(lsbs=LSBS)
def test_service_and_replay_match_the_memo_less_evaluation(
    record, tmp_path_factory, lsbs
):
    design = DesignPoint.from_lsbs(lsbs, name="drawn")
    path = str(tmp_path_factory.mktemp("results") / "results.sqlite")
    request = JobRequest.from_payload({
        "kind": "evaluate",
        "records": [record.name],
        "duration_s": DURATION_S,
        "designs": [{"name": "drawn", "lsbs": lsbs}],
    })
    try:
        accurate = {record.name: PanTompkinsPipeline().process(record.samples)}
        expected = serialize_evaluation(
            run_design_evaluation(design, [record], accurate)
        )
        with contextlib.closing(SQLiteResultCache(path)) as cache:
            service = RuntimeProvider(cache=cache)
            document = request.execute(service.runtime_for(request))
        assert document["evaluations"] == [expected]
        # A later runtime over the reopened file replays it without computing.
        with contextlib.closing(SQLiteResultCache(path)) as cache:
            replay = ExplorationRuntime([record], cache=cache)
            evaluation = replay.evaluate(design)
            assert cache.stats.hits == 1 and replay.evaluation_count == 0
        assert serialize_evaluation(evaluation) == expected
    finally:
        _REGISTRY.clear()
