"""Every caller of the stage-graph walker agrees with the memo-less pipeline.

``StageGraphMemo.walk`` derives every node key; its callers only say what to
do at each node.  Whatever Fig. 12 design, chunk split and memo state they
start from, three runs must reproduce ``PanTompkinsPipeline.process``
without a memo bit for bit, in every stage output and every peak:

* the offline run through the memo (each node resolved);
* a warm-started ``StreamingPipeline`` (leading nodes fetched, the stages it
  streams published by adoption when it finalises);
* an offline run after that stream published, which then computes nothing,
  through the same memo or a fresh one over the same store.

Chunks are at least 25 samples long, which bounds the per-push cost of the
all-approximate designs.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StageGraphMemo, paper_configuration
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.runtime import SQLiteSignalStore
from repro.signals import load_record
from repro.streaming import StreamingPipeline

#: The Fig. 12 designs: the accurate A2 and the approximate B1..B14.
FIG12 = ("A2",) + tuple(f"B{index}" for index in range(1, 15))

#: What the memo holds before the runs: there is no memo, it is empty, it
#: holds the nodes of an offline run or of a published stream, or its store
#: is a SQLite file another memo filled, reopened.
MEMO_STATES = ("none", "cold", "offline", "stream", "sqlite")


def _pipeline(name: str) -> PanTompkinsPipeline:
    return PanTompkinsPipeline(backends=paper_configuration(name).backends())


def _chunks(samples, sizes):
    """``samples`` in chunks whose sizes cycle through ``sizes``."""
    position, index = 0, 0
    while position < samples.size:
        size = sizes[index % len(sizes)]
        yield samples[position : position + size]
        position, index = position + size, index + 1


def _stream(name, samples, sizes, memo):
    """Stream ``samples`` chunk by chunk, warm-started when given a memo."""
    stream = StreamingPipeline.from_pipeline(_pipeline(name), memo=memo)
    if memo is not None:
        stream.warm_start(samples)
    for chunk in _chunks(samples, sizes):
        stream.push(chunk)
    return stream.finalize()


def _memo(state, donor, samples, sizes, stores, tmp_path_factory):
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
    elif state == "stream":
        _stream(donor, samples, sizes, memo)
    return memo


def _assert_bit_identical(result, reference) -> None:
    assert list(result.stage_outputs) == list(reference.stage_outputs)
    for name, expected in reference.stage_outputs.items():
        assert result.stage_outputs[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(result.stage_outputs[name], expected)
    assert result.detection.peak_indices == reference.detection.peak_indices


@pytest.fixture(scope="module")
def samples():
    # 600 samples: past the 400-sample threshold learning window.
    return np.asarray(load_record("16265", duration_s=3.0).samples, dtype=np.int64)


@pytest.fixture(scope="module")
def references(samples):
    """Memo-less results per design, computed once."""
    cache = {}

    def lookup(name):
        if name not in cache:
            cache[name] = _pipeline(name).process(samples)
        return cache[name]

    return lookup


# Each memo state is its own case, so every state is drawn for.
@pytest.mark.parametrize("state", MEMO_STATES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    design=st.sampled_from(FIG12),
    donor=st.sampled_from(FIG12),
    sizes=st.lists(st.integers(25, 250), min_size=1, max_size=6),
)
def test_every_walker_caller_matches_the_memo_less_pipeline(
    samples, references, tmp_path_factory, state, design, donor, sizes
):
    reference = references(design)
    with contextlib.ExitStack() as stores:

        def memo():
            return _memo(state, donor, samples, sizes, stores, tmp_path_factory)

        offline = _pipeline(design).process(samples, memo=memo())
        _assert_bit_identical(offline, reference)
        published = memo()
        _assert_bit_identical(_stream(design, samples, sizes, published), reference)
        computes = published.stats.total_computes if published else 0
        after = _pipeline(design).process(samples, memo=published)
        _assert_bit_identical(after, reference)
        if published is not None:
            # The stream published every stage under the offline walker's
            # keys: the same memo, and a fresh one over its store (as a
            # later process opens it), find all five nodes.
            assert published.stats.total_computes == computes
            fresh = StageGraphMemo(store=published.store)
            again = _pipeline(design).process(samples, memo=fresh)
            _assert_bit_identical(again, reference)
            assert fresh.stats.total_computes == 0
