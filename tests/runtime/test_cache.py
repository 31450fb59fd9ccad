"""Result caches: the evaluation codec and backend selection.

The behaviour every store shares (round trips, caps, corruption, reopen) is
checked once for both tiers in ``test_stores.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import DesignPoint
from repro.runtime import ExplorationRuntime
from repro.runtime.cache import (
    EVALUATIONS,
    MemoryResultCache,
    SQLiteResultCache,
    deserialize_evaluation,
    open_cache,
    serialize_evaluation,
)


@pytest.fixture(scope="module")
def sample_evaluation(tiny_record):
    runtime = ExplorationRuntime([tiny_record])
    return runtime.evaluate(
        DesignPoint.from_lsbs({"lpf": 6, "hpf": 4}, name="sample",
                              description="cache round-trip sample")
    )


class TestSerialization:
    def test_round_trip_preserves_everything(self, sample_evaluation):
        restored = deserialize_evaluation(
            json.loads(json.dumps(serialize_evaluation(sample_evaluation)))
        )
        assert restored == sample_evaluation
        assert restored.design.name == "sample"
        assert restored.per_record_accuracy == sample_evaluation.per_record_accuracy

    def test_codec_payload_is_canonical_json(self, sample_evaluation):
        payload = EVALUATIONS.encode(sample_evaluation)
        assert json.loads(payload) == serialize_evaluation(sample_evaluation)
        assert EVALUATIONS.encode(EVALUATIONS.decode(payload)) == payload


class TestOpenCache:
    def test_backend_selection(self, tmp_path):
        assert isinstance(open_cache(None), MemoryResultCache)
        # Any path is a SQLite file, whatever its name.
        for name in ("c.sqlite", "cache-dir"):
            sqlite = open_cache(str(tmp_path / name))
            assert isinstance(sqlite, SQLiteResultCache)
            sqlite.close()

    def test_caches_are_unbounded_by_default(self, tmp_path):
        sqlite = open_cache(str(tmp_path / "c.sqlite"))
        for cache in (open_cache(None), sqlite, MemoryResultCache()):
            assert cache.max_entries is None and cache.max_bytes is None
        sqlite.close()

    def test_caps_are_forwarded(self, tmp_path):
        assert open_cache(None, max_entries=7).max_entries == 7
        sqlite = open_cache(str(tmp_path / "c.sqlite"), max_entries=7, max_bytes=4096)
        assert (sqlite.max_entries, sqlite.max_bytes) == (7, 4096)
        sqlite.close()
        with pytest.raises(ValueError):
            open_cache(None, max_bytes=4096)  # memory backend has no bytes

    def test_caps_can_be_passed_by_position(self, tmp_path):
        assert MemoryResultCache(5).max_entries == 5
        sqlite = SQLiteResultCache(str(tmp_path / "c.sqlite"), 5, 4096)
        assert (sqlite.max_entries, sqlite.max_bytes) == (5, 4096)
        assert sqlite.codec is EVALUATIONS
        sqlite.close()
