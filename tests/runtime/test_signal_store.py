"""Intermediate-signal stores: dispatch and stage-graph integration.

The stage-memoization correctness matrix runs here: for each store (memory /
SQLite), evaluation through a stage graph backed by that store must be
bit-identical to cold execution.  The behaviour every store shares is
checked once for both tiers in ``test_stores.py``.
"""

from __future__ import annotations

import contextlib
import sqlite3

import numpy as np
import pytest

from repro.core import DesignPoint, paper_configuration
from repro.core.quality import run_design_evaluation
from repro.core.stage_graph import MemoryStageStore
from repro.runtime import ExplorationRuntime
from repro.runtime.signal_store import (
    MemorySignalStore,
    SQLiteSignalStore,
    open_signal_store,
)

BACKENDS = ("memory", "sqlite")


def make_store(kind: str, tmp_path, max_entries=None, tag=""):
    if kind == "memory":
        return MemorySignalStore(max_entries=max_entries)
    return SQLiteSignalStore(
        str(tmp_path / f"signals{tag}.sqlite"), max_entries=max_entries
    )


# ---------------------------------------------------------------- dispatch
class TestOpenSignalStore:
    def test_backend_selection(self, tmp_path):
        assert MemorySignalStore is MemoryStageStore
        assert isinstance(open_signal_store(None), MemorySignalStore)
        # Any path is a SQLite file, whatever its name.
        for name in ("s.sqlite", "signals-dir"):
            sqlite = open_signal_store(str(tmp_path / name))
            assert isinstance(sqlite, SQLiteSignalStore)
            sqlite.close()

    def test_signal_stores_keep_512_entries_by_default(self, tmp_path):
        sqlite = SQLiteSignalStore(str(tmp_path / "s.sqlite"))
        for store in (MemoryStageStore(), MemorySignalStore(), sqlite,
                      open_signal_store(None)):
            assert store.max_entries == 512 and store.max_bytes is None
        sqlite.close()

    def test_caps_are_forwarded(self, tmp_path):
        assert open_signal_store(None, max_entries=7).max_entries == 7
        sqlite = open_signal_store(
            str(tmp_path / "s.sqlite"), max_entries=None, max_bytes=8192
        )
        assert (sqlite.max_entries, sqlite.max_bytes) == (None, 8192)
        sqlite.close()
        with pytest.raises(ValueError):
            open_signal_store(None, max_bytes=8192)

    def test_a_table_written_under_the_v1_content_hash_is_purged_once(
        self, tmp_path
    ):
        # input-addressed-v1 hashed a JSON header, not the payload, so its
        # node keys name other bits: the rows are stale, not corrupt.
        path = str(tmp_path / "v1.sqlite")
        with contextlib.closing(SQLiteSignalStore(path)) as store:
            assert store.codec.tag == "input-addressed-v2/ndarray-v1"
            for key in ("a", "b"):
                store.put(key, np.arange(8, dtype=np.int64))
        with contextlib.closing(sqlite3.connect(path)) as connection:
            with connection:
                connection.execute(
                    "UPDATE meta SET value = 'input-addressed-v1/ndarray-v1'"
                    " WHERE key = 'signals'"
                )
        for stale in (2, 0):
            with contextlib.closing(SQLiteSignalStore(path)) as store:
                assert (store.stats.stale, len(store)) == (stale, 0)

    def test_caps_can_be_passed_by_position(self, tmp_path):
        assert MemoryStageStore(256).max_entries == 256
        assert MemorySignalStore(256).max_entries == 256
        sqlite = SQLiteSignalStore(str(tmp_path / "s.sqlite"), 256, 8192)
        assert (sqlite.max_entries, sqlite.max_bytes) == (256, 8192)
        sqlite.close()


# ------------------------------------------------- stage-graph integration
class TestStageMemoizationAcrossBackends:
    """Memoized execution is bit-identical to cold, on every store backend."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_memoized_evaluation_matches_cold(self, kind, tmp_path, tiny_record):
        store = make_store(kind, tmp_path, tag=f"-int-{kind}")
        evaluator = ExplorationRuntime([tiny_record], signal_store=store)
        designs = [
            paper_configuration("B2"),
            paper_configuration("B9"),
            DesignPoint.from_lsbs({"lpf": 10, "hpf": 12, "mwi": 8}),
        ]
        for design in designs:
            warm = evaluator.evaluate(design)
            cold = run_design_evaluation(
                design, evaluator.records, evaluator.accurate_results
            )
            assert warm.psnr_db == cold.psnr_db
            assert warm.ssim_value == cold.ssim_value
            assert warm.peak_accuracy == cold.peak_accuracy
            assert warm.detected_peaks == cold.detected_peaks
        # The shared lpf=10 / (10, 12) prefixes were reused, not recomputed.
        assert evaluator.stage_stats.hits_for("low_pass") >= 2
        assert evaluator.stage_stats.hits_for("high_pass") >= 1
        if kind == "sqlite":
            store.close()

    def test_persistent_store_warms_a_fresh_evaluator(self, tmp_path, tiny_record):
        design = paper_configuration("B9")
        first_store = make_store("sqlite", tmp_path, tag="-warm")
        first = ExplorationRuntime([tiny_record], signal_store=first_store)
        warm_reference = first.evaluate(design)
        first_store.close()

        second_store = make_store("sqlite", tmp_path, tag="-warm")
        second = ExplorationRuntime([tiny_record], signal_store=second_store)
        result = second.evaluate(design)
        # Every stage of the accurate chain and of B9 came from the store.
        assert second.stage_stats.total_computes == 0
        assert result.psnr_db == warm_reference.psnr_db
        assert result.peak_accuracy == warm_reference.peak_accuracy
        second_store.close()
