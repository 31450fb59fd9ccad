"""One contract for every store: {memory, SQLite} x {evaluations, signals}.

The result caches and the signal stores are the two stores of
:mod:`repro.core.store` bound to two codecs, so each behaviour is checked
once per combination.  The byte budget, corruption, persistence and format
purges only exist for SQLite and run on both of its tiers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sqlite3
import sys
import threading

import numpy as np
import pytest

from repro.core import DesignPoint
from repro.runtime import ExplorationRuntime
from repro.runtime.cache import MemoryResultCache, SQLiteResultCache
from repro.runtime.signal_store import MemorySignalStore, SQLiteSignalStore

BACKENDS = ("memory", "sqlite")
TIERS = ("evaluations", "signals")


@pytest.fixture(scope="module")
def sample_evaluation(tiny_record):
    runtime = ExplorationRuntime([tiny_record], executor="serial")
    return runtime.evaluate(
        DesignPoint.from_lsbs({"lpf": 6, "hpf": 4}, name="sample",
                              description="store contract sample")
    )


def open_store(backend, tier, path, **caps):
    if backend == "memory":
        cls = MemoryResultCache if tier == "evaluations" else MemorySignalStore
        return cls(**caps)
    cls = SQLiteResultCache if tier == "evaluations" else SQLiteSignalStore
    return cls(str(path), **caps)


class Harness:
    """One backend x tier combination: opens stores and makes values."""

    def __init__(self, backend, tier, tmp_path, sample_evaluation):
        self.backend = backend
        self.tier = tier
        self.path = tmp_path / f"{tier}.sqlite"
        self.sample = sample_evaluation
        self.opened = []

    def open(self, **caps):
        store = open_store(self.backend, self.tier, self.path, **caps)
        self.opened.append(store)
        return store

    def value(self, index):
        """Distinct values of one payload size."""
        if self.tier == "evaluations":
            return dataclasses.replace(self.sample, psnr_db=float(index))
        return np.full(64, index, dtype=np.int64)

    def assert_same(self, got, expected):
        assert got is not None
        if self.tier == "evaluations":
            assert got == expected
        else:
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def close(self):
        for store in self.opened:
            if self.backend == "sqlite":
                store.close()


def _harness(request, tmp_path, sample_evaluation, backend, tier):
    harness = Harness(backend, tier, tmp_path, sample_evaluation)
    request.addfinalizer(harness.close)
    return harness


@pytest.fixture(params=[(b, t) for b in BACKENDS for t in TIERS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def harness(request, tmp_path, sample_evaluation):
    return _harness(request, tmp_path, sample_evaluation, *request.param)


@pytest.fixture(params=TIERS)
def memory_harness(request, tmp_path, sample_evaluation):
    return _harness(request, tmp_path, sample_evaluation, "memory", request.param)


@pytest.fixture(params=TIERS)
def sqlite_harness(request, tmp_path, sample_evaluation):
    return _harness(request, tmp_path, sample_evaluation, "sqlite", request.param)


# ------------------------------------------------------------------ contract
class TestStoreContract:
    def test_round_trip_miss_and_overwrite(self, harness):
        store = harness.open()
        assert store.get("k") is None
        store.put("k", harness.value(1))
        harness.assert_same(store.get("k"), harness.value(1))
        store.put("k", harness.value(2))
        assert len(store) == 1
        harness.assert_same(store.get("k"), harness.value(2))
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (2, 1, 2)
        assert store.stats.hit_rate == pytest.approx(2 / 3)

    def test_len_contains_clear(self, harness):
        store = harness.open()
        store.put("a", harness.value(1))
        store.put("b", harness.value(2))
        assert len(store) == 2
        assert "a" in store and "missing" not in store
        assert store.size_bytes() > 0
        store.clear()
        assert len(store) == 0 and store.size_bytes() == 0
        assert store.get("a") is None

    def test_entry_cap_evicts_oldest(self, harness):
        store = harness.open(max_entries=2)
        for index in range(5):
            store.put(f"k{index}", harness.value(index))
        assert len(store) == 2
        assert store.stats.evictions == 3
        harness.assert_same(store.get("k4"), harness.value(4))
        assert store.get("k0") is None

    def test_rewrite_makes_an_entry_newest(self, harness):
        store = harness.open(max_entries=2)
        store.put("a", harness.value(1))
        store.put("b", harness.value(2))
        store.put("a", harness.value(1))  # "b" is now the oldest
        store.put("c", harness.value(3))
        assert store.get("a") is not None and store.get("b") is None

    def test_memory_get_makes_an_entry_newest(self, memory_harness):
        store = memory_harness.open(max_entries=2)
        store.put("a", memory_harness.value(1))
        store.put("b", memory_harness.value(2))
        store.get("a")  # least recently used is now "b"
        store.put("c", memory_harness.value(3))
        assert store.stats.evictions == 1
        assert "a" in store and "c" in store and "b" not in store

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_invalid_entry_caps(self, harness, cap):
        with pytest.raises(ValueError):
            harness.open(max_entries=cap)

    def test_concurrent_puts_and_gets_keep_the_books(self, harness):
        store = harness.open(max_entries=16)
        threads, rounds = 6, 150
        errors = []

        def worker(offset):
            try:
                for index in range(rounds):
                    key = f"k{(offset + index) % 40}"
                    store.put(key, harness.value(index % 10))
                    store.get(key)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        stats = store.stats
        assert stats.puts == threads * rounds
        assert stats.hits + stats.misses == threads * rounds
        # 40 distinct keys fill the cap exactly; a lost update to the
        # entry or byte totals would leave it under- or over-full.
        assert len(store) == 16
        assert store.size_bytes() == 16 * len(store.codec.encode(harness.value(0)))


class TestSignalValues:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_only_isolated_and_shape_preserving(self, backend, tmp_path):
        store = open_store(backend, "signals", tmp_path / "s.sqlite")
        signal = np.arange(-12, 12, dtype=np.int32).reshape(4, 6)
        store.put("k", signal)
        signal[0, 0] = 999  # mutating the caller's array after the put
        out = store.get("k")
        assert out.dtype == np.int32 and out.shape == (4, 6)
        assert out[0, 0] == -12
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out.setflags(write=True)
        if backend == "sqlite":
            store.close()


# --------------------------------------------------------------- SQLite only
class TestByteBudget:
    """The byte budget (``max_bytes``) is a SQLite-store cap."""

    @staticmethod
    def entry_bytes(harness):
        probe = harness.open()
        probe.put("probe", harness.value(0))
        size = probe.size_bytes()
        probe.clear()
        return size

    def test_byte_budget_evicts_oldest_and_keeps_newest(self, sqlite_harness):
        entry = self.entry_bytes(sqlite_harness)
        store = sqlite_harness.open(max_bytes=2 * entry + entry // 2)
        for index in range(4):
            store.put(f"k{index}", sqlite_harness.value(index))
        assert len(store) == 2
        assert store.stats.evictions == 2
        assert store.size_bytes() <= store.max_bytes
        assert store.get("k3") is not None and store.get("k0") is None

    def test_newest_entry_survives_a_tiny_byte_budget(self, sqlite_harness):
        store = sqlite_harness.open(max_bytes=1)
        store.put("a", sqlite_harness.value(1))
        assert len(store) == 1  # one oversized entry is kept, not thrashed
        store.put("b", sqlite_harness.value(2))
        assert len(store) == 1
        assert store.get("b") is not None and store.get("a") is None

    def test_entry_cap_and_byte_budget_compose(self, sqlite_harness):
        entry = self.entry_bytes(sqlite_harness)
        store = sqlite_harness.open(max_entries=3, max_bytes=10 * entry)
        for index in range(5):
            store.put(f"k{index}", sqlite_harness.value(index))
        assert len(store) == 3  # the entry cap binds before the byte budget
        assert store.stats.evictions == 2

    def test_rejects_an_invalid_byte_budget(self, sqlite_harness):
        with pytest.raises(ValueError):
            sqlite_harness.open(max_bytes=0)

    def test_memory_stores_take_no_byte_budget(self, memory_harness):
        with pytest.raises(TypeError):
            memory_harness.open(max_bytes=4096)
        assert memory_harness.open().max_bytes is None


def _rewrite_payload(store, key, payload, checksum=None):
    with sqlite3.connect(store.path) as connection:
        table = store.codec.table
        if checksum is None:
            connection.execute(
                f"UPDATE {table} SET payload = ? WHERE key = ?", (payload, key)
            )
        else:
            connection.execute(
                f"UPDATE {table} SET payload = ?, checksum = ? WHERE key = ?",
                (payload, checksum, key),
            )
    connection.close()


class TestCorruptionRecovery:
    @pytest.mark.parametrize("damage", ["stale-checksum", "undecodable", "text"])
    def test_corrupt_row_is_dropped_counted_and_missed(self, sqlite_harness, damage):
        store = sqlite_harness.open()
        store.put("k", sqlite_harness.value(1))
        if damage == "stale-checksum":
            # A valid payload of another value under the old checksum.
            _rewrite_payload(store, "k", store.codec.encode(sqlite_harness.value(2)))
        elif damage == "undecodable":
            garbage = b"not a payload"
            _rewrite_payload(store, "k", garbage, hashlib.sha256(garbage).hexdigest())
        else:  # a TEXT value, as a hand-edited row would hold
            _rewrite_payload(store, "k", '{"x":1}')
        assert store.get("k") is None
        assert store.stats.corrupt == 1 and store.stats.misses == 1
        assert len(store) == 0  # the bad row was deleted
        store.put("k", sqlite_harness.value(3))
        sqlite_harness.assert_same(store.get("k"), sqlite_harness.value(3))


class TestPersistence:
    def test_entries_survive_a_reopen(self, sqlite_harness):
        first = sqlite_harness.open()
        first.put("k", sqlite_harness.value(5))
        first.close()
        second = sqlite_harness.open()
        assert second.stats.stale == 0
        assert len(second) == 1
        sqlite_harness.assert_same(second.get("k"), sqlite_harness.value(5))

    def test_one_file_backs_both_tiers_across_a_reopen(self, tmp_path,
                                                       sample_evaluation):
        path = str(tmp_path / "both.sqlite")
        signal = np.arange(32, dtype=np.int64)
        cache, signals = SQLiteResultCache(path), SQLiteSignalStore(path)
        cache.put("e", sample_evaluation)
        signals.put("s", signal)
        cache.close()
        signals.close()
        # Reopen in the other order: neither tier purges the other's table.
        signals, cache = SQLiteSignalStore(path), SQLiteResultCache(path)
        assert cache.stats.stale == 0 and signals.stats.stale == 0
        assert cache.get("e") == sample_evaluation
        np.testing.assert_array_equal(signals.get("s"), signal)
        cache.close()
        signals.close()


class TestFormatPurge:
    """Tables written under another format are purged on open, never mixed."""

    def test_parent_evaluations_layout_is_purged(self, tmp_path,
                                                 sample_evaluation):
        path = str(tmp_path / "old.sqlite")
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE evaluations (key TEXT PRIMARY KEY,"
                " checksum TEXT NOT NULL, payload TEXT NOT NULL)"
            )
            connection.executemany(
                "INSERT INTO evaluations VALUES (?, ?, ?)",
                [("old-a", "0" * 64, '{"x":1}'), ("old-b", "1" * 64, "{}")],
            )
        connection.close()
        cache = SQLiteResultCache(path)
        assert cache.stats.stale == 2
        assert cache.get("old-a") is None and len(cache) == 0
        cache.put("new", sample_evaluation)
        assert cache.get("new") == sample_evaluation
        cache.close()

    def test_parent_signals_layout_is_purged(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE signals (key TEXT PRIMARY KEY, dtype TEXT NOT NULL,"
                " shape TEXT NOT NULL, checksum TEXT NOT NULL,"
                " payload BLOB NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            connection.execute(
                "INSERT INTO meta VALUES ('schema', 'input-addressed-v1')"
            )
            connection.executemany(
                "INSERT INTO signals VALUES (?, 'int64', '[8]', ?, ?)",
                [(f"old-{n}", "0" * 64, bytes(64)) for n in range(3)],
            )
        connection.close()
        store = SQLiteSignalStore(path)
        assert store.stats.stale == 3
        assert store.get("old-0") is None and len(store) == 0
        store.put("new", np.arange(8, dtype=np.int64))
        np.testing.assert_array_equal(store.get("new"), np.arange(8))
        store.close()

    def test_foreign_tag_is_purged(self, sqlite_harness):
        store = sqlite_harness.open()
        store.put("a", sqlite_harness.value(1))
        store.put("b", sqlite_harness.value(2))
        store.close()
        with sqlite3.connect(str(sqlite_harness.path)) as connection:
            connection.execute(
                "UPDATE meta SET value = 'prefix-chain-v0' WHERE key = ?",
                (store.codec.table,),
            )
        connection.close()
        reopened = sqlite_harness.open()
        assert reopened.stats.stale == 2
        assert "a" not in reopened and len(reopened) == 0
