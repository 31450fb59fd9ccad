"""Content-addressed stores: one memory LRU and one SQLite store for every tier.

Two tiers of the package memoize values under content-addressed keys: the
stage graph (:mod:`repro.core.stage_graph`) stores intermediate stage-output
signals, and the exploration runtime (:mod:`repro.runtime.cache`) stores
whole design evaluations.  Both use the two classes here, bound to a per-tier
:class:`Codec` that turns a value into bytes and back:

* :class:`MemoryStore` — thread-safe in-process LRU.
* :class:`SQLiteStore` — one table per tier in a SQLite file (WAL journal,
  busy timeout), shared across threads, processes and runs.  One file can
  back several tiers.

Both hand out values decoded from the stored bytes, so a value read back
never aliases the object that was stored, and signals come back read-only.
Both honour an entry cap (``max_entries``), evicting oldest first — least
recently used in memory, earliest written in SQLite.  The SQLite store also
takes a payload byte budget (``max_bytes``); the newest entry always
survives it, so one oversized value cannot empty a store.

Every SQLite row carries a SHA-256 of its payload, verified on every read; a
row that fails the check or does not decode is deleted, counted in
``stats.corrupt`` and reported as a miss, so the caller recomputes it.  Each
table's format tag is kept in the ``meta`` table under the table's name; a
table written under another tag (another codec, another stage-node key
schema, or no tag at all) is dropped on open and its rows counted in
``stats.stale``, never mixed with current entries.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from .fingerprint import STAGE_KEY_SCHEMA

__all__ = [
    "Codec",
    "DEFAULT_STORE_ENTRIES",
    "MemoryStore",
    "SIGNALS",
    "SQLiteStore",
    "Store",
    "StoreStats",
]

#: Default entry cap of signal stores.  Each node holds one record-length
#: int64 signal (~16 kB for a 10 s record), so the default bounds a store at
#: a few MB while comfortably covering the paper's design-space sweeps.
DEFAULT_STORE_ENTRIES = 512

_OPS = obs_metrics.counter(
    "repro_cache_ops_total",
    "Store operations by tier (result_cache/signal_store) and op.",
    labelnames=("tier", "op"),
)

#: What a payload that fails to decode raises.
_DECODE_ERRORS = (KeyError, TypeError, ValueError)


@dataclass
class StoreStats:
    """Operation counts of one store, mirrored into ``repro_cache_ops_total``.

    ``stale`` counts rows dropped on open because their table was written
    under another format tag.
    """

    tier: str
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    stale: int = 0

    def record(self, op: str, count: int = 1) -> None:
        """Account ``count`` events of ``op`` (a counter field name)."""
        if count:
            setattr(self, op, getattr(self, op) + count)
            _OPS.labels(self.tier, op).inc(count)

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (telemetry / CLI / ``/stats`` reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class Codec:
    """How one tier stores its values: metrics label, table, format and bytes.

    ``decode`` raises ``KeyError``, ``TypeError`` or ``ValueError`` on a
    payload it cannot read.  Changing ``encode`` or the meaning of the keys
    needs a new ``tag``, so persistent tables written before are purged.
    """

    tier: str
    table: str
    tag: str
    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]


# ------------------------------------------------------------ signal codec
#: A signal payload starts with an ASCII ``"<dtype> <shape>"`` line, padded
#: with spaces to a multiple of this many bytes so the samples that follow
#: stay aligned when read in place.
_SIGNAL_ALIGN = 16


def _encode_signal(signal: np.ndarray) -> bytes:
    signal = np.asarray(signal)
    line = f"{signal.dtype.str} {','.join(str(n) for n in signal.shape)}"
    width = (len(line) // _SIGNAL_ALIGN + 1) * _SIGNAL_ALIGN
    return (line.ljust(width - 1) + "\n").encode("ascii") + signal.tobytes()


def _decode_signal(payload: bytes) -> np.ndarray:
    start = payload.index(b"\n") + 1
    dtype, _, shape = payload[:start].decode("ascii").strip().partition(" ")
    dims = tuple(int(n) for n in shape.split(",")) if shape else ()
    # A view over the immutable payload: read-only and never the caller's
    # array, without a second copy.
    return np.frombuffer(payload, dtype=np.dtype(dtype), offset=start).reshape(dims)


#: Stage-output signals, keyed by input-addressed stage-node keys.
SIGNALS = Codec(
    tier="signal_store",
    table="signals",
    tag=f"{STAGE_KEY_SCHEMA}/ndarray-v1",
    encode=_encode_signal,
    decode=_decode_signal,
)


# ------------------------------------------------------------------ stores
class _StoreBase:
    """Codec binding, caps, statistics and lock shared by both stores.

    The stores define ``get``/``put`` themselves rather than here, so each
    class owns its read and write path.
    """

    def __init__(
        self, codec: Codec, max_entries: Optional[int], max_bytes: Optional[int]
    ) -> None:
        for name, cap in (("max_entries", max_entries), ("max_bytes", max_bytes)):
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be >= 1, got {cap}")
        self.codec = codec
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = StoreStats(codec.tier)
        self._lock = threading.Lock()

    def _over_budget(self, entries: int, total_bytes: int) -> bool:
        """Whether the oldest entry has to go; the byte budget never evicts
        the only entry left."""
        if self.max_entries is not None and entries > self.max_entries:
            return True
        return (
            self.max_bytes is not None and total_bytes > self.max_bytes and entries > 1
        )


class MemoryStore(_StoreBase):
    """Thread-safe in-process LRU (signals by default).

    A put keeps the value as decoded from its encoded bytes: a private copy
    (read-only for signals) that every get hands out, sized by its payload.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
        *,
        codec: Codec = SIGNALS,
    ) -> None:
        super().__init__(codec, max_entries, None)
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str):
        """The stored value for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.record("misses")
                return None
            self._entries.move_to_end(key)
            self.stats.record("hits")
            return entry[0]

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key``, then evict over the caps."""
        payload = self.codec.encode(value)
        frozen = self.codec.decode(payload)
        with self._lock:
            self.stats.record("puts")
            _, previous = self._entries.pop(key, (None, 0))
            self._entries[key] = (frozen, len(payload))
            self._bytes += len(payload) - previous
            while self._over_budget(len(self._entries), self._bytes):
                _, (_, size) = self._entries.popitem(last=False)
                self._bytes -= size
                self.stats.record("evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def size_bytes(self) -> int:
        """Payload bytes currently held."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class SQLiteStore(_StoreBase):
    """One tier's table in a SQLite file (signals by default).

    One connection is shared across threads under the store lock; the WAL
    journal and busy timeout let several processes (concurrent or later
    runs) use the file at once.  Eviction order is rowid
    order: ``INSERT OR REPLACE`` gives a rewritten key a fresh rowid.  The
    entry and byte totals driving eviction are counted once on open and then
    kept up to date by this process; rows other processes write are outside
    them.
    """

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
        max_bytes: Optional[int] = None,
        *,
        codec: Codec = SIGNALS,
    ) -> None:
        super().__init__(codec, max_entries, max_bytes)
        self.path = path
        self._select = f"SELECT checksum, payload FROM {codec.table} WHERE key = ?"
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._connection = sqlite3.connect(path, check_same_thread=False, timeout=30.0)
        try:
            self._open_table()
        except sqlite3.Error:
            self._connection.close()
            raise

    def _open_table(self) -> None:
        """Create the table, or purge it when written under another tag."""
        connection, table = self._connection, self.codec.table
        create = (
            f"CREATE TABLE IF NOT EXISTS {table} (key TEXT PRIMARY KEY,"
            " checksum TEXT NOT NULL, payload BLOB NOT NULL)"
        )
        connection.execute("PRAGMA journal_mode=WAL")
        # One write transaction, so concurrent openers of a fresh file purge
        # and tag it once.
        connection.execute("BEGIN IMMEDIATE")
        connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        connection.execute(create)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (table,)
        ).fetchone()
        if row is None or row[0] != self.codec.tag:
            (stale,) = connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            # Dropped rather than emptied: an older layout may have other columns.
            connection.execute(f"DROP TABLE {table}")
            connection.execute(create)
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (table, self.codec.tag),
            )
            self.stats.record("stale", stale)
        self._count, self._bytes = connection.execute(
            f"SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM {table}"
        ).fetchone()
        connection.commit()

    def get(self, key: str):
        """The stored value for ``key``, or ``None`` on a miss or bad row."""
        with self._lock:
            row = self._connection.execute(self._select, (key,)).fetchone()
            if row is None:
                self.stats.record("misses")
                return None
            checksum, payload = row
            try:
                if hashlib.sha256(payload).hexdigest() != checksum:
                    raise ValueError("checksum mismatch")
                value = self.codec.decode(payload)
            except _DECODE_ERRORS:
                self._connection.execute(
                    f"DELETE FROM {self.codec.table} WHERE key = ?", (key,)
                )
                self._connection.commit()
                self._count -= 1
                self._bytes -= len(payload)
                self.stats.record("corrupt")
                self.stats.record("misses")
                return None
            self.stats.record("hits")
            return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key``, then evict over the caps."""
        payload = self.codec.encode(value)
        checksum = hashlib.sha256(payload).hexdigest()
        table, connection = self.codec.table, self._connection
        with self._lock:
            self.stats.record("puts")
            previous = connection.execute(
                f"SELECT LENGTH(payload) FROM {table} WHERE key = ?", (key,)
            ).fetchone()
            connection.execute(
                f"INSERT OR REPLACE INTO {table} (key, checksum, payload)"
                " VALUES (?, ?, ?)",
                (key, checksum, payload),
            )
            self._count += previous is None
            self._bytes += len(payload) - (previous[0] if previous else 0)
            while self._over_budget(self._count, self._bytes):
                oldest = connection.execute(
                    f"SELECT rowid, LENGTH(payload) FROM {table}"
                    " ORDER BY rowid LIMIT 1"
                ).fetchone()
                if oldest is None:  # pragma: no cover - emptied by another process
                    break
                connection.execute(f"DELETE FROM {table} WHERE rowid = ?", (oldest[0],))
                self._count -= 1
                self._bytes -= oldest[1]
                self.stats.record("evictions")
            connection.commit()

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                f"SELECT COUNT(*) FROM {self.codec.table}"
            ).fetchone()
            return count

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                f"SELECT 1 FROM {self.codec.table} WHERE key = ?", (key,)
            ).fetchone()
            return row is not None

    def size_bytes(self) -> int:
        """Payload bytes currently held in the table."""
        with self._lock:
            (total,) = self._connection.execute(
                f"SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM {self.codec.table}"
            ).fetchone()
            return total

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._connection.execute(f"DELETE FROM {self.codec.table}")
            self._connection.commit()
            self._count = self._bytes = 0

    def close(self) -> None:
        """Close the database connection."""
        self._connection.close()


#: Either store; what the runtime's ``cache=`` and ``signal_store=`` accept.
Store = Union[MemoryStore, SQLiteStore]
