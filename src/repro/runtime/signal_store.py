"""Intermediate-signal stores for the stage graph.

The stage-graph executor (:mod:`repro.core.stage_graph`) memoizes each stage
run's output signal under a content-addressed node key.  Its default store
is the in-process LRU; the persistent store here keeps the node outputs in
a SQLite file, so stage-level reuse survives across runs and is shared
between processes — the same stores as the result caches of
:mod:`repro.runtime.cache`, bound to the signal codec one level down:

* :class:`MemorySignalStore` — the in-process LRU
  (:class:`~repro.core.stage_graph.MemoryStageStore`).
* :class:`SQLiteSignalStore` — the ``signals`` table of a SQLite file, each
  node a dtype/shape header plus the raw samples.

Rows are checksummed; a corrupt row is counted, dropped and reported as a
miss, so the executor transparently recomputes the stage.  The table's
format tag folds in the stage-node key schema
(:data:`~repro.core.fingerprint.STAGE_KEY_SCHEMA`): a table written under
another schema or layout is purged on open and its rows counted in
``stats.stale``, never mixed with current nodes.  Signal stores built
directly keep at most 512 nodes by default (``max_entries``; ``max_bytes``
adds a byte budget to the SQLite store), oldest first, because a long
exploration writes far more intermediate signals than final results.

Stores are thread-safe: the stage graph resolves nodes from inside the
thread pool of :class:`~repro.runtime.engine.ExplorationRuntime`.
"""

from __future__ import annotations

from typing import Optional

from ..core.store import DEFAULT_STORE_ENTRIES, MemoryStore, SQLiteStore

__all__ = [
    "MemorySignalStore",
    "SQLiteSignalStore",
    "open_signal_store",
]

#: The stores default to the signal codec; these names bind them for callers
#: (and keep ``get``/``put`` defined on the named classes themselves).
MemorySignalStore = MemoryStore
SQLiteSignalStore = SQLiteStore


def open_signal_store(
    path: Optional[str] = None,
    max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
    max_bytes: Optional[int] = None,
):
    """A signal store: in memory for ``path=None``, else the SQLite file at
    ``path`` — mirroring :func:`repro.runtime.cache.open_cache` one level
    down.  ``max_bytes`` budgets the SQLite store only."""
    if path is None:
        if max_bytes is not None:
            raise ValueError("max_bytes requires a persistent signal store")
        return MemorySignalStore(max_entries)
    return SQLiteSignalStore(path, max_entries, max_bytes)

