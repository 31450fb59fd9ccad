#!/usr/bin/env python3
"""Cached design-space exploration with ExplorationRuntime.

Demonstrates the execution layer behind all exploration workloads:

* the designs of a Table 2-style grid evaluated one after another, in
  input order, with duplicates computed once,
* a persistent SQLite result cache — the second pass answers every design
  from the cache with zero pipeline runs (the script asserts it),
* the stage graph underneath: designs sharing a settings prefix reuse each
  other's memoized intermediate signals (the per-stage reuse lines in the
  statistics report), persisted here in a SQLite signal store, and
* progress + telemetry hooks, including the measured speedup over the paper's
  ~300 s-per-evaluation serial cost model (the Fig. 11 yardstick).

Run with:  python examples/cached_exploration.py
"""

import os
import tempfile

from repro import ExplorationRuntime, XBioSiP, load_record
from repro.core import QualityConstraint, preprocessing_design_space
from repro.runtime import SQLiteResultCache, SQLiteSignalStore


def progress(event) -> None:
    """One line per resolved design (cache hits are marked)."""
    print(f"  {event.describe()}")


def explore(runtime: ExplorationRuntime, label: str) -> None:
    constraint = QualityConstraint("psnr", 22.0)
    space = preprocessing_design_space(lsb_step=8)  # 3x3 grid for the demo
    evaluations = runtime.evaluate_many(list(space.designs()))
    feasible = [e for e in evaluations if constraint.satisfied_by(e)]
    best = max(feasible, key=lambda e: e.energy_reduction)
    print(f"{label}: best feasible design {best.summary()}")
    print(runtime.statistics().report())
    print()


def main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        run(
            os.path.join(work_dir, "cache.sqlite"),
            os.path.join(work_dir, "signals.sqlite"),
        )


def run(cache_path: str, signals_path: str) -> None:
    records = [load_record("16265", duration_s=10.0)]

    # --- cold run: every design is evaluated --------------------------------
    cold_cache = SQLiteResultCache(cache_path)
    cold_signals = SQLiteSignalStore(signals_path)
    runtime = ExplorationRuntime(
        records,
        cache=cold_cache,
        signal_store=cold_signals,
        progress=progress,
    )
    explore(runtime, "cold run")
    cold_cache.close()
    cold_signals.close()

    # --- warm run: a fresh runtime, same persistent cache ------------------
    # Results are content-addressed (design + records + library version), so
    # this run performs zero pipeline evaluations; even its accurate
    # reference runs resolve from the persistent signal store.
    warm_cache = SQLiteResultCache(cache_path)
    warm_signals = SQLiteSignalStore(signals_path)
    runtime = ExplorationRuntime(
        records, cache=warm_cache, signal_store=warm_signals
    )
    explore(runtime, "warm run")
    hit_rate = runtime.cache.stats.hit_rate
    print(f"warm run pipeline evaluations: {runtime.evaluation_count}")
    print(f"cache hit rate: {hit_rate * 100:.0f}%")
    print()
    assert runtime.evaluation_count == 0, runtime.evaluation_count
    assert hit_rate == 1.0, hit_rate

    # The same runtime drives the full methodology: every evaluation lands
    # in the shared cache.
    result = XBioSiP(records, runtime=runtime).run()
    print(result.report())

    warm_cache.close()
    warm_signals.close()


if __name__ == "__main__":
    main()
