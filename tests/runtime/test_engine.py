"""ExplorationRuntime: determinism, dedup, caching, parallel equivalence."""

from __future__ import annotations

import pytest

from repro.core import DesignEvaluator, DesignPoint, XBioSiP
from repro.runtime import (
    ChunkPolicy,
    ExplorationRuntime,
    MemoryResultCache,
    ProgressLog,
    SQLiteResultCache,
    chunked,
)


@pytest.fixture(scope="module")
def serial_reference(tiny_record, design_grid):
    """Serial evaluations of the shared design grid."""
    evaluator = DesignEvaluator([tiny_record])
    return [evaluator.evaluate(design) for design in design_grid]


class TestChunkPolicy:
    def test_explicit_size_wins(self):
        assert ChunkPolicy(chunk_size=7).size_for(100, 4) == 7

    def test_derived_size_is_clamped(self):
        policy = ChunkPolicy(min_chunk_size=2, max_chunk_size=8)
        assert policy.size_for(1000, 2) == 8
        assert policy.size_for(3, 4) == 2
        assert policy.size_for(0, 4) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkPolicy(chunk_size=0)
        with pytest.raises(ValueError):
            ChunkPolicy(min_chunk_size=5, max_chunk_size=2)
        with pytest.raises(ValueError):
            ChunkPolicy().size_for(-1, 2)
        with pytest.raises(ValueError):
            ChunkPolicy(min_designs_per_task=0)

    def test_small_batches_are_floored_to_amortise_dispatch(self):
        policy = ChunkPolicy()
        # 16 warm designs on 4 workers would derive chunk size 1 (16 tasks,
        # all dispatch overhead); the floor batches 4 designs per task.
        assert policy.size_for(16, 4) == 4
        # Large batches already exceed the floor: unchanged derivation.
        assert policy.size_for(1024, 4) == 64
        # The floor never leaves workers idle: 6 tasks on 4 workers caps the
        # floor at ceil(6/4) = 2 designs per task.
        assert policy.size_for(6, 4) == 2
        assert ChunkPolicy(min_designs_per_task=1).size_for(16, 4) == 1

    def test_chunked_covers_everything_in_order(self):
        chunks = list(chunked(list(range(7)), 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_results_identical_to_serial(self, tiny_record, design_grid,
                                         serial_reference, executor):
        with ExplorationRuntime([tiny_record], executor=executor,
                                max_workers=2) as runtime:
            results = runtime.evaluate_many(design_grid)
        assert len(results) == len(design_grid)
        for got, want, design in zip(results, serial_reference, design_grid):
            assert got.psnr_db == want.psnr_db
            assert got.ssim_value == want.ssim_value
            assert got.peak_accuracy == want.peak_accuracy
            assert got.detected_peaks == want.detected_peaks
            assert got.energy_reduction == want.energy_reduction
            # Ordering is deterministic: result i belongs to design i.
            assert set(got.design.stages) == set(design.stages)

    def test_process_pool_matches_serial(self, tiny_record, design_grid,
                                         serial_reference):
        designs = design_grid[:3]
        with ExplorationRuntime([tiny_record], executor="process",
                                max_workers=2,
                                chunk_policy=ChunkPolicy(chunk_size=1)) as runtime:
            results = runtime.evaluate_many(designs)
        for got, want in zip(results, serial_reference[:3]):
            assert got.psnr_db == want.psnr_db
            assert got.peak_accuracy == want.peak_accuracy

    def test_invalid_executor_rejected(self, tiny_record):
        with pytest.raises(ValueError):
            ExplorationRuntime([tiny_record], executor="gpu")


class TestDedupAndCounting:
    def test_duplicates_in_one_batch_are_computed_once(self, tiny_record,
                                                       design_grid):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        runtime.evaluate_many(design_grid)
        # design_grid contains 5 entries but only 4 unique designs.
        assert runtime.evaluation_count == 4

    def test_evaluation_count_matches_serial_evaluator(self, tiny_record,
                                                       design_grid):
        serial = DesignEvaluator([tiny_record])
        for design in design_grid:
            serial.evaluate(design)
        with ExplorationRuntime([tiny_record], executor="thread",
                                max_workers=2) as runtime:
            runtime.evaluate_many(design_grid)
        assert runtime.evaluation_count == serial.evaluation_count

    def test_warm_batch_is_all_hits(self, tiny_record, design_grid):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        runtime.evaluate_many(design_grid)
        before = runtime.evaluation_count
        runtime.evaluate_many(design_grid)
        assert runtime.evaluation_count == before
        assert runtime.telemetry.cache_hits >= len(design_grid)

    def test_use_cache_false_forces_recomputation(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        design = DesignPoint.from_lsbs({"lpf": 4})
        runtime.evaluate(design)
        runtime.evaluate(design, use_cache=False)
        assert runtime.evaluation_count == 2

    def test_cache_hits_carry_the_callers_label(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        runtime.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="first"))
        hit = runtime.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="second"))
        assert runtime.evaluation_count == 1
        assert hit.design.name == "second"  # not the label that filled the cache

    def test_reset_counter_keeps_cache(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        design = DesignPoint.from_lsbs({"lpf": 4})
        runtime.evaluate(design)
        runtime.reset_counter()
        runtime.evaluate(design)
        assert runtime.evaluation_count == 0  # cache hit, nothing recomputed


class TestProgressAndTelemetry:
    def test_progress_events_in_order_with_hit_flags(self, tiny_record,
                                                     design_grid):
        log = ProgressLog()
        runtime = ExplorationRuntime([tiny_record], executor="serial",
                                     progress=log)
        runtime.evaluate_many(design_grid)
        assert [event.index for event in log.events] == list(range(len(design_grid)))
        assert all(event.total == len(design_grid) for event in log.events)
        # The duplicate of design "a" (last entry) resolved without fresh work.
        assert log.events[-1].cache_hit is True
        assert log.events[0].cache_hit is False
        assert "cache" in log.events[-1].describe()

    def test_statistics_snapshot(self, tiny_record, design_grid):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        runtime.evaluate_many(design_grid)
        stats = runtime.statistics()
        assert stats.evaluations == 4
        assert stats.designs_resolved == 5
        assert stats.evaluations_per_second > 0
        assert stats.modeled_serial_s == 5 * 300.0
        assert stats.speedup_vs_model > 1.0
        assert "executor" in stats.report()
        snapshot = runtime.telemetry.snapshot()
        assert snapshot["evaluations"] == 4
        assert 0.0 < snapshot["cache_hit_rate"] < 1.0


class TestCorruptionRecovery:
    def test_corrupt_persistent_entry_is_recomputed(self, tmp_path,
                                                    tiny_record):
        import json
        import sqlite3

        db = str(tmp_path / "cache.sqlite")
        design = DesignPoint.from_lsbs({"lpf": 6})
        with ExplorationRuntime([tiny_record], executor="serial",
                                cache=SQLiteResultCache(db)) as runtime:
            reference = runtime.evaluate(design)
            assert runtime.evaluation_count == 1
        runtime.cache.close()

        # Flip a metric inside the stored payload without fixing the checksum.
        with sqlite3.connect(db) as connection:
            ((key, payload),) = connection.execute(
                "SELECT key, payload FROM evaluations"
            ).fetchall()
            document = json.loads(payload)
            document["peak_accuracy"] = 0.0
            connection.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?",
                (json.dumps(document).encode("utf-8"), key),
            )
        connection.close()

        with ExplorationRuntime([tiny_record], executor="serial",
                                cache=SQLiteResultCache(db)) as runtime:
            recomputed = runtime.evaluate(design)
            assert runtime.cache.stats.corrupt == 1
            assert runtime.evaluation_count == 1  # recomputed, not trusted
        runtime.cache.close()
        assert recomputed.peak_accuracy == reference.peak_accuracy


class TestXBioSiPThroughRuntime:
    """The acceptance scenario: methodology runs through the runtime."""

    @pytest.fixture(scope="class")
    def serial_result(self, tiny_record):
        return XBioSiP([tiny_record]).run()

    def test_parallel_run_identical_to_serial(self, tiny_record, serial_result,
                                              tmp_path_factory):
        db = str(tmp_path_factory.mktemp("warm") / "cache.sqlite")
        with ExplorationRuntime([tiny_record], executor="thread",
                                max_workers=2,
                                cache=SQLiteResultCache(db)) as runtime:
            parallel = XBioSiP([tiny_record], runtime=runtime).run()
        assert parallel.final_design == serial_result.final_design
        assert parallel.evaluations_performed == serial_result.evaluations_performed
        assert parallel.final_evaluation.psnr_db == (
            serial_result.final_evaluation.psnr_db
        )
        assert parallel.final_evaluation.peak_accuracy == (
            serial_result.final_evaluation.peak_accuracy
        )

        # Second run against the warm persistent cache: zero new pipeline
        # evaluations, same selected design.
        with ExplorationRuntime([tiny_record], executor="thread",
                                max_workers=2,
                                cache=SQLiteResultCache(db)) as warm_runtime:
            warm = XBioSiP([tiny_record], runtime=warm_runtime).run()
            assert warm_runtime.evaluation_count == 0
            assert warm_runtime.cache.stats.hits > 0
            assert warm_runtime.cache.stats.misses == 0
        assert warm.final_design == serial_result.final_design
        assert warm.final_evaluation == serial_result.final_evaluation

    def test_default_methodology_runs_through_a_runtime(self, tiny_record):
        methodology = XBioSiP([tiny_record])
        assert isinstance(methodology.runtime, ExplorationRuntime)
        assert methodology.evaluator is methodology.runtime

    def test_mismatched_runtime_record_set_is_rejected(self, tiny_record):
        from repro.signals import load_record

        other = load_record("16272", duration_s=4.0)
        runtime = ExplorationRuntime([other], executor="serial")
        with pytest.raises(ValueError, match="different record set"):
            XBioSiP([tiny_record], runtime=runtime)
