"""ExplorationRuntime: determinism, dedup, caching, parallel equivalence."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import DesignPoint, XBioSiP, preprocessing_design_space
from repro.core.quality import run_design_evaluation
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.obs import get_registry
from repro.runtime import (
    EXECUTOR_KINDS,
    ExplorationRuntime,
    ProgressLog,
    SQLiteResultCache,
)
from repro.runtime import engine
from repro.signals import load_record


@pytest.fixture(scope="module")
def memoless_reference(tiny_record, design_grid):
    """Memo-less evaluations of the shared design grid (no stage graph)."""
    pipeline = PanTompkinsPipeline()
    accurate = {tiny_record.name: pipeline.process(tiny_record.samples)}
    return [
        run_design_evaluation(design, [tiny_record], accurate, stage_memo=None)
        for design in design_grid
    ]


def _stage_resolutions() -> int:
    """Observations of ``repro_stage_resolve_seconds`` over every label set."""
    family = get_registry().snapshot().get("repro_stage_resolve_seconds")
    return sum(s["count"] for s in family["samples"]) if family else 0


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_results_identical_to_serial(self, tiny_record, design_grid,
                                         memoless_reference, executor):
        serial = ExplorationRuntime([tiny_record], executor="serial")
        serial.evaluate_many(design_grid)
        resolutions_before = _stage_resolutions()
        with ExplorationRuntime([tiny_record], executor=executor,
                                max_workers=2) as runtime:
            results = runtime.evaluate_many(design_grid)
        assert len(results) == len(design_grid)
        for got, want, design in zip(results, memoless_reference, design_grid):
            assert got.psnr_db == want.psnr_db
            assert got.ssim_value == want.ssim_value
            assert got.peak_accuracy == want.peak_accuracy
            assert got.detected_peaks == want.detected_peaks
            assert got.energy_reduction == want.energy_reduction
            # Ordering is deterministic: result i belongs to design i.
            assert set(got.design.stages) == set(design.stages)
        # The runtime counts every stage run, whichever thread ran it.
        stats = runtime.stage_stats
        assert stats.computes == serial.stage_stats.computes
        assert stats.hits == serial.stage_stats.hits
        assert _stage_resolutions() - resolutions_before == (
            stats.total_hits + stats.total_computes
        )

    def test_invalid_executor_rejected(self, tiny_record):
        with pytest.raises(ValueError):
            ExplorationRuntime([tiny_record], executor="gpu")

    def test_process_executor_is_rejected(self, tiny_record):
        # The thread pool is the only parallel executor.
        assert EXECUTOR_KINDS == ("serial", "thread")
        with pytest.raises(ValueError, match="executor must be one of"):
            ExplorationRuntime([tiny_record], executor="process")


class TestAccurateReferences:
    def test_references_match_the_memoless_pipeline(self, tiny_record):
        records = [tiny_record, load_record("16272", duration_s=4.0)]
        runtime = ExplorationRuntime(records, executor="serial")
        pipeline = PanTompkinsPipeline()
        for record in records:
            got = runtime.accurate_result(record)
            assert got is runtime.accurate_results[record.name]
            want = pipeline.process(record.samples)
            assert got.stage_outputs.keys() == want.stage_outputs.keys()
            for name, signal in want.stage_outputs.items():
                assert np.array_equal(got.stage_outputs[name], signal)
            assert np.array_equal(got.peak_indices, want.peak_indices)
        # Each record's five stages ran once, through the runtime's graph ...
        assert runtime.stage_stats.total_computes == 5 * len(records)
        # ... so the accurate design reuses every one of them.
        runtime.evaluate(DesignPoint.accurate())
        assert runtime.stage_stats.total_computes == 5 * len(records)


class _Cancelled(Exception):
    """Raised by a progress callback to stop a batch."""


class TestCancellation:
    def test_raising_callback_cancels_designs_not_started(self, tiny_record):
        # 81 unseen designs, and a callback that raises at the first event
        # (how the service cancels a job).  Only the designs already running
        # may finish: at most 5 stage runs each, with slack, per worker.
        designs = list(preprocessing_design_space().designs())
        workers = 2
        runtime = ExplorationRuntime([tiny_record], executor="thread",
                                     max_workers=workers)
        computes_at_raise = []

        def cancel(event):
            computes_at_raise.append(runtime.stage_stats.total_computes)
            raise _Cancelled

        # The traceback is held until after shutdown, as by a caller that
        # logs the error later: only an explicit close, not garbage
        # collection, can cancel the queued designs in time.
        with pytest.raises(_Cancelled) as raised:
            runtime.evaluate_many(designs, progress=cancel)
        runtime.shutdown()  # waits for the designs still running
        computed_after = (
            runtime.stage_stats.total_computes - computes_at_raise[0]
        )
        assert raised.tb is not None
        assert computed_after <= 5 * 2 * workers

    def test_raising_callback_stops_a_serial_batch(self, tiny_record):
        designs = list(preprocessing_design_space().designs())
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        computes_at_raise = []

        def cancel(event):
            computes_at_raise.append(runtime.stage_stats.total_computes)
            raise _Cancelled

        with pytest.raises(_Cancelled):
            runtime.evaluate_many(designs, progress=cancel)
        # The first event is the last thing that ran.
        assert len(computes_at_raise) == 1
        assert runtime.stage_stats.total_computes == computes_at_raise[0]

    def test_failing_design_cancels_designs_not_started(self, tiny_record,
                                                        monkeypatch):
        designs = list(preprocessing_design_space().designs())
        workers = 2
        runtime = ExplorationRuntime([tiny_record], executor="thread",
                                     max_workers=workers)
        started = []
        evaluate = engine.run_design_evaluation

        def fail_first(design, *args, **kwargs):
            started.append(design.name)
            if design is designs[0]:
                raise RuntimeError("design failed")
            return evaluate(design, *args, **kwargs)

        monkeypatch.setattr(engine, "run_design_evaluation", fail_first)
        with pytest.raises(RuntimeError, match="design failed"):
            runtime.evaluate_many(designs)
        runtime.shutdown()
        # The failure surfaces once the first design is awaited; only the
        # designs the workers had already taken up by then may have run.
        assert len(started) <= 4 * workers

    def test_stopped_batch_counts_its_finished_designs(self, tiny_record):
        # The third event raises: the three designs finished by then are
        # cached, and every counter sees them like a completed batch's.
        designs = list(preprocessing_design_space().designs())[:10]
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        computed = engine._DESIGNS_RESOLVED.labels("computed")
        before = computed.value

        def cancel_at_third(event):
            if event.completed == 3:
                raise _Cancelled

        with pytest.raises(_Cancelled):
            runtime.evaluate_many(designs, progress=cancel_at_third)
        assert len(runtime.cache) == 3
        assert runtime.evaluation_count == 3
        assert runtime.telemetry.evaluations == 3
        assert computed.value - before == 3
        assert runtime.telemetry.batches == 1

    def test_counters_follow_a_running_batch(self, tiny_record):
        # Each computed design is counted before its progress event fires,
        # so a callback (or the service's /stats) sees the batch advance.
        designs = list(preprocessing_design_space().designs())[:3]
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        seen = []
        runtime.evaluate_many(
            designs,
            progress=lambda event: seen.append(
                (runtime.evaluation_count, runtime.telemetry.evaluations)
            ),
        )
        assert seen == [(1, 1), (2, 2), (3, 3)]
        assert runtime.evaluation_count == 3
        assert runtime.telemetry.evaluations == 3
        assert runtime.telemetry.batches == 1

    def test_runtime_is_reusable_after_a_cancelled_batch(
        self, tiny_record, design_grid, memoless_reference
    ):
        def cancel(event):
            raise _Cancelled

        with ExplorationRuntime([tiny_record], executor="thread",
                                max_workers=2) as runtime:
            with pytest.raises(_Cancelled):
                runtime.evaluate_many(design_grid, progress=cancel)
            results = runtime.evaluate_many(design_grid)
        for got, want in zip(results, memoless_reference):
            assert got.psnr_db == want.psnr_db
            assert got.peak_accuracy == want.peak_accuracy
            assert got.detected_peaks == want.detected_peaks


class TestDedupAndCounting:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_duplicates_in_one_batch_are_computed_once(self, tiny_record,
                                                       design_grid, executor):
        with ExplorationRuntime([tiny_record], executor=executor,
                                max_workers=2) as runtime:
            runtime.evaluate_many(design_grid)
        # design_grid contains 5 entries but only 4 unique designs.
        assert runtime.evaluation_count == 4

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
        assert stats.modeled_serial_s == 5 * 300.0
        # The rates are derived from the one measured field, busy_s.
        assert stats.busy_s == runtime.telemetry.busy_s
        assert stats.evaluations_per_second * stats.busy_s == pytest.approx(
            stats.evaluations
        )
        assert stats.speedup_vs_model * stats.busy_s == pytest.approx(
            stats.modeled_serial_s
        )
        assert "executor" in stats.report()
        snapshot = runtime.telemetry.snapshot()
        assert snapshot["evaluations"] == 4
        assert 0.0 < snapshot["cache_hit_rate"] < 1.0

    def test_thread_progress_matches_serial(self, tiny_record, design_grid):
        events = {}
        for executor in ("serial", "thread"):
            log = ProgressLog()
            with ExplorationRuntime([tiny_record], executor=executor,
                                    max_workers=2, progress=log) as runtime:
                runtime.evaluate_many(design_grid)
            events[executor] = [
                (e.index, e.design.name, e.cache_hit, e.evaluation.psnr_db)
                for e in log.events
            ]
        # One event per design, in input order, whichever executor ran it.
        assert len(events["thread"]) == len(design_grid)
        assert events["thread"] == events["serial"]

    def test_telemetry_reads_the_stage_counters_live(self, tiny_record,
                                                     design_grid):
        runtime = ExplorationRuntime([tiny_record], executor="serial")
        assert runtime.telemetry.stage_stats is runtime.stage_stats
        seen = []

        def watch(event):
            seen.append(
                (
                    runtime.telemetry.snapshot()["stage_stats"],
                    runtime.stage_stats.as_dict(),
                )
            )

        runtime.evaluate_many(design_grid, progress=watch)
        # Mid-batch, the snapshot already holds the stage runs so far ...
        assert all(snapshot == live for snapshot, live in seen)
        assert seen[0][0] != seen[-1][0]
        # ... and its summary figures are the stage graph's own.
        snapshot = runtime.telemetry.snapshot()
        stats = runtime.stage_stats
        assert snapshot["stage_hit_rate"] == stats.hit_rate()
        assert snapshot["stage_cross_record_hits"] == (
            stats.total_cross_record_hits
        )
        assert snapshot["stage_warm_hits"] == stats.total_warm_hits


class TestImportFootprint:
    def test_importing_repro_loads_no_multiprocessing(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        src = os.path.join(repo_root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing'))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


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

    def test_mismatched_runtime_record_set_is_rejected(self, tiny_record):
        from repro.signals import load_record

        other = load_record("16272", duration_s=4.0)
        runtime = ExplorationRuntime([other], executor="serial")
        with pytest.raises(ValueError, match="different record set"):
            XBioSiP([tiny_record], runtime=runtime)
