"""ExplorationRuntime: determinism, dedup, caching, concurrent callers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    DesignPoint,
    XBioSiP,
    analyze_stage_resilience,
    paper_configuration,
    preprocessing_design_space,
)
from repro.core.quality import run_design_evaluation
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.obs import get_registry
from repro.runtime import ExplorationRuntime, ProgressLog, SQLiteResultCache
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


def _assert_matches_reference(results, reference, designs) -> None:
    assert len(results) == len(designs)
    for got, want, design in zip(results, reference, designs):
        assert got.psnr_db == want.psnr_db
        assert got.ssim_value == want.ssim_value
        assert got.peak_accuracy == want.peak_accuracy
        assert got.detected_peaks == want.detected_peaks
        assert got.energy_reduction == want.energy_reduction
        # Ordering is deterministic: result i belongs to design i.
        assert set(got.design.stages) == set(design.stages)


class TestBatchEqualsReference:
    def test_results_identical_to_the_memoless_reference(
        self, tiny_record, design_grid, memoless_reference
    ):
        resolutions_before = _stage_resolutions()
        runtime = ExplorationRuntime([tiny_record])
        results = runtime.evaluate_many(design_grid)
        _assert_matches_reference(results, memoless_reference, design_grid)
        # Every stage resolution is observed once in the latency histogram.
        stats = runtime.stage_stats
        assert _stage_resolutions() - resolutions_before == (
            stats.total_hits + stats.total_computes
        )

    def test_serial_is_the_only_executor(self, tiny_record):
        ExplorationRuntime([tiny_record], executor="serial")  # perfbench's call
        for executor in ("thread", "process"):
            with pytest.raises(ValueError) as info:
                ExplorationRuntime([tiny_record], executor=executor)
            assert str(info.value) == (
                f"executor must be 'serial', got '{executor}'"
            )


def _hold_first_evaluation(monkeypatch, runtime, evaluate):
    """Hold the first evaluation until another caller reaches a held key.

    The caller that claims the batch's first key runs ``evaluate`` only
    once the other caller has found that key in flight, so the two callers
    contend for it on every run, whatever the thread schedule.
    """
    reached = threading.Event()
    claim = runtime._claim

    def claim_and_signal(key):
        holder = claim(key)
        if holder is not None:
            reached.set()
        return holder

    def held(*args, **kwargs):
        assert reached.wait(timeout=60)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(runtime, "_claim", claim_and_signal)
    monkeypatch.setattr(engine, "run_design_evaluation", held)


def _run_two_callers(runtime, designs):
    """Two threads batch ``designs`` on one runtime at once."""
    start = threading.Barrier(2, timeout=60)
    results, errors = {}, {}

    def job(name):
        try:
            start.wait()
            results[name] = runtime.evaluate_many(designs)
        except Exception as error:  # reported by the main thread
            errors[name] = error

    threads = [threading.Thread(target=job, args=(n,)) for n in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def _stage_computes(runtime):
    return {
        name: row["computes"]
        for name, row in runtime.stage_stats.as_dict().items()
    }


class TestConcurrentCallers:
    def test_two_threads_share_one_runtime(self, tiny_record, design_grid,
                                           memoless_reference, monkeypatch):
        # The service's --concurrency 2 case: two jobs run evaluate_many on
        # one runtime at once and reach the same designs together.
        serial = ExplorationRuntime([tiny_record])
        serial.evaluate_many(design_grid)
        runtime = ExplorationRuntime([tiny_record])
        _hold_first_evaluation(monkeypatch, runtime, run_design_evaluation)
        results, errors = _run_two_callers(runtime, design_grid)
        assert errors == {}
        for name in "ab":
            _assert_matches_reference(
                results[name], memoless_reference, design_grid
            )
        # Single flight: each distinct design was evaluated once, and each
        # distinct node computed once, by one caller; the other caller's
        # resolutions are cache hits.
        unique = len({runtime.cache_key(design) for design in design_grid})
        assert runtime.evaluation_count == serial.evaluation_count == unique
        assert runtime.cache_hits == 2 * len(design_grid) - unique
        assert len(runtime.cache) == unique
        assert _stage_computes(runtime) == _stage_computes(serial)
        assert runtime.batches == 2

    def test_a_waiter_computes_the_key_of_a_failed_caller(
        self, tiny_record, design_grid, memoless_reference, monkeypatch
    ):
        runtime = ExplorationRuntime([tiny_record])
        failures = []

        def fail_once(*args, **kwargs):
            if not failures:
                failures.append(args[0])
                raise RuntimeError("evaluation failed")
            return run_design_evaluation(*args, **kwargs)

        _hold_first_evaluation(monkeypatch, runtime, fail_once)
        results, errors = _run_two_callers(runtime, design_grid)
        # The caller whose evaluation failed stops; the one that waited for
        # that key finds no entry, computes it itself and finishes the batch.
        assert [str(error) for error in errors.values()] == ["evaluation failed"]
        (survivor,) = results.values()
        _assert_matches_reference(survivor, memoless_reference, design_grid)
        unique = len({runtime.cache_key(design) for design in design_grid})
        assert runtime.evaluation_count == unique
        assert runtime._in_flight == {}


class TestAccurateReferences:
    def test_references_match_the_memoless_pipeline(self, tiny_record):
        records = [tiny_record, load_record("16272", duration_s=4.0)]
        runtime = ExplorationRuntime(records)
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


#: Library paths that score designs against a record's accurate references.
SCORING_PATHS = {
    "evaluate": lambda record: ExplorationRuntime(
        [record]
    ).evaluate(paper_configuration("B9")),
    "resilience": lambda record: analyze_stage_resilience(
        "lpf", ExplorationRuntime([record])
    ),
    "xbiosip": lambda record: XBioSiP([record]).run(),
}


@pytest.mark.parametrize("path", sorted(SCORING_PATHS))
def test_a_record_too_short_to_score_is_refused_by_the_library(path):
    # One sample of record 16265 pre-processes to a constant signal, which
    # leaves PSNR no peak to score a design against.
    record = load_record("16265", duration_s=0.005)
    with pytest.raises(ValueError) as info:
        SCORING_PATHS[path](record)
    assert str(info.value) == (
        "record 16265 is too short to score: its accurate pre-processed "
        "output is constant"
    )


class _Cancelled(Exception):
    """Raised by a progress callback to stop a batch."""


def _record_started(monkeypatch, fail=None):
    """The designs ``run_design_evaluation`` is called with, in call order;
    the call for ``fail`` raises."""
    started = []
    evaluate = engine.run_design_evaluation

    def recording(design, *args, **kwargs):
        started.append(design)
        if design is fail:
            raise RuntimeError("design failed")
        return evaluate(design, *args, **kwargs)

    monkeypatch.setattr(engine, "run_design_evaluation", recording)
    return started


class TestCancellation:
    def test_raising_callback_stops_the_batch(self, tiny_record, monkeypatch):
        # 81 unseen designs, and a callback that raises at the first event
        # (how the service cancels a job): no later design runs.
        designs = list(preprocessing_design_space().designs())
        runtime = ExplorationRuntime([tiny_record])
        started = _record_started(monkeypatch)
        computes_at_raise = []

        def cancel(event):
            computes_at_raise.append(runtime.stage_stats.total_computes)
            raise _Cancelled

        with pytest.raises(_Cancelled):
            runtime.evaluate_many(designs, progress=cancel)
        # The first event is the last thing that ran.
        assert started == designs[:1]
        assert computes_at_raise == [runtime.stage_stats.total_computes]

    def test_failing_design_stops_the_batch(self, tiny_record, monkeypatch):
        designs = list(preprocessing_design_space().designs())
        runtime = ExplorationRuntime([tiny_record])
        started = _record_started(monkeypatch, fail=designs[1])
        with pytest.raises(RuntimeError, match="design failed"):
            runtime.evaluate_many(designs)
        # The first design finished and is counted; no design after the
        # failing one ran.
        assert started == designs[:2]
        assert runtime.evaluation_count == 1
        assert len(runtime.cache) == 1
        assert runtime.batches == 1

    def test_stopped_batch_counts_its_finished_designs(self, tiny_record):
        # The third event raises: the three designs finished by then are
        # cached, and every counter sees them like a completed batch's.
        designs = list(preprocessing_design_space().designs())[:10]
        runtime = ExplorationRuntime([tiny_record])
        computed = engine._DESIGNS_RESOLVED.labels("computed")
        before = computed.value

        def cancel_at_third(event):
            if event.completed == 3:
                raise _Cancelled

        with pytest.raises(_Cancelled):
            runtime.evaluate_many(designs, progress=cancel_at_third)
        assert len(runtime.cache) == 3
        assert runtime.evaluation_count == 3
        assert runtime.statistics()["evaluations"] == 3
        assert computed.value - before == 3
        assert runtime.batches == 1

    def test_counters_follow_a_running_batch(self, tiny_record):
        # Each computed design is counted before its progress event fires,
        # so a callback (or the service's /stats and /metrics) sees the
        # batch advance.
        designs = list(preprocessing_design_space().designs())[:3]
        runtime = ExplorationRuntime([tiny_record])
        computed = engine._DESIGNS_RESOLVED.labels("computed")
        before = computed.value
        seen = []
        runtime.evaluate_many(
            designs,
            progress=lambda event: seen.append((
                runtime.evaluation_count,
                runtime.statistics()["evaluations"],
                computed.value - before,
            )),
        )
        assert seen == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
        assert runtime.evaluation_count == 3
        assert runtime.statistics()["evaluations"] == 3
        assert runtime.batches == 1

    def test_runtime_is_reusable_after_a_cancelled_batch(
        self, tiny_record, design_grid, memoless_reference
    ):
        def cancel(event):
            raise _Cancelled

        runtime = ExplorationRuntime([tiny_record])
        with pytest.raises(_Cancelled):
            runtime.evaluate_many(design_grid, progress=cancel)
        results = runtime.evaluate_many(design_grid)
        _assert_matches_reference(results, memoless_reference, design_grid)


class TestDedupAndCounting:
    def test_duplicates_in_one_batch_are_computed_once(self, tiny_record,
                                                       design_grid):
        runtime = ExplorationRuntime([tiny_record])
        runtime.evaluate_many(design_grid)
        # design_grid contains 5 entries but only 4 unique designs.
        assert runtime.evaluation_count == 4

    def test_warm_batch_is_all_hits(self, tiny_record, design_grid):
        runtime = ExplorationRuntime([tiny_record])
        runtime.evaluate_many(design_grid)
        before = runtime.evaluation_count
        runtime.evaluate_many(design_grid)
        assert runtime.evaluation_count == before
        assert runtime.cache_hits >= len(design_grid)

    def test_use_cache_false_forces_recomputation(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record])
        design = DesignPoint.from_lsbs({"lpf": 4})
        runtime.evaluate(design)
        runtime.evaluate(design, use_cache=False)
        assert runtime.evaluation_count == 2

    def test_cache_hits_carry_the_callers_label(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record])
        runtime.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="first"))
        hit = runtime.evaluate(DesignPoint.from_lsbs({"lpf": 4}, name="second"))
        assert runtime.evaluation_count == 1
        assert hit.design.name == "second"  # not the label that filled the cache

    def test_evaluation_count_is_the_telemetry_count(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record])
        design = DesignPoint.from_lsbs({"lpf": 4})
        runtime.evaluate(design)
        before = runtime.evaluation_count
        runtime.evaluate(design)
        assert runtime.evaluation_count == before  # cache hit, nothing recomputed
        assert runtime.evaluation_count == runtime.statistics()["evaluations"] == 1


class TestProgressAndTelemetry:
    def test_progress_events_in_order_with_hit_flags(self, tiny_record,
                                                     design_grid):
        log = ProgressLog()
        runtime = ExplorationRuntime([tiny_record], progress=log)
        runtime.evaluate_many(design_grid)
        assert [event.index for event in log.events] == list(range(len(design_grid)))
        assert all(event.total == len(design_grid) for event in log.events)
        # The duplicate of design "a" (last entry) resolved without fresh work.
        assert log.events[-1].cache_hit is True
        assert log.events[0].cache_hit is False
        assert "cache" in log.events[-1].describe()

    def test_statistics_snapshot(self, tiny_record, design_grid):
        runtime = ExplorationRuntime([tiny_record])
        runtime.evaluate_many(design_grid)
        stats = runtime.statistics()
        assert stats["evaluations"] == 4
        assert stats["designs_resolved"] == 5
        assert stats["batches"] == 1
        # The rate is derived from the one measured field, busy_s.
        assert stats["busy_s"] == runtime.busy_s
        assert stats["evaluations_per_second"] * stats["busy_s"] == (
            pytest.approx(stats["evaluations"])
        )
        report = runtime.report().splitlines()
        assert report[0] == (
            "designs resolved : 5 (4 evaluated, 20.0% cache hits)"
        )
        # The modeled serial time is the Fig. 11 model's 300 s per design,
        # and the speedup is measured against busy_s.
        speedup = 5 * 300.0 / runtime.busy_s
        assert report[3] == f"modeled serial   : 1500 s (speedup x{speedup:.1f})"
        assert 0.0 < stats["cache_hit_rate"] < 1.0
        json.dumps(stats)  # JSON-safe as it stands

    def test_telemetry_reads_the_stage_counters_live(self, tiny_record,
                                                     design_grid):
        runtime = ExplorationRuntime([tiny_record])
        seen = []

        def watch(event):
            seen.append(
                (
                    runtime.statistics()["stage_stats"],
                    runtime.stage_stats.as_dict(),
                )
            )

        runtime.evaluate_many(design_grid, progress=watch)
        # Mid-batch, the statistics already hold the stage runs so far ...
        assert all(snapshot == live for snapshot, live in seen)
        assert seen[0][0] != seen[-1][0]
        # ... and its summary figures are the stage graph's own.
        snapshot = runtime.statistics()
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
        runtime = ExplorationRuntime([tiny_record], cache=SQLiteResultCache(db))
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

        runtime = ExplorationRuntime([tiny_record], cache=SQLiteResultCache(db))
        recomputed = runtime.evaluate(design)
        assert runtime.cache.stats.corrupt == 1
        assert runtime.evaluation_count == 1  # recomputed, not trusted
        runtime.cache.close()
        assert recomputed.peak_accuracy == reference.peak_accuracy


class TestXBioSiPThroughRuntime:
    """The acceptance scenario: methodology runs through the runtime."""

    @pytest.fixture(scope="class")
    def default_result(self, tiny_record):
        return XBioSiP([tiny_record]).run()

    def test_sqlite_cached_run_identical_and_replayed_warm(
        self, tiny_record, default_result, tmp_path_factory
    ):
        db = str(tmp_path_factory.mktemp("warm") / "cache.sqlite")
        cache = SQLiteResultCache(db)
        runtime = ExplorationRuntime([tiny_record], cache=cache)
        cached = XBioSiP([tiny_record], runtime=runtime).run()
        cache.close()
        assert cached.final_design == default_result.final_design
        assert cached.evaluations_performed == default_result.evaluations_performed
        assert cached.final_evaluation.psnr_db == (
            default_result.final_evaluation.psnr_db
        )
        assert cached.final_evaluation.peak_accuracy == (
            default_result.final_evaluation.peak_accuracy
        )

        # Second run against the warm persistent cache: zero new pipeline
        # evaluations, same selected design.
        warm_cache = SQLiteResultCache(db)
        warm_runtime = ExplorationRuntime([tiny_record], cache=warm_cache)
        warm = XBioSiP([tiny_record], runtime=warm_runtime).run()
        assert warm_runtime.evaluation_count == 0
        assert warm_runtime.cache.stats.hits > 0
        assert warm_runtime.cache.stats.misses == 0
        warm_cache.close()
        assert warm.final_design == default_result.final_design
        assert warm.final_evaluation == default_result.final_evaluation

    def test_run_leaves_a_shared_runtime_counting(self, tiny_record):
        runtime = ExplorationRuntime([tiny_record])
        runtime.evaluate(DesignPoint.from_lsbs({"mwi": 4}))
        result = XBioSiP([tiny_record], runtime=runtime).run()
        assert result.evaluations_performed > 0
        assert runtime.evaluation_count == 1 + result.evaluations_performed

    def test_default_methodology_runs_through_a_runtime(self, tiny_record):
        methodology = XBioSiP([tiny_record])
        assert isinstance(methodology.runtime, ExplorationRuntime)

    def test_mismatched_runtime_record_set_is_rejected(self, tiny_record):
        from repro.signals import load_record

        other = load_record("16272", duration_s=4.0)
        runtime = ExplorationRuntime([other])
        with pytest.raises(ValueError, match="different record set"):
            XBioSiP([tiny_record], runtime=runtime)
