"""Stage-graph memoization: keys, stores, bit-identical execution, accounting.

The contract under test is the acceptance criterion of the stage-graph
refactor: execution through the memo must be *bit-identical* to cold
execution on every stage output, every peak index and every quality metric,
while computing each distinct stage node exactly once.
"""

from __future__ import annotations

import contextlib
import hashlib
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arithmetic import ArithmeticBackend, accurate_backend
from repro.core import (
    DesignPoint,
    MemoryStageStore,
    StageGraphMemo,
    StageGraphStats,
    paper_configuration,
)
from repro.core import quality, stage_graph
from repro.core.fingerprint import (
    backend_fingerprint,
    detection_node_key,
    quality_node_key,
    signal_content_hash,
    signal_payload,
    signal_root_key,
    stage_fingerprint,
    stage_node_key,
)
from repro.core.quality import run_design_evaluation
from repro.core.stage_graph import DETECT, QUALITY, ROOT
from repro.dsp import pan_tompkins
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import STAGE_HPF, STAGE_LPF, STAGE_MWI
from repro.runtime import ExplorationRuntime, SQLiteSignalStore
from repro.runtime.cache import serialize_evaluation
from repro.signals import load_record

#: Per-stage LSB bounds of the paper's design space (Section 6.2 limits for
#: the signal-processing stages), used to draw randomized designs.
_STAGE_BOUNDS = {"lpf": 16, "hpf": 16, "der": 4, "sqr": 8, "mwi": 16}


def _random_designs(count: int, seed: int) -> list:
    rng = np.random.RandomState(seed)
    designs = []
    for index in range(count):
        lsbs = {
            stage: int(rng.randint(0, bound + 1))
            for stage, bound in _STAGE_BOUNDS.items()
            if rng.rand() < 0.7
        }
        designs.append(DesignPoint.from_lsbs(lsbs, name=f"rand-{index}"))
    return designs


def _walked_keys(memo: StageGraphMemo, samples, pipeline) -> dict:
    """Node keys of ``pipeline``'s chain on ``samples``, read from the store."""
    keys = {}

    def lookup(stage, backend, key, signal, root):
        keys[stage.name] = key
        return memo.store.get(key)

    memo.walk(samples, pipeline.stage_plan(), lookup)
    return keys


# --------------------------------------------------------------- fingerprints
class TestNodeKeys:
    def test_stage_fingerprint_is_stable_and_content_sensitive(self):
        assert stage_fingerprint(STAGE_LPF) == stage_fingerprint(STAGE_LPF)
        assert stage_fingerprint(STAGE_LPF) != stage_fingerprint(STAGE_MWI)

    def test_accurate_backends_collapse_onto_one_fingerprint(self):
        # An "approximate" backend built from exact cells behaves bit-exactly
        # and must share the accurate chain.
        exact_cells = ArithmeticBackend(
            approx_lsbs=5, adder_cell="Accurate", multiplier_cell="AccMult"
        )
        assert exact_cells.is_accurate
        assert backend_fingerprint(exact_cells) == backend_fingerprint(
            accurate_backend()
        )

    def test_approximation_setting_changes_the_fingerprint(self):
        a = ArithmeticBackend(
            approx_lsbs=4, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
        )
        b = ArithmeticBackend(
            approx_lsbs=8, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
        )
        c = ArithmeticBackend(
            approx_lsbs=4, adder_cell="ApproxAdd1", multiplier_cell="AppMultV1"
        )
        assert backend_fingerprint(a) != backend_fingerprint(b)
        assert backend_fingerprint(a) != backend_fingerprint(c)
        assert backend_fingerprint(a) != backend_fingerprint(accurate_backend())

    def test_node_key_is_input_addressed(self):
        backend = ArithmeticBackend(
            approx_lsbs=4, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
        )
        input_a = signal_content_hash(np.arange(10, dtype=np.int64))
        input_b = signal_content_hash(np.arange(11, dtype=np.int64))
        key_a = stage_node_key(input_a, STAGE_LPF, backend)
        # Same stage and backend on different input bits: different node.
        assert key_a != stage_node_key(input_b, STAGE_LPF, backend)
        # Same input, different backend: different node.
        assert key_a != stage_node_key(input_a, STAGE_LPF, accurate_backend())
        # The key names the input *bits*, not their provenance: any producer
        # arriving at the same content hash lands on the same node.
        assert key_a == stage_node_key(
            signal_content_hash(np.arange(10, dtype=np.int64)), STAGE_LPF, backend
        )

    def test_root_key_is_the_first_stage_input_hash(self):
        samples = np.arange(64, dtype=np.int64)
        assert signal_root_key(samples) == signal_content_hash(samples)

    def test_root_key_covers_dtype_and_content(self):
        samples = np.arange(32, dtype=np.int64)
        assert signal_root_key(samples) == signal_root_key(samples.copy())
        assert signal_root_key(samples) != signal_root_key(
            samples.astype(np.int32)
        )
        changed = samples.copy()
        changed[3] += 1
        assert signal_root_key(samples) != signal_root_key(changed)


# --------------------------------------------------------- memoized execution
class TestMemoizedPipelineExecution:
    def test_memoized_run_is_bit_identical_to_cold_run(self, short_record):
        design = paper_configuration("B9")
        pipeline = PanTompkinsPipeline(backends=design.backends())
        cold = pipeline.process(short_record.samples)
        memo = StageGraphMemo()
        warm_miss = pipeline.process(short_record.samples, memo=memo)
        warm_hit = pipeline.process(short_record.samples, memo=memo)
        for name in cold.stage_outputs:
            np.testing.assert_array_equal(
                cold.stage_outputs[name], warm_miss.stage_outputs[name]
            )
            np.testing.assert_array_equal(
                cold.stage_outputs[name], warm_hit.stage_outputs[name]
            )
        np.testing.assert_array_equal(cold.peak_indices, warm_hit.peak_indices)
        # The second run resolved every stage from the store.
        assert memo.stats.total_computes == 5
        assert memo.stats.total_hits == 5

    def test_randomized_designs_and_records_match_cold_execution(self):
        records = [
            load_record("16265", duration_s=5.0),
            load_record("16272", duration_s=5.0),
        ]
        evaluator = ExplorationRuntime(records)
        for design in _random_designs(12, seed=7):
            warm = evaluator.evaluate(design)
            cold = run_design_evaluation(
                design, evaluator.records, evaluator.accurate_results
            )
            assert warm.psnr_db == cold.psnr_db
            assert warm.ssim_value == cold.ssim_value
            assert warm.peak_accuracy == cold.peak_accuracy
            assert warm.detected_peaks == cold.detected_peaks
            assert warm.per_record_accuracy == cold.per_record_accuracy

    def test_shared_prefix_designs_reuse_upstream_nodes(self, short_record):
        evaluator = ExplorationRuntime([short_record])
        # Both designs share the lpf=10 prefix; the second run must reuse the
        # memoized low-pass node and only compute downstream stages.
        evaluator.evaluate(DesignPoint.from_lsbs({"lpf": 10, "hpf": 8}))
        before = evaluator.stage_stats.computes_for("low_pass")
        evaluator.evaluate(DesignPoint.from_lsbs({"lpf": 10, "hpf": 12}))
        stats = evaluator.stage_stats
        assert stats.computes_for("low_pass") == before
        assert stats.hits_for("low_pass") >= 1

    def test_stage_hit_accounting_over_the_paper_configurations(
        self, short_record
    ):
        evaluator = ExplorationRuntime([short_record])
        designs = [paper_configuration(f"B{i}") for i in range(1, 15)]
        for design in designs:
            evaluator.evaluate(design)
        stats = evaluator.stage_stats
        # Distinct LPF settings across accurate + B1..B14: {0, 10, 12}.
        assert stats.computes_for("low_pass") == 3
        # Distinct (lpf, hpf) prefixes: accurate + the four Fig. 12 combos.
        assert stats.computes_for("high_pass") == 5
        # Every one of the 15 runs resolved both pre-processing stages.
        assert stats.computes_for("low_pass") + stats.hits_for("low_pass") == 15
        assert stats.computes_for("high_pass") + stats.hits_for("high_pass") == 15
        # Input-addressed suffix sharing: the 2/4-LSB derivative approximation
        # is a bit-exact no-op on these signals, so the (B7, B8), (B11, B12)
        # and (B13, B14) pairs produce identical derivative outputs and share
        # their squarer and MWI nodes — 12 distinct nodes for 15 runs each.
        assert stats.computes_for("squarer") == 12
        assert stats.hits_for("squarer") == 3
        assert stats.computes_for("moving_window_integral") == 12
        assert stats.hits_for("moving_window_integral") == 3

    def test_single_flight_under_concurrent_misses(self, short_record):
        design = paper_configuration("B9")
        pipeline = PanTompkinsPipeline(backends=design.backends())
        memo = StageGraphMemo()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(
                    pipeline.process, short_record.samples, memo
                )
                for _ in range(8)
            ]
            results = [f.result() for f in futures]
        # Eight concurrent identical runs: every node computed exactly once.
        assert memo.stats.total_computes == 5
        assert memo.stats.total_hits == 35
        for result in results[1:]:
            np.testing.assert_array_equal(
                results[0].integrated, result.integrated
            )

    def test_evaluation_counter_semantics_are_unchanged(self, short_record):
        evaluator = ExplorationRuntime([short_record])
        design = DesignPoint.from_lsbs({"lpf": 10})
        evaluator.evaluate(design)
        evaluator.evaluate(design)  # result-cache hit
        assert evaluator.evaluation_count == 1
        evaluator.evaluate(design, use_cache=False)
        assert evaluator.evaluation_count == 2


# ----------------------------------------------------------------- warm start
class TestWarmStartSeeding:
    """A memo starts warm on nodes it never computed: a store another
    evaluator filled."""

    def test_seeded_evaluator_skips_the_accurate_chain(self, short_record):
        store = MemoryStageStore()
        ExplorationRuntime([short_record], signal_store=store)
        seeded = ExplorationRuntime([short_record], signal_store=store)
        # The accurate reference chain resolves from the donor's nodes...
        assert seeded.stage_stats.total_computes == 0
        assert seeded.stage_stats.total_hits == 5
        # ... and an accurate evaluation reuses the same five nodes.
        seeded.evaluate(DesignPoint.accurate())
        assert seeded.stage_stats.total_computes == 0
        assert seeded.stage_stats.total_hits == 10

    def test_seeded_results_match_self_computed_results(self, short_record):
        store = MemoryStageStore()
        donor = ExplorationRuntime([short_record], signal_store=store)
        designs = _random_designs(6, seed=21)
        for design in designs:
            donor.evaluate(design)
        seeded = ExplorationRuntime([short_record], signal_store=store)
        fresh = ExplorationRuntime([short_record])
        for design in designs:
            a = seeded.evaluate(design)
            b = fresh.evaluate(design)
            assert a.psnr_db == b.psnr_db
            assert a.peak_accuracy == b.peak_accuracy
            assert a.detected_peaks == b.detected_peaks
        assert seeded.stage_stats.total_computes == 0


# ------------------------------------------------------ input-addressed reuse
class TestInputAddressedReuse:
    def test_records_with_identical_samples_share_every_node(self, short_record):
        from repro.signals.records import ECGRecord

        twin = ECGRecord(
            name="twin-of-" + short_record.name,
            samples=short_record.samples.copy(),
            r_peak_indices=short_record.r_peak_indices.copy(),
            sample_rate_hz=short_record.sample_rate_hz,
        )
        # The accurate reference chains run at construction: the first record
        # computes all five nodes, the twin — same bits, different record
        # object and name — resolves every one from the store.
        evaluator = ExplorationRuntime([short_record, twin])
        assert evaluator.stage_stats.total_computes == 5
        assert evaluator.stage_stats.total_hits == 5

    def test_noop_upstream_approximation_shares_downstream_nodes(
        self, short_record
    ):
        # B7 and B8 differ only in the derivative budget (2 vs 4 LSBs), and
        # both budgets are bit-exact no-ops on this signal — so their
        # derivative outputs coincide and the squarer/MWI nodes are shared.
        evaluator = ExplorationRuntime([short_record])
        evaluator.evaluate(paper_configuration("B7"))
        stats = evaluator.stage_stats
        sqr_computes = stats.computes_for("squarer")
        mwi_computes = stats.computes_for("moving_window_integral")
        evaluator.evaluate(paper_configuration("B8"))
        assert stats.computes_for("squarer") == sqr_computes
        assert stats.computes_for("moving_window_integral") == mwi_computes
        assert stats.hits_for("squarer") >= 1
        assert stats.hits_for("moving_window_integral") >= 1

    def test_hits_from_a_shared_store_classify_as_warm(self, short_record):
        design = paper_configuration("B9")
        pipeline = PanTompkinsPipeline(backends=design.backends())
        store = MemoryStageStore()
        donor = StageGraphMemo(store=store)
        pipeline.process(short_record.samples, memo=donor)
        assert donor.stats.total_warm_hits == 0
        # A second memo over the same store never computed any node: all of
        # its hits are warm (the persistent-store / cross-run reuse class).
        fresh = StageGraphMemo(store=store)
        fresh_result = pipeline.process(short_record.samples, memo=fresh)
        assert fresh.stats.total_computes == 0
        assert fresh.stats.total_hits == 5
        assert fresh.stats.total_warm_hits == 5
        cold = PanTompkinsPipeline(backends=design.backends()).process(
            short_record.samples
        )
        np.testing.assert_array_equal(
            cold.peak_indices, fresh_result.peak_indices
        )

    def test_cross_record_classification_on_resolve(self):
        memo = StageGraphMemo()
        signal = np.arange(8, dtype=np.int64)
        memo.resolve("s", "node", lambda: signal, root_hash="record-a")
        # Same node reached again under the same root: a classic hit.
        memo.resolve("s", "node", lambda: signal, root_hash="record-a")
        assert memo.stats.as_dict()["s"]["cross_record_hits"] == 0
        # ... and under a different root recording: a cross-record hit.
        memo.resolve("s", "node", lambda: signal, root_hash="record-b")
        assert memo.stats.as_dict()["s"]["cross_record_hits"] == 1
        assert memo.stats.total_hits == 2
        assert memo.stats.total_computes == 1

    def test_walked_keys_match_executed_node_identity(self, short_record):
        b7 = PanTompkinsPipeline(backends=paper_configuration("B7").backends())
        b8 = PanTompkinsPipeline(backends=paper_configuration("B8").backends())
        memo = StageGraphMemo()
        b7.process(short_record.samples, memo=memo)
        b8.process(short_record.samples, memo=memo)
        keys = _walked_keys(memo, short_record.samples, b7)
        keys_b8 = _walked_keys(memo, short_record.samples, b8)
        # Every key the walk derives names a node the runs actually stored.
        assert len(keys) == len(keys_b8) == 5
        for key in list(keys.values()) + list(keys_b8.values()):
            assert key in memo.store
        # B8 shares the B7 squarer/MWI nodes (no-op derivative budgets).
        assert keys_b8["squarer"] == keys["squarer"]
        assert keys_b8["moving_window_integral"] == keys["moving_window_integral"]
        assert keys_b8["derivative"] != keys["derivative"]

    def test_a_visit_that_returns_none_stops_the_walk(self, short_record):
        # A lookup that misses ends the chain: the nodes past it have no
        # input to key them by (the Fig. 12 node census relies on this).
        memo = StageGraphMemo()
        plan = PanTompkinsPipeline().stage_plan()
        visited = []

        def visit(stage, backend, key, signal, root):
            visited.append(stage.name)
            return None if len(visited) == 3 else signal

        outputs, hashes = memo.walk(short_record.samples, plan, visit)
        assert visited == [stage.name for stage, _ in plan[:3]]
        assert list(outputs) == visited[:2]
        assert list(hashes) == [ROOT] + visited[:2]
        assert len(memo.store) == 0


# ------------------------------------------------ nodes past the stage chain
def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns its (growing) call log."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _node_key(node, runtime, record, design):
    """The key of ``design``'s ``detect`` or ``quality`` node on ``record``."""
    pipeline = PanTompkinsPipeline(backends=design.backends())
    hashes = pipeline.process(record.samples, memo=runtime.stage_memo).node_hashes
    if node == DETECT:
        return detection_node_key(hashes[STAGE_MWI.name], hashes[STAGE_HPF.name])
    reference = runtime.accurate_result(record).node_hashes
    return quality_node_key(reference[STAGE_HPF.name], hashes[STAGE_HPF.name])


class TestDetectAndQualityNodes:
    """The decision stage and the PSNR/SSIM scores resolve as memo nodes."""

    def test_their_rows_stay_out_of_the_stage_totals(self, short_record):
        runtime = ExplorationRuntime([short_record])
        designs = [paper_configuration(name) for name in ("B2", "B9", "B10")]
        runtime.evaluate_many(designs)
        stats = runtime.stage_stats
        rows = stats.as_dict()
        assert list(rows)[-2:] == [DETECT, QUALITY]
        # Four chains (the reference and three designs) of five stages.
        assert stats.total_computes + stats.total_hits == 4 * 5
        assert sum(row["computes"] + row["hits"] for name, row in rows.items()
                   if name not in (DETECT, QUALITY)) == 4 * 5
        # Every chain is detected on, every design scored.
        assert rows[DETECT]["computes"] + rows[DETECT]["hits"] == 4
        assert rows[QUALITY]["computes"] + rows[QUALITY]["hits"] == 3

    def test_only_nodes_another_memo_stored_are_warm_hits(self, short_record):
        store = MemoryStageStore()
        runtime = ExplorationRuntime([short_record], signal_store=store)
        # The accurate design's chain is the reference's; B9 runs twice.
        designs = [DesignPoint.accurate()] + [paper_configuration("B9")] * 2
        runtime.evaluate_many(designs, use_cache=False)
        counts = runtime.stage_stats.counts
        for node in (DETECT, QUALITY):
            assert counts[node, "classic"] > 0
            assert counts[node, "warm"] == 0
        seeded = ExplorationRuntime([short_record], signal_store=store)
        seeded.evaluate_many(designs, use_cache=False)
        stats = seeded.stage_stats
        for node in (DETECT, QUALITY):
            assert stats.computes_for(node) == 0
            assert stats.as_dict()[node]["warm_hits"] == stats.hits_for(node) > 0

    def test_a_memo_less_reference_is_scored_directly(self, short_record):
        # The quality node is keyed by both HPF hashes; an accurate result
        # made without a memo has none, so the design is scored in place.
        design = paper_configuration("B9")
        accurate = {short_record.name: PanTompkinsPipeline().process(short_record.samples)}
        memo = StageGraphMemo()
        evaluation = run_design_evaluation(
            design, [short_record], accurate, stage_memo=memo
        )
        assert evaluation == run_design_evaluation(design, [short_record], accurate)
        assert memo.stats.computes_for(DETECT) == 1
        assert memo.stats.computes_for(QUALITY) == 0

    @pytest.mark.parametrize("node", [DETECT, QUALITY])
    def test_a_corrupt_row_is_dropped_and_recomputed(
        self, short_record, tmp_path, node
    ):
        design = paper_configuration("B9")
        path = str(tmp_path / "nodes.sqlite")
        with contextlib.closing(SQLiteSignalStore(path)) as store:
            runtime = ExplorationRuntime([short_record], signal_store=store)
            expected = serialize_evaluation(runtime.evaluate(design))
            key = _node_key(node, runtime, short_record, design)
        with contextlib.closing(sqlite3.connect(path)) as connection:
            with connection:
                changed = connection.execute(
                    "UPDATE signals SET payload = ? WHERE key = ?",
                    (b"not a node", key),
                ).rowcount
        assert changed == 1
        with contextlib.closing(SQLiteSignalStore(path)) as store:
            runtime = ExplorationRuntime([short_record], signal_store=store)
            assert serialize_evaluation(runtime.evaluate(design)) == expected
            assert store.stats.corrupt == 1
            stats = runtime.stage_stats
            assert stats.total_computes == 0
            assert stats.computes_for(node) == 1
            assert sum(stats.computes_for(other) for other in (DETECT, QUALITY)) == 1


class TestOneHashPerWarmHit:
    """A warm SQLite hit is hashed once: the store's check of its row."""

    def test_the_content_hash_is_the_payload_hash(self, tmp_path):
        signal = np.arange(-5, 20, dtype=np.int64)[::2]
        digest = hashlib.sha256(signal_payload(signal)).hexdigest()
        assert signal_content_hash(signal) == digest
        with contextlib.closing(SQLiteSignalStore(str(tmp_path / "s.sqlite"))) as store:
            store.put("node", signal)
            value, checksum = store.get("node", with_checksum=True)
            np.testing.assert_array_equal(value, signal)
            assert checksum == digest
            assert store.get("missing", with_checksum=True) is None
        memory = MemoryStageStore()
        memory.put("node", signal)
        value, checksum = memory.get("node", with_checksum=True)
        np.testing.assert_array_equal(value, signal)
        assert checksum is None

    def test_a_warm_sqlite_runtime_hashes_no_output_and_recomputes_nothing(
        self, short_record, tmp_path, monkeypatch
    ):
        designs = [paper_configuration(name) for name in ("B2", "B9", "B10")]
        path = str(tmp_path / "nodes.sqlite")
        with contextlib.closing(SQLiteSignalStore(path)) as store:
            runtime = ExplorationRuntime([short_record], signal_store=store)
            expected = runtime.evaluate_many(designs)
        roots = _count_calls(monkeypatch, stage_graph, "signal_root_key")
        outputs = _count_calls(monkeypatch, stage_graph, "signal_content_hash")
        detections = _count_calls(monkeypatch, pan_tompkins, "detect_peaks")
        psnrs = _count_calls(monkeypatch, quality, "psnr")
        ssims = _count_calls(monkeypatch, quality, "ssim")
        with contextlib.closing(SQLiteSignalStore(path)) as store:
            runtime = ExplorationRuntime([short_record], signal_store=store)
            assert runtime.evaluate_many(designs) == expected
        stats = runtime.stage_stats
        assert (stats.total_computes, stats.total_warm_hits) == (0, 4 * 5)
        assert (stats.hits_for(DETECT), stats.hits_for(QUALITY)) == (4, 3)
        # One root digest per chain; every output hash came with its row.
        assert len(roots) == 1 + len(designs)
        assert (outputs, detections, psnrs, ssims) == ([], [], [], [])

    def test_a_cold_sqlite_sweep_hashes_each_output_once_in_its_put(
        self, tmp_path, monkeypatch
    ):
        # The Fig. 12 designs over 10 s of record 16265 into an empty store:
        # each computed node's put returns its row checksum, which is the
        # output's content hash, so the memo hashes no output itself.
        record = load_record("16265", duration_s=10.0)
        designs = [DesignPoint.accurate()] + [
            paper_configuration(f"B{index}") for index in range(1, 15)
        ]
        roots = _count_calls(monkeypatch, stage_graph, "signal_root_key")
        outputs = _count_calls(monkeypatch, stage_graph, "signal_content_hash")
        with contextlib.closing(SQLiteSignalStore(str(tmp_path / "s.sqlite"))) as store:
            runtime = ExplorationRuntime([record], signal_store=store)
            evaluations = runtime.evaluate_many(designs)
            assert (len(outputs), store.stats.puts, len(roots)) == (0, 64, 16)
        monkeypatch.undo()
        accurate = {record.name: PanTompkinsPipeline().process(record.samples)}
        assert evaluations == [
            run_design_evaluation(design, [record], accurate) for design in designs
        ]

    def test_a_warm_memory_hit_is_hashed_once_by_the_memo(
        self, short_record, monkeypatch
    ):
        # Memory entries keep no checksum: the memo hashes each output the
        # first time it walks past it, and never again.
        store = MemoryStageStore()
        PanTompkinsPipeline().process(short_record.samples, memo=StageGraphMemo(store))
        outputs = _count_calls(monkeypatch, stage_graph, "signal_content_hash")
        fresh = StageGraphMemo(store)
        for _ in range(2):
            result = PanTompkinsPipeline().process(short_record.samples, memo=fresh)
        assert fresh.stats.total_warm_hits == 10
        assert len(outputs) == 5
        monkeypatch.undo()
        for name, output in result.stage_outputs.items():
            assert result.node_hashes[name] == signal_content_hash(output)
        assert result.node_hashes[ROOT] == signal_root_key(short_record.samples)


# ---------------------------------------------------------- bounded memory
class TestBoundedBookkeeping:
    def test_a_long_lived_memo_keeps_its_maps_and_default_store_capped(self):
        # 64 nodes past the 4096-entry FIFO caps of the output hashes and
        # computed roots, and far past the default store's 512 entries.
        nodes = 4096 + 64
        memo = StageGraphMemo()
        for index in range(nodes):
            key = f"node-{index}"
            output = memo.resolve(
                "s",
                key,
                lambda: np.array([index], dtype=np.int64),
                root_hash="root",
            )
            memo.output_hash(key, output)
        # First in, first out: the 64 oldest nodes left both maps.
        assert len(memo._hashes) == 4096
        assert len(memo._computed_roots) == 4096
        assert next(iter(memo._hashes)) == "node-64"
        assert next(iter(memo._computed_roots)) == "node-64"
        assert len(memo.store) == 512
        assert memo.store.stats.evictions == nodes - 512
        assert memo.stats.total_computes == nodes


# ------------------------------------------------------- concurrent reads
class TestStatsReadsUnderWrites:
    def test_reads_never_iterate_the_live_counter(self):
        # /stats reads on the event-loop thread while job threads resolve
        # nodes.  A read that looped over the live Counter would raise
        # "dictionary changed size during iteration" as a resolve adds a key.
        stats = StageGraphStats()
        writes = 5000
        done = threading.Event()
        errors = []

        def write():
            for index in range(writes):
                stats.counts[f"stage-{index}", "miss"] += 1
                stats.counts[f"stage-{index}", "warm"] += 1
            done.set()

        def read():
            try:
                while not done.is_set():
                    stats.hit_rate()
                    stats.hits_for("stage-0")
            except RuntimeError as error:
                errors.append(error)

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert (stats.total_computes, stats.total_hits) == (writes, writes)
        assert stats.hit_rate() == 0.5
