"""Stage-graph memoization: keys, stores, bit-identical execution, accounting.

The contract under test is the acceptance criterion of the stage-graph
refactor: execution through the memo must be *bit-identical* to cold
execution on every stage output, every peak index and every quality metric,
while computing each distinct stage node exactly once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.arithmetic import ArithmeticBackend, accurate_backend
from repro.core import (
    DesignPoint,
    MemoryStageStore,
    StageGraphMemo,
    paper_configuration,
)
from repro.core.fingerprint import (
    backend_fingerprint,
    signal_content_hash,
    signal_root_key,
    stage_fingerprint,
    stage_node_key,
)
from repro.core.quality import run_design_evaluation
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import STAGE_LPF, STAGE_MWI
from repro.runtime import ExplorationRuntime
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


def _adopt_chain(memo: StageGraphMemo, samples, stage_outputs) -> None:
    """Adopt one accurate run's stage outputs into ``memo``, node by node.

    This is how a finished stream publishes its stages to the offline graph.
    """
    input_hash = memo.root_key(np.asarray(samples, dtype=np.int64))
    for stage, backend in PanTompkinsPipeline().stage_plan():
        key = memo.node_key(input_hash, stage, backend)
        memo.adopt(key, stage_outputs[stage.name])
        input_hash = memo.output_hash(key, stage_outputs[stage.name])


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
        evaluator = ExplorationRuntime(records, executor="serial")
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
        evaluator = ExplorationRuntime([short_record], executor="serial")
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
        evaluator = ExplorationRuntime([short_record], executor="serial")
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
        evaluator = ExplorationRuntime([short_record], executor="serial")
        design = DesignPoint.from_lsbs({"lpf": 10})
        evaluator.evaluate(design)
        evaluator.evaluate(design)  # result-cache hit
        assert evaluator.evaluation_count == 1
        evaluator.evaluate(design, use_cache=False)
        assert evaluator.evaluation_count == 2


# ----------------------------------------------------------------- warm start
class TestWarmStartSeeding:
    """A memo starts warm on nodes it never computed: a store another
    evaluator filled, or stage outputs adopted from elsewhere."""

    def test_seeded_evaluator_skips_the_accurate_chain(self, short_record):
        store = MemoryStageStore()
        ExplorationRuntime([short_record], executor="serial",
                           signal_store=store)
        seeded = ExplorationRuntime([short_record], executor="serial",
                                    signal_store=store)
        # The accurate reference chain resolves from the donor's nodes...
        assert seeded.stage_stats.total_computes == 0
        assert seeded.stage_stats.total_hits == 5
        # ... and an accurate evaluation reuses the same five nodes.
        seeded.evaluate(DesignPoint.accurate())
        assert seeded.stage_stats.total_computes == 0
        assert seeded.stage_stats.total_hits == 10

    def test_seeded_results_match_self_computed_results(self, short_record):
        store = MemoryStageStore()
        donor = ExplorationRuntime([short_record], executor="serial",
                                   signal_store=store)
        designs = _random_designs(6, seed=21)
        for design in designs:
            donor.evaluate(design)
        seeded = ExplorationRuntime([short_record], executor="serial",
                                    signal_store=store)
        fresh = ExplorationRuntime([short_record], executor="serial")
        for design in designs:
            a = seeded.evaluate(design)
            b = fresh.evaluate(design)
            assert a.psnr_db == b.psnr_db
            assert a.peak_accuracy == b.peak_accuracy
            assert a.detected_peaks == b.detected_peaks
        assert seeded.stage_stats.total_computes == 0

    def test_seed_counts_written_nodes(self, short_record):
        donor = ExplorationRuntime([short_record], executor="serial")
        memo = StageGraphMemo(store=MemoryStageStore())
        _adopt_chain(
            memo,
            short_record.samples,
            donor.accurate_result(short_record).stage_outputs,
        )
        # One node per stage, and adoption accounts neither hit nor compute.
        assert len(memo.store) == 5
        assert memo.stats.total_computes == 0
        assert memo.stats.total_hits == 0


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
        evaluator = ExplorationRuntime([short_record, twin], executor="serial")
        assert evaluator.stage_stats.total_computes == 5
        assert evaluator.stage_stats.total_hits == 5

    def test_noop_upstream_approximation_shares_downstream_nodes(
        self, short_record
    ):
        # B7 and B8 differ only in the derivative budget (2 vs 4 LSBs), and
        # both budgets are bit-exact no-ops on this signal — so their
        # derivative outputs coincide and the squarer/MWI nodes are shared.
        evaluator = ExplorationRuntime([short_record], executor="serial")
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

    def test_seeded_nodes_classify_as_warm_hits(self, short_record):
        donor = ExplorationRuntime([short_record], executor="serial")
        reference = donor.accurate_result(short_record)
        memo = StageGraphMemo(store=MemoryStageStore())
        _adopt_chain(memo, short_record.samples, reference.stage_outputs)
        result = PanTompkinsPipeline().process(short_record.samples, memo=memo)
        assert memo.stats.total_computes == 0
        assert memo.stats.total_hits == 5
        assert memo.stats.total_warm_hits == 5
        np.testing.assert_array_equal(
            result.peak_indices, reference.peak_indices
        )

    def test_cross_record_classification_on_resolve(self):
        memo = StageGraphMemo()
        signal = np.arange(8, dtype=np.int64)
        memo.resolve("s", "node", lambda: signal, root_hash="record-a")
        # Same node reached again under the same root: a classic hit.
        memo.resolve("s", "node", lambda: signal, root_hash="record-a")
        assert memo.stats.cross_record_hits.get("s", 0) == 0
        # ... and under a different root recording: a cross-record hit.
        memo.resolve("s", "node", lambda: signal, root_hash="record-b")
        assert memo.stats.cross_record_hits.get("s", 0) == 1
        assert memo.stats.total_hits == 2
        assert memo.stats.total_computes == 1

    def test_chain_keys_matches_executed_node_identity(self, short_record):
        design = paper_configuration("B7")
        pipeline = PanTompkinsPipeline(backends=design.backends())
        memo = StageGraphMemo()
        pipeline.process(short_record.samples, memo=memo)
        keys = memo.chain_keys(
            short_record.samples,
            pipeline.stages,
            {s.name: pipeline.backend_for(s) for s in pipeline.stages},
        )
        # Every key the walk derives names a node the run actually stored.
        for key in keys.values():
            assert key in memo.store
        # B8 shares the B7 squarer/MWI nodes (no-op derivative budgets).
        b8 = PanTompkinsPipeline(backends=paper_configuration("B8").backends())
        keys_b8 = memo.chain_keys(
            short_record.samples,
            b8.stages,
            {s.name: b8.backend_for(s) for s in b8.stages},
        )
        assert keys_b8["squarer"] == keys["squarer"]
        assert keys_b8["moving_window_integral"] == keys["moving_window_integral"]
        assert keys_b8["derivative"] != keys["derivative"]
