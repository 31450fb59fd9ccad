"""Stage-graph memoization: input-addressed reuse across Fig. 12, counted.

The paper's Fig. 12 hardware configurations share most of their stage work: a
monolithic pipeline runs 5 stages for each of the 16 chains (the accurate
reference, A2 and B1..B14) — 80 stage executions — yet only 47 stage nodes
are distinct once nodes are keyed by *input content* rather than by design
prefix.  Input addressing goes beyond prefix sharing: whenever an upstream
approximation is a bit-exact no-op on this record (the 2- and 4-LSB
derivative settings produce identical outputs here), the downstream nodes
collide and are served from the signal store even though the configurations
differ on paper.  The executor must compute each distinct node exactly once
and stay bit-identical to a cache-less run.

Every check is an exact count.  The cold sweep, from an empty compiled-LUT
registry, builds 70 tables of 35,127,296 bytes, and the LUT gauges agree.
The warm resweep (result cache bypassed, tracing off) computes no stage and
builds no table; it hashes one root signal per design and no stage output,
records no span, and makes two metric-registry child lookups per stage
resolve plus two per batch.
"""

import numpy as np

from conftest import format_row, write_report

from repro.arithmetic import compiled, registry_info
from repro.core import paper_configuration, paper_configuration_names
from repro.core import stage_graph
from repro.core.quality import run_design_evaluation
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import STAGE_NAMES
from repro.obs import get_tracer
from repro.obs.metrics import _MetricFamily
from repro.runtime import ExplorationRuntime

#: What the cold sweep compiles: 54 per-constant FIR tables, 9 product,
#: 6 add-slice and 1 square table.
COLD_TABLES = 70
COLD_TABLE_BYTES = 35_127_296


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns its (growing) call log."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_stage_memoization_reuse(bench_record, monkeypatch):
    designs = [
        paper_configuration(name)
        for name in paper_configuration_names()
        if name == "A2" or name.startswith("B")
    ]
    compiled._REGISTRY.clear()
    runtime = ExplorationRuntime([bench_record], executor="serial")
    evaluations = runtime.evaluate_many(designs)
    tables = registry_info()
    gauges = (compiled._LUT_TABLES.value, compiled._LUT_TABLE_BYTES.value)
    stats = runtime.stage_stats
    computed = {name: stats.computes_for(name) for name in STAGE_NAMES}
    reused = {name: stats.hits_for(name) for name in STAGE_NAMES}
    total_computes = stats.total_computes
    hit_rate = stats.hit_rate()

    # Distinct node count per stage: walk each configuration's key chain.
    # A2 collapses onto the accurate reference chain (accurate backends
    # fingerprint identically), so the sweep covers all 16 executed chains.
    distinct = {name: set() for name in STAGE_NAMES}
    samples = np.asarray(bench_record.samples, dtype=np.int64)
    for design in designs:
        pipeline = PanTompkinsPipeline(backends=design.backends())
        keys = runtime.stage_memo.chain_keys(
            samples,
            pipeline.stages,
            {s.name: pipeline.backend_for(s) for s in pipeline.stages},
        )
        for name, key in keys.items():
            distinct[name].add(key)

    # Warm resweep, result cache bypassed, every probe counting.
    tracer = get_tracer()
    monkeypatch.setattr(tracer, "enabled", False)
    spans_before = tracer.info()["finished"]
    root_digests = _count_calls(monkeypatch, stage_graph, "signal_root_key")
    output_hashes = _count_calls(
        monkeypatch, stage_graph, "signal_content_hash"
    )
    lookups = _count_calls(monkeypatch, _MetricFamily, "labels")
    builds_before = registry_info()["builds"]
    computes_before, hits_before = stats.total_computes, stats.total_hits
    warm = runtime.evaluate_many(designs, use_cache=False)
    warm_computes = stats.total_computes - computes_before
    warm_hits = stats.total_hits - hits_before
    warm_builds = registry_info()["builds"] - builds_before
    warm_spans = tracer.info()["finished"] - spans_before
    monkeypatch.undo()

    runs = 1 + len(designs)  # accurate reference + A2 + B1..B14
    monolithic = runs * len(STAGE_NAMES)
    widths = (24, 10, 10, 10, 10)
    lines = [
        "Input-addressed stage-graph reuse across the Fig. 12 configurations "
        f"(A2 + {len(designs) - 1} approximate designs, one record)",
        "",
        format_row(("stage", "monolithic", "distinct", "computed", "reused"),
                   widths),
    ]
    for name in STAGE_NAMES:
        lines.append(format_row(
            (name, runs, len(distinct[name]), computed[name],
             reused[name]), widths))
    lines += [
        "",
        f"stage runs executed : {total_computes} of {monolithic} a monolithic "
        f"pipeline would run ({hit_rate * 100:.1f}% served from the signal "
        "store)",
        f"cold sweep          : {tables['builds']} LUT builds, "
        f"{tables['tables']} tables, {tables['bytes']} bytes",
        f"warm resweep        : {warm_computes} stage computes, {warm_hits} "
        f"hits, {warm_builds} LUT builds, {len(root_digests)} root digests, "
        f"{len(output_hashes)} output hashes, {warm_spans} spans, "
        f"{len(lookups)} metric child lookups",
    ]

    # Memoized results must be bit-identical to a cache-less run.
    accurate = {r.name: runtime.accurate_result(r) for r in runtime.records}
    for design, memoized, rerun in zip(designs, evaluations, warm):
        cold = run_design_evaluation(design, runtime.records, accurate)
        for result in (memoized, rerun):
            assert result.psnr_db == cold.psnr_db
            assert result.ssim_value == cold.ssim_value
            assert result.peak_accuracy == cold.peak_accuracy
            assert result.detected_peaks == cold.detected_peaks
    lines.append("memoized and warm vs cache-less results: bit-identical on "
                 f"all {len(designs)} configurations")
    write_report("stage_memoization", lines)

    # Each distinct node executed exactly once, every chain fully accounted,
    # and input addressing beats the prefix-keyed scheme (which executed 53
    # of the 75 B-only stage runs).
    for name in STAGE_NAMES:
        assert computed[name] == len(distinct[name])
        assert computed[name] + reused[name] == runs
    assert len(distinct["low_pass"]) == 3
    assert len(distinct["high_pass"]) == 5
    assert total_computes == 47
    for name in ("derivative", "squarer", "moving_window_integral"):
        assert reused[name] > 0

    assert tables == {
        "tables": COLD_TABLES, "builds": COLD_TABLES, "bytes": COLD_TABLE_BYTES,
    }
    assert gauges == (COLD_TABLES, COLD_TABLE_BYTES)

    assert (warm_computes, warm_builds, warm_spans) == (0, 0, 0)
    assert warm_hits == len(designs) * len(STAGE_NAMES)
    assert len(root_digests) == len(designs)
    assert len(output_hashes) == 0
    assert len(lookups) == 2 * warm_hits + 2
